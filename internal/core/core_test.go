package core

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"choreo/internal/netsim"
	"choreo/internal/place"
	"choreo/internal/profile"
	"choreo/internal/topology"
	"choreo/internal/units"
	"choreo/internal/workload"
)

func newChoreo(t *testing.T, seed int64, nVMs int, opts Options) *Choreo {
	t.Helper()
	prov, err := topology.NewProvider(topology.EC22013(), seed)
	if err != nil {
		t.Fatal(err)
	}
	vms, err := prov.AllocateVMs(nVMs)
	if err != nil {
		t.Fatal(err)
	}
	net := netsim.New(prov)
	c, err := New(net, vms, rand.New(rand.NewSource(seed)), opts)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestMeasureEnvironment(t *testing.T) {
	c := newChoreo(t, 1, 6, Options{})
	env, err := c.MeasureEnvironment()
	if err != nil {
		t.Fatal(err)
	}
	if err := env.Validate(); err != nil {
		t.Fatal(err)
	}
	if env.Machines() != 6 {
		t.Fatalf("machines = %d", env.Machines())
	}
	// Estimates should be in a plausible EC2 band.
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			r := env.Rates[i][j]
			if i == j {
				if r != c.Network().Provider().Profile.MemBusRate {
					t.Errorf("diagonal rate %v", r)
				}
				continue
			}
			if r < units.Mbps(100) || r > units.Gbps(12) {
				t.Errorf("rate[%d][%d] = %v out of plausible band", i, j, r)
			}
		}
	}
	if env.CPUCap[0] != 4 {
		t.Errorf("default CPU = %v, want 4", env.CPUCap[0])
	}
}

// TestMeasureIntoReusesEnvironment: measuring into an environment left
// over from another cloud keeps its storage and overwrites every entry,
// giving exactly what MeasureEnvironment returns on an identical
// orchestrator. RunSequence's re-measurements rely on it.
func TestMeasureIntoReusesEnvironment(t *testing.T) {
	want, err := newChoreo(t, 7, 6, Options{}).MeasureEnvironment()
	if err != nil {
		t.Fatal(err)
	}
	env, err := newChoreo(t, 8, 6, Options{}).MeasureEnvironment()
	if err != nil {
		t.Fatal(err)
	}
	env.Rates[2][2], env.CPUCap[3] = units.Mbps(1), 1
	row, caps := &env.Rates[5][0], &env.CPUCap[0]
	if err := newChoreo(t, 7, 6, Options{}).measureInto(env); err != nil {
		t.Fatal(err)
	}
	if &env.Rates[5][0] != row || &env.CPUCap[0] != caps {
		t.Error("measureInto reallocated an environment of the right size")
	}
	if !reflect.DeepEqual(env, want) {
		t.Errorf("reused environment %v, fresh %v", env, want)
	}
}

func TestDetectModelOnEC2(t *testing.T) {
	c := newChoreo(t, 3, 6, Options{})
	model, err := c.DetectModel()
	if err != nil {
		t.Fatal(err)
	}
	if model != place.Hose {
		t.Errorf("EC2 model = %v, want hose", model)
	}
}

func TestExecuteSimpleApp(t *testing.T) {
	c := newChoreo(t, 4, 4, Options{Model: place.Hose})
	app := &profile.Application{
		Name: "simple",
		CPU:  []float64{1, 1},
		TM:   profile.NewTrafficMatrix(2),
	}
	_ = app.TM.Set(0, 1, 125*units.Megabyte) // 1 s at 1 Gbit/s
	env, err := c.MeasureEnvironment()
	if err != nil {
		t.Fatal(err)
	}
	p, err := c.Place(app, env, AlgRoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	d, err := c.Execute(app, p)
	if err != nil {
		t.Fatal(err)
	}
	if d <= 0 || d > 10*time.Second {
		t.Errorf("completion = %v", d)
	}
}

func TestExecuteColocatedIsInstant(t *testing.T) {
	c := newChoreo(t, 5, 4, Options{})
	app := &profile.Application{
		Name: "coloc",
		CPU:  []float64{1, 1},
		TM:   profile.NewTrafficMatrix(2),
	}
	_ = app.TM.Set(0, 1, units.Gigabyte)
	p := place.Placement{MachineOf: []int{0, 0}}
	d, err := c.Execute(app, p)
	if err != nil {
		t.Fatal(err)
	}
	if d != 0 {
		t.Errorf("intra-VM completion = %v, want 0", d)
	}
}

func TestChoreoBeatsRandomOnAverage(t *testing.T) {
	wins, trials := 0, 12
	var choreoSum, randomSum float64
	for seed := int64(0); seed < int64(trials); seed++ {
		c := newChoreo(t, 100+seed, 10, Options{Model: place.Hose})
		rng := rand.New(rand.NewSource(seed))
		app, err := workload.Generate(rng, workload.Default())
		if err != nil {
			t.Fatal(err)
		}
		env, err := c.MeasureEnvironment()
		if err != nil {
			t.Fatal(err)
		}
		pc, err := c.Place(app, env, AlgChoreo)
		if err != nil {
			t.Fatal(err)
		}
		dc, err := c.Execute(app, pc)
		if err != nil {
			t.Fatal(err)
		}
		// Fresh network state for a fair baseline run.
		c2 := newChoreo(t, 100+seed, 10, Options{Model: place.Hose})
		env2, err := c2.MeasureEnvironment()
		if err != nil {
			t.Fatal(err)
		}
		pr, err := c2.Place(app, env2, AlgRandom)
		if err != nil {
			t.Fatal(err)
		}
		dr, err := c2.Execute(app, pr)
		if err != nil {
			t.Fatal(err)
		}
		choreoSum += dc.Seconds()
		randomSum += dr.Seconds()
		if dc <= dr {
			wins++
		}
	}
	if choreoSum >= randomSum {
		t.Errorf("choreo total %.2fs not better than random %.2fs", choreoSum, randomSum)
	}
	if wins < trials/2 {
		t.Errorf("choreo won only %d/%d trials", wins, trials)
	}
}

func TestRunSequence(t *testing.T) {
	c := newChoreo(t, 6, 10, Options{Model: place.Hose})
	rng := rand.New(rand.NewSource(9))
	apps, err := workload.GenerateSequence(rng, workload.Default(), 3, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.RunSequence(apps, AlgChoreo, SequenceOptions{Remeasure: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerApp) != 3 {
		t.Fatalf("per-app results = %d", len(res.PerApp))
	}
	var sum time.Duration
	for i, d := range res.PerApp {
		if d < 0 {
			t.Errorf("app %d running time %v", i, d)
		}
		sum += d
	}
	if res.TotalRunning != sum {
		t.Errorf("TotalRunning %v != sum %v", res.TotalRunning, sum)
	}
}

func TestRunSequenceWithMigration(t *testing.T) {
	c := newChoreo(t, 7, 10, Options{Model: place.Hose})
	rng := rand.New(rand.NewSource(11))
	cfg := workload.Default()
	cfg.MeanBytes = 2 * units.Gigabyte // long enough to migrate mid-run
	apps, err := workload.GenerateSequence(rng, cfg, 3, 3*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.RunSequence(apps, AlgChoreo, SequenceOptions{
		Remeasure:       true,
		ReevaluateEvery: 5 * time.Second,
		MigrationGain:   0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range res.PerApp {
		if d < 0 {
			t.Errorf("app %d running time %v", i, d)
		}
	}
	// Migration may or may not trigger depending on the seed; the count
	// must at least be non-negative and the run must complete.
	if res.Migrations < 0 {
		t.Error("negative migrations")
	}
}

func TestSequenceBaselines(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	apps, err := workload.GenerateSequence(rng, workload.Default(), 2, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []Algorithm{AlgRandom, AlgRoundRobin, AlgMinMachines} {
		c := newChoreo(t, 8, 10, Options{Model: place.Hose})
		res, err := c.RunSequence(apps, alg, SequenceOptions{})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if res.TotalRunning <= 0 {
			t.Errorf("%v: total running %v", alg, res.TotalRunning)
		}
	}
}

func TestSequenceErrors(t *testing.T) {
	c := newChoreo(t, 9, 4, Options{})
	if _, err := c.RunSequence(nil, AlgChoreo, SequenceOptions{}); err == nil {
		t.Error("empty sequence should fail")
	}
}

func TestNewValidation(t *testing.T) {
	prov, err := topology.NewProvider(topology.EC22013(), 1)
	if err != nil {
		t.Fatal(err)
	}
	vms, err := prov.AllocateVMs(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(netsim.New(prov), vms, rand.New(rand.NewSource(1)), Options{}); err == nil {
		t.Error("one VM should fail")
	}
}

func TestAlgorithmString(t *testing.T) {
	names := map[Algorithm]string{
		AlgChoreo: "choreo", AlgRandom: "random", AlgRoundRobin: "round robin",
		AlgMinMachines: "min machines", AlgOptimal: "optimal", Algorithm(9): "algorithm(9)",
	}
	for a, want := range names {
		if got := a.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", a, got, want)
		}
	}
}

func TestAlgorithmWireNames(t *testing.T) {
	want := []string{"choreo", "random", "round-robin", "min-machines", "optimal"}
	if got := AlgorithmNames(); !reflect.DeepEqual(got, want) {
		t.Errorf("AlgorithmNames() = %q, want %q", got, want)
	}
	for a := AlgChoreo; a <= AlgOptimal; a++ {
		if got, ok := ParseAlgorithm(a.Name()); !ok || got != a {
			t.Errorf("ParseAlgorithm(%q) = %v, %v; want %v", a.Name(), got, ok, a)
		}
	}
	for alias, want := range map[string]Algorithm{"greedy": AlgChoreo, "roundrobin": AlgRoundRobin, "minmachines": AlgMinMachines} {
		if got, ok := ParseAlgorithm(alias); !ok || got != want {
			t.Errorf("ParseAlgorithm(%q) = %v, %v; want %v", alias, got, ok, want)
		}
	}
	for _, bad := range []string{"", "round robin", "ilp", "Choreo"} {
		if _, ok := ParseAlgorithm(bad); ok {
			t.Errorf("ParseAlgorithm(%q) accepted", bad)
		}
	}
}

func TestNewSimulated(t *testing.T) {
	measure := func() *place.Environment {
		c, err := NewSimulated(topology.EC22013(), 5, 6, Options{})
		if err != nil {
			t.Fatal(err)
		}
		env, err := c.MeasureEnvironment()
		if err != nil {
			t.Fatal(err)
		}
		return env
	}
	if a, b := measure(), measure(); !reflect.DeepEqual(a, b) {
		t.Error("two clouds built from one seed measured differently")
	}
	if _, err := NewSimulated(topology.EC22013(), 5, 1, Options{}); err == nil {
		t.Error("one VM should fail")
	}
	if _, err := NewSimulated(topology.EC22013(), 5, 1<<20, Options{}); err == nil {
		t.Error("allocating beyond the fabric should fail")
	}
}

func TestRunOnce(t *testing.T) {
	c := newChoreo(t, 10, 8, Options{Model: place.Hose})
	rng := rand.New(rand.NewSource(2))
	app, err := workload.Generate(rng, workload.Default())
	if err != nil {
		t.Fatal(err)
	}
	d, err := c.RunOnce(app, AlgChoreo)
	if err != nil {
		t.Fatal(err)
	}
	if d < 0 {
		t.Errorf("completion = %v", d)
	}
}

// TestPlaceWithEmptyApplication pins one answer for an application with
// no tasks: every algorithm returns an empty placement, not an error.
func TestPlaceWithEmptyApplication(t *testing.T) {
	app := &profile.Application{Name: "empty", TM: profile.NewTrafficMatrix(0)}
	env := &place.Environment{
		Rates:  [][]units.Rate{{units.Gbps(10), units.Gbps(1)}, {units.Gbps(1), units.Gbps(10)}},
		CPUCap: []float64{1, 1},
	}
	for a := AlgChoreo; a <= AlgOptimal; a++ {
		for _, model := range []place.Model{place.Hose, place.Pipe} {
			p, err := PlaceWith(app, env, a, model, rand.New(rand.NewSource(1)))
			if err != nil {
				t.Errorf("%v/%v: %v", a, model, err)
				continue
			}
			if len(p.MachineOf) != 0 {
				t.Errorf("%v/%v: placement %v, want empty", a, model, p.MachineOf)
			}
		}
	}
}
