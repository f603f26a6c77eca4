package place

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"choreo/internal/profile"
	"choreo/internal/units"
)

// mbps builds a rate from "figure units" (arbitrary bandwidth units used
// by paper Figure 9); 1 unit = 1 MB/s so byte/second arithmetic is clean.
func figRate(u float64) units.Rate { return units.Rate(u * 8e6) }

// uniformEnv builds an M-machine environment with every off-diagonal rate
// equal and fast intra-machine rates.
func uniformEnv(m int, rate units.Rate, cpuPerMachine float64) *Environment {
	env := &Environment{
		Rates:  make([][]units.Rate, m),
		CPUCap: make([]float64, m),
	}
	for i := range env.Rates {
		env.Rates[i] = make([]units.Rate, m)
		for j := range env.Rates[i] {
			if i == j {
				env.Rates[i][j] = units.Gbps(32)
			} else {
				env.Rates[i][j] = rate
			}
		}
		env.CPUCap[i] = cpuPerMachine
	}
	return env
}

// figure9 builds the paper's Figure 9 counterexample: directed rates
// (3→1)=10, (2→3)=9, (2→0)=8, all other pairs 1; one task per machine.
func figure9() (*profile.Application, *Environment) {
	env := uniformEnv(4, figRate(1), 1)
	env.Rates[3][1] = figRate(10)
	env.Rates[2][3] = figRate(9)
	env.Rates[2][0] = figRate(8)
	app := &profile.Application{
		Name: "fig9",
		CPU:  []float64{1, 1, 1, 1}, // J1..J4
		TM:   profile.NewTrafficMatrix(4),
	}
	// J1->J2 100MB, J1->J3 50MB, J2->J4 50MB (tasks 0..3).
	_ = app.TM.Set(0, 1, 100*units.Megabyte)
	_ = app.TM.Set(0, 2, 50*units.Megabyte)
	_ = app.TM.Set(1, 3, 50*units.Megabyte)
	return app, env
}

func TestFigure9GreedyIsSuboptimal(t *testing.T) {
	app, env := figure9()

	greedy, err := Greedy(app, env, Pipe)
	if err != nil {
		t.Fatal(err)
	}
	gTime, err := CompletionTime(app, env, greedy, Pipe)
	if err != nil {
		t.Fatal(err)
	}
	// Greedy grabs the rate-10 path for J1->J2 and strands the rest on
	// rate-1 paths: 50 MB at 1 MB/s = 50 s.
	if math.Abs(gTime.Seconds()-50) > 1e-6 {
		t.Errorf("greedy completion = %v, want 50s", gTime)
	}
	if m := greedy.MachineOf; m[0] != 3 || m[1] != 1 {
		t.Errorf("greedy should use the rate-10 pair (3,1) for J1,J2: %v", m)
	}

	opt, err := Optimal(app, env, Pipe, 0)
	if err != nil {
		t.Fatal(err)
	}
	oTime, err := CompletionTime(app, env, opt, Pipe)
	if err != nil {
		t.Fatal(err)
	}
	// Optimal: J1,J2 on the 9 path => 100/9 s ≈ 11.11 s.
	if math.Abs(oTime.Seconds()-100.0/9) > 1e-6 {
		t.Errorf("optimal completion = %v, want %.3fs", oTime, 100.0/9)
	}
	if m := opt.MachineOf; m[0] != 2 || m[1] != 3 || m[2] != 0 || m[3] != 1 {
		t.Errorf("optimal assignment = %v, want [2 3 0 1]", m)
	}
}

func TestGreedyColocatesHeavyPairs(t *testing.T) {
	// With CPU room, the heaviest pair should land on one machine
	// ("placing pairs of transferring tasks on the same machines").
	env := uniformEnv(3, units.Gbps(1), 4)
	app := &profile.Application{
		Name: "coloc",
		CPU:  []float64{1, 1, 1},
		TM:   profile.NewTrafficMatrix(3),
	}
	_ = app.TM.Set(0, 1, units.Gigabyte)
	_ = app.TM.Set(1, 2, 10*units.Megabyte)
	p, err := Greedy(app, env, Pipe)
	if err != nil {
		t.Fatal(err)
	}
	if p.MachineOf[0] != p.MachineOf[1] {
		t.Errorf("heavy pair split across machines: %v", p.MachineOf)
	}
	ct, err := CompletionTime(app, env, p, Pipe)
	if err != nil {
		t.Fatal(err)
	}
	// With CPU room everywhere greedy colocates all three tasks:
	// 1.01 GB over the 32 Gbit/s mem bus = 0.2525 s.
	if math.Abs(ct.Seconds()-0.2525) > 1e-6 {
		t.Errorf("completion = %v, want 0.2525s", ct)
	}
}

func TestGreedyRespectsCPU(t *testing.T) {
	env := uniformEnv(2, units.Gbps(1), 1)
	app := &profile.Application{
		Name: "tight",
		CPU:  []float64{1, 1},
		TM:   profile.NewTrafficMatrix(2),
	}
	_ = app.TM.Set(0, 1, units.Gigabyte)
	p, err := Greedy(app, env, Pipe)
	if err != nil {
		t.Fatal(err)
	}
	if p.MachineOf[0] == p.MachineOf[1] {
		t.Errorf("CPU does not allow colocation: %v", p.MachineOf)
	}
	if err := p.Validate(app, env); err != nil {
		t.Error(err)
	}
	// Infeasible app errors cleanly.
	big := &profile.Application{Name: "big", CPU: []float64{2, 2}, TM: profile.NewTrafficMatrix(2)}
	_ = big.TM.Set(0, 1, units.Megabyte)
	if _, err := Greedy(big, env, Pipe); err == nil {
		t.Error("infeasible CPU should fail")
	}
}

func TestGreedyHoseSpreadsSources(t *testing.T) {
	// One source sends to three sinks. Under the hose model the source's
	// egress is shared no matter where sinks go; but a second heavy
	// source would be placed to avoid sharing its hose. Verify hose-model
	// rate accounting: transfers out of the same machine reduce its
	// predicted rate.
	env := uniformEnv(4, units.Gbps(1), 1)
	app := &profile.Application{
		Name: "hose",
		CPU:  []float64{1, 1, 1, 1},
		TM:   profile.NewTrafficMatrix(4),
	}
	_ = app.TM.Set(0, 1, 100*units.Megabyte)
	_ = app.TM.Set(2, 3, 100*units.Megabyte)
	p, err := Greedy(app, env, Hose)
	if err != nil {
		t.Fatal(err)
	}
	// The two transfers must use different source machines.
	if p.MachineOf[0] == p.MachineOf[2] {
		t.Errorf("independent transfers share a hose: %v", p.MachineOf)
	}
	ct, err := CompletionTime(app, env, p, Hose)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ct.Seconds()-0.8) > 1e-6 {
		t.Errorf("hose completion = %v, want 0.8s", ct)
	}
}

func TestCompletionTimeHoseVsPipe(t *testing.T) {
	// Task 0 fans out to 1 and 2 from one machine: pipe sees parallel
	// transfers; hose serializes them on the egress.
	env := uniformEnv(3, units.Gbps(1), 1)
	app := &profile.Application{
		Name: "fanout",
		CPU:  []float64{1, 1, 1},
		TM:   profile.NewTrafficMatrix(3),
	}
	_ = app.TM.Set(0, 1, 100*units.Megabyte)
	_ = app.TM.Set(0, 2, 100*units.Megabyte)
	p := Placement{MachineOf: []int{0, 1, 2}}
	pipe, err := CompletionTime(app, env, p, Pipe)
	if err != nil {
		t.Fatal(err)
	}
	hose, err := CompletionTime(app, env, p, Hose)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pipe.Seconds()-0.8) > 1e-6 {
		t.Errorf("pipe completion = %v, want 0.8s", pipe)
	}
	if math.Abs(hose.Seconds()-1.6) > 1e-6 {
		t.Errorf("hose completion = %v, want 1.6s", hose)
	}
}

func TestBaselinesFeasibleAndDeterministic(t *testing.T) {
	env := uniformEnv(4, units.Gbps(1), 4)
	app := &profile.Application{
		Name: "app",
		CPU:  []float64{2, 2, 2, 2, 2, 2},
		TM:   profile.NewTrafficMatrix(6),
	}
	_ = app.TM.Set(0, 1, units.Gigabyte)
	_ = app.TM.Set(2, 3, units.Gigabyte)

	rr, err := RoundRobin(app, env)
	if err != nil {
		t.Fatal(err)
	}
	if err := rr.Validate(app, env); err != nil {
		t.Error(err)
	}
	want := []int{0, 1, 2, 3, 0, 1}
	for i, m := range rr.MachineOf {
		if m != want[i] {
			t.Errorf("round robin task %d on %d, want %d", i, m, want[i])
			break
		}
	}

	mm, err := MinMachines(app, env)
	if err != nil {
		t.Fatal(err)
	}
	if err := mm.Validate(app, env); err != nil {
		t.Error(err)
	}
	usedCount := map[int]bool{}
	for _, m := range mm.MachineOf {
		usedCount[m] = true
	}
	// 6 tasks x 2 cores on 4-core machines: 3 machines suffice.
	if len(usedCount) != 3 {
		t.Errorf("min machines used %d machines, want 3", len(usedCount))
	}

	rng := rand.New(rand.NewSource(1))
	r, err := Random(app, env, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Validate(app, env); err != nil {
		t.Error(err)
	}
}

func TestRandomRespectsCPUAlways(t *testing.T) {
	env := uniformEnv(3, units.Gbps(1), 2)
	app := &profile.Application{
		Name: "full",
		CPU:  []float64{2, 2, 2},
		TM:   profile.NewTrafficMatrix(3),
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		p, err := Random(app, env, rng)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Validate(app, env); err != nil {
			t.Fatal(err)
		}
		// Exactly one task per machine.
		seen := map[int]bool{}
		for _, m := range p.MachineOf {
			if seen[m] {
				t.Fatal("two 2-core tasks on one 2-core machine")
			}
			seen[m] = true
		}
	}
}

func TestEnvironmentValidation(t *testing.T) {
	env := uniformEnv(2, units.Gbps(1), 4)
	env.Rates[0][1] = 0
	if err := env.Validate(); err == nil {
		t.Error("zero rate should fail")
	}
	env2 := uniformEnv(2, units.Gbps(1), 4)
	env2.CPUCap = []float64{1}
	if err := env2.Validate(); err == nil {
		t.Error("CPU shape mismatch should fail")
	}
	env3 := &Environment{}
	if err := env3.Validate(); err == nil {
		t.Error("empty environment should fail")
	}
	env4 := uniformEnv(2, units.Gbps(1), 4)
	env4.Cross = [][]float64{{0}}
	if err := env4.Validate(); err == nil {
		t.Error("cross shape mismatch should fail")
	}
}

func TestPlacementValidate(t *testing.T) {
	env := uniformEnv(2, units.Gbps(1), 1)
	app := &profile.Application{Name: "a", CPU: []float64{1, 1}, TM: profile.NewTrafficMatrix(2)}
	if err := (Placement{MachineOf: []int{0}}).Validate(app, env); err == nil {
		t.Error("short placement should fail")
	}
	if err := (Placement{MachineOf: []int{0, 5}}).Validate(app, env); err == nil {
		t.Error("bad machine index should fail")
	}
	if err := (Placement{MachineOf: []int{0, 0}}).Validate(app, env); err == nil {
		t.Error("CPU violation should fail")
	}
}

func TestCrossTrafficSteersGreedy(t *testing.T) {
	// Two equal-rate paths, but one carries cross traffic c=3: greedy
	// must choose the clean one.
	env := uniformEnv(4, units.Gbps(1), 1)
	env.Cross = make([][]float64, 4)
	for i := range env.Cross {
		env.Cross[i] = make([]float64, 4)
	}
	// Poison every path out of machine 0.
	for n := 1; n < 4; n++ {
		env.Cross[0][n] = 3
	}
	app := &profile.Application{
		Name: "cross",
		CPU:  []float64{1, 1},
		TM:   profile.NewTrafficMatrix(2),
	}
	_ = app.TM.Set(0, 1, 100*units.Megabyte)
	p, err := Greedy(app, env, Pipe)
	if err != nil {
		t.Fatal(err)
	}
	if p.MachineOf[0] == 0 {
		t.Errorf("greedy placed the sender on the congested machine: %v", p.MachineOf)
	}
}

func TestZeroTrafficApp(t *testing.T) {
	env := uniformEnv(3, units.Gbps(1), 4)
	app := &profile.Application{
		Name: "quiet",
		CPU:  []float64{1, 1, 1, 1},
		TM:   profile.NewTrafficMatrix(4),
	}
	p, err := Greedy(app, env, Pipe)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(app, env); err != nil {
		t.Error(err)
	}
	ct, err := CompletionTime(app, env, p, Pipe)
	if err != nil {
		t.Fatal(err)
	}
	if ct != 0 {
		t.Errorf("zero-traffic completion = %v, want 0", ct)
	}
}

func TestModelString(t *testing.T) {
	if Pipe.String() != "pipe" || Hose.String() != "hose" || Model(9).String() != "model(9)" {
		t.Error("model names wrong")
	}
}

func TestParseModel(t *testing.T) {
	for _, tc := range []struct {
		name string
		want Model
		ok   bool
	}{
		{"hose", Hose, true},
		{"pipe", Pipe, true},
		{"pipx", 0, false}, // a typo must not silently mean hose
		{"", 0, false},
		{"HOSE", 0, false},
	} {
		got, err := ParseModel(tc.name)
		if (err == nil) != tc.ok || (tc.ok && got != tc.want) {
			t.Errorf("ParseModel(%q) = %v, %v; want %v (ok=%v)", tc.name, got, err, tc.want, tc.ok)
		}
	}
}

func TestOptimalNodeBudget(t *testing.T) {
	env := uniformEnv(6, units.Gbps(1), 4)
	app := randomApp(rand.New(rand.NewSource(3)), 8)
	_, err := Optimal(app, env, Pipe, 5)
	if err == nil {
		t.Fatal("tiny node budget should fail")
	}
	// Budget exhaustion must be distinguishable from real failures so
	// callers can fall back to heuristics only in the former case.
	if !errors.Is(err, ErrSearchBudget) {
		t.Errorf("budget error %v does not match ErrSearchBudget", err)
	}
}

// randomApp generates a small random application for comparisons.
func randomApp(rng *rand.Rand, tasks int) *profile.Application {
	app := &profile.Application{
		Name: "rand",
		CPU:  make([]float64, tasks),
		TM:   profile.NewTrafficMatrix(tasks),
	}
	for i := range app.CPU {
		app.CPU[i] = 0.5 + float64(rng.Intn(4))*0.5
	}
	for i := 0; i < tasks; i++ {
		for j := 0; j < tasks; j++ {
			if i != j && rng.Float64() < 0.4 {
				_ = app.TM.Set(i, j, units.ByteSize(1+rng.Intn(500))*units.Megabyte)
			}
		}
	}
	return app
}

func randomEnv(rng *rand.Rand, machines int) *Environment {
	env := uniformEnv(machines, units.Gbps(1), 4)
	for i := 0; i < machines; i++ {
		for j := 0; j < machines; j++ {
			if i != j {
				env.Rates[i][j] = units.Mbps(300 + 900*rng.Float64())
			}
		}
	}
	return env
}

func TestGreedyNeverWorseThanRandomOnAverage(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var gTotal, rTotal float64
	for trial := 0; trial < 40; trial++ {
		app := randomApp(rng, 5+rng.Intn(4))
		env := randomEnv(rng, 5)
		g, err := Greedy(app, env, Pipe)
		if err != nil {
			t.Fatal(err)
		}
		gt, err := CompletionTime(app, env, g, Pipe)
		if err != nil {
			t.Fatal(err)
		}
		r, err := Random(app, env, rng)
		if err != nil {
			t.Fatal(err)
		}
		rt, err := CompletionTime(app, env, r, Pipe)
		if err != nil {
			t.Fatal(err)
		}
		gTotal += gt.Seconds()
		rTotal += rt.Seconds()
	}
	if gTotal >= rTotal {
		t.Errorf("greedy total %v not better than random %v", gTotal, rTotal)
	}
}

func TestOptimalNeverWorseThanGreedyProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 25; trial++ {
		app := randomApp(rng, 4+rng.Intn(3))
		env := randomEnv(rng, 4)
		for _, model := range []Model{Pipe, Hose} {
			g, err := Greedy(app, env, model)
			if err != nil {
				t.Fatal(err)
			}
			gt, err := CompletionTime(app, env, g, model)
			if err != nil {
				t.Fatal(err)
			}
			ot, err := OptimalTime(app, env, model, 0)
			if err != nil {
				t.Fatal(err)
			}
			if ot > gt+time.Nanosecond {
				t.Fatalf("trial %d model %v: optimal %v worse than greedy %v", trial, model, ot, gt)
			}
		}
	}
}
