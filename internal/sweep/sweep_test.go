package sweep

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"

	"choreo/internal/profile"
	"choreo/internal/units"
	"choreo/internal/workload"
)

func TestExpandOrderAndCount(t *testing.T) {
	g := Default()
	scenarios, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	want := len(g.Topologies) * len(g.Workloads) * len(g.VMCounts) * len(g.MeanSizes) *
		len(g.Algorithms) * len(g.Seeds)
	if want < 24 {
		t.Fatalf("default grid has %d scenarios, want >= 24", want)
	}
	if len(g.VMCounts) < 2 || len(g.MeanSizes) < 2 {
		t.Fatalf("default grid should sweep >= 2 VM counts and >= 2 transfer sizes, got %v / %v",
			g.VMCounts, g.MeanSizes)
	}
	if len(scenarios) != want {
		t.Fatalf("expanded %d scenarios, want %d", len(scenarios), want)
	}
	for i, sc := range scenarios {
		if sc.Index != i {
			t.Fatalf("scenario %d carries index %d", i, sc.Index)
		}
	}
	// Seed varies fastest, topology slowest.
	if scenarios[0].Seed == scenarios[1].Seed {
		t.Errorf("seed should vary fastest: %+v %+v", scenarios[0], scenarios[1])
	}
	if scenarios[0].Topology.Name != scenarios[1].Topology.Name {
		t.Errorf("topology should vary slowest")
	}
	last := scenarios[len(scenarios)-1]
	if last.Topology.Name != g.Topologies[len(g.Topologies)-1].Name {
		t.Errorf("last scenario topology = %q, want %q", last.Topology.Name, g.Topologies[len(g.Topologies)-1].Name)
	}
}

func TestExpandValidates(t *testing.T) {
	cases := []func(*Grid){
		func(g *Grid) { g.Topologies = nil },
		func(g *Grid) { g.Workloads = nil },
		func(g *Grid) { g.Algorithms = nil },
		func(g *Grid) { g.Seeds = nil },
		func(g *Grid) { g.VMCounts = []int{1} },
		func(g *Grid) { g.MeanSizes = []units.ByteSize{0} },
		func(g *Grid) { g.MinTasks = 5; g.MaxTasks = 3 },
		func(g *Grid) { g.Workloads = append(g.Workloads, g.Workloads[0]) },
		// Duplicate topologies/algorithms would make scenario identities
		// ambiguous (shard merge and resume match results by identity).
		func(g *Grid) { g.Topologies = append(g.Topologies, g.Topologies[0]) },
		func(g *Grid) { g.Algorithms = append(g.Algorithms, g.Algorithms[0]) },
		func(g *Grid) { g.Seeds = []int64{1, 1} },
		func(g *Grid) { g.VMCounts = []int{8, 8} },
		func(g *Grid) { g.MeanSizes = []units.ByteSize{64, 64} },
	}
	for i, mutate := range cases {
		g := Default()
		mutate(&g)
		if _, err := g.Expand(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestCloudSeedDependsOnCellNotAlgorithm(t *testing.T) {
	base := Scenario{Topology: Topology{Name: "ec2-2013"}, Workload: Workload{Name: "shuffle"}, Seed: 1}
	other := base
	otherAlg, _ := AlgorithmByName("random")
	other.Algorithm = otherAlg
	if base.cloudSeed() != other.cloudSeed() {
		t.Error("cloud seed must not depend on the algorithm")
	}
	diffSeed := base
	diffSeed.Seed = 2
	if base.cloudSeed() == diffSeed.cloudSeed() {
		t.Error("cloud seed must depend on the grid seed")
	}
	diffTopo := base
	diffTopo.Topology.Name = "rackspace"
	if base.cloudSeed() == diffTopo.cloudSeed() {
		t.Error("cloud seed must depend on the topology")
	}
	diffWl := base
	diffWl.Workload.Name = "uniform"
	if base.cloudSeed() == diffWl.cloudSeed() {
		t.Error("cloud seed must depend on the workload")
	}
	diffVMs := base
	diffVMs.VMs = base.VMs + 2
	if base.cloudSeed() == diffVMs.cloudSeed() {
		t.Error("cloud seed must depend on the VM count")
	}
	diffSize := base
	diffSize.MeanBytes = base.MeanBytes + 1
	if base.cloudSeed() == diffSize.cloudSeed() {
		t.Error("cloud seed must depend on the mean transfer size")
	}
}

func TestByNameErrors(t *testing.T) {
	if _, err := TopologyByName("nope"); err == nil || !strings.Contains(err.Error(), "ec2-2013") {
		t.Errorf("TopologyByName should list valid names, got %v", err)
	}
	// Parameterized profiles must reject shapes their builders cannot
	// produce at name-resolution time, not mid-sweep.
	for _, bad := range []string{"fattree-3", "fattree-0", "jellyfish-3", "jellyfish-1"} {
		if _, err := TopologyByName(bad); err == nil {
			t.Errorf("TopologyByName(%q) should fail", bad)
		}
	}
	for _, good := range []string{"fattree", "fattree-6", "jellyfish", "jellyfish-4"} {
		if _, err := TopologyByName(good); err != nil {
			t.Errorf("TopologyByName(%q): %v", good, err)
		}
	}
	if _, err := WorkloadByName("nope"); err == nil || !strings.Contains(err.Error(), "shuffle") {
		t.Errorf("WorkloadByName should list valid names, got %v", err)
	}
	if _, err := AlgorithmByName("nope"); err == nil || !strings.Contains(err.Error(), "round-robin") {
		t.Errorf("AlgorithmByName should list valid names, got %v", err)
	}
	for _, name := range TopologyNames() {
		if _, err := TopologyByName(name); err != nil {
			t.Errorf("TopologyByName(%q): %v", name, err)
		}
	}
	for _, name := range WorkloadNames() {
		if _, err := WorkloadByName(name); err != nil {
			t.Errorf("WorkloadByName(%q): %v", name, err)
		}
	}
	for _, name := range AlgorithmNames() {
		if _, err := AlgorithmByName(name); err != nil {
			t.Errorf("AlgorithmByName(%q): %v", name, err)
		}
	}
}

func TestParseSeeds(t *testing.T) {
	seeds, err := ParseSeeds("3", 10)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(seeds) != "[10 11 12]" {
		t.Errorf("count spec: got %v", seeds)
	}
	seeds, err = ParseSeeds("7, 3,11", 0)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(seeds) != "[3 7 11]" {
		t.Errorf("list spec: got %v", seeds)
	}
	for _, bad := range []string{"", "x", "0", "-2", "1,x", "4x8", "1,2O"} {
		if _, err := ParseSeeds(bad, 1); err == nil {
			t.Errorf("ParseSeeds(%q) should fail", bad)
		}
	}
}

func TestParallelCoversAllIndicesAnyWorkerCount(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 16, 100} {
		var calls [37]int32
		err := Parallel(len(calls), workers, func(i int) error {
			atomic.AddInt32(&calls[i], 1)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range calls {
			if c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestParallelReturnsSmallestIndexError(t *testing.T) {
	wantErr := errors.New("boom-5")
	err := Parallel(20, 8, func(i int) error {
		switch i {
		case 5:
			return wantErr
		case 11:
			return errors.New("boom-11")
		}
		return nil
	})
	if err != wantErr {
		t.Errorf("got %v, want the smallest-index error", err)
	}
	if err := Parallel(0, 4, func(int) error { return errors.New("never") }); err != nil {
		t.Errorf("empty Parallel returned %v", err)
	}
}

// TestFanOutRunsEveryTaskOnce: every build runs once, every task a
// build returns runs once after it, for any worker count; a build that
// returns many tasks spreads them over the pool.
func TestFanOutRunsEveryTaskOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 16} {
		var builds [5]int32
		var runs [5][7]int32
		err := fanOut(len(builds), workers, func(k int) ([][2]int, error) {
			atomic.AddInt32(&builds[k], 1)
			tasks := make([][2]int, len(runs[k]))
			for j := range tasks {
				tasks[j] = [2]int{k, j}
			}
			return tasks, nil
		}, func(t [2]int) error {
			if atomic.LoadInt32(&builds[t[0]]) != 1 {
				return fmt.Errorf("task %v ran before its build", t)
			}
			atomic.AddInt32(&runs[t[0]][t[1]], 1)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for k := range runs {
			for j, c := range runs[k] {
				if builds[k] != 1 || c != 1 {
					t.Fatalf("workers=%d: build %d ran %d times, its task %d %d times", workers, k, builds[k], j, c)
				}
			}
		}
	}
}

// TestFanOutReturnsSmallestBuildError: the error returned is that of the
// smallest failing build, a failing task counting under its build.
func TestFanOutReturnsSmallestBuildError(t *testing.T) {
	wantErr := errors.New("task of build 2")
	err := fanOut(6, 4, func(k int) ([]int, error) {
		if k == 4 {
			return nil, errors.New("build 4")
		}
		return []int{k}, nil
	}, func(k int) error {
		if k == 2 {
			return wantErr
		}
		return nil
	})
	if err != wantErr {
		t.Errorf("got %v, want the smallest build's error", err)
	}
	if err := fanOut(0, 4, func(int) ([]int, error) { return nil, errors.New("never") }, nil); err != nil {
		t.Errorf("empty fanOut returned %v", err)
	}
}

func TestTraceWorkloadRoundTrip(t *testing.T) {
	g := tinyGrid()
	g.Apps = 0 // whole trace
	g.VMs = 8  // headroom for both replayed applications' CPU demands

	// Record a tiny trace from the generator, then sweep over it.
	cfg := workload.Config{MinTasks: 3, MaxTasks: 4, MeanBytes: 10 * 1 << 20}
	rng := rand.New(rand.NewSource(99))
	var apps []*profile.Application
	for i := 0; i < 2; i++ {
		app, err := workload.Generate(rng, cfg)
		if err != nil {
			t.Fatal(err)
		}
		apps = append(apps, app)
	}
	tr, err := workload.NewTrace("unit", apps)
	if err != nil {
		t.Fatal(err)
	}
	g.Workloads = []Workload{TraceWorkload(tr)}
	if !strings.HasPrefix(g.Workloads[0].Name, "trace:") {
		t.Fatalf("trace workload name = %q", g.Workloads[0].Name)
	}
	// Traces replay recorded transfers: the swept transfer-size dimension
	// must not multiply (or perturb) their cells.
	g.MeanSizes = []units.ByteSize{8 * units.Megabyte, 32 * units.Megabyte}
	rep, err := Run(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Scenarios) != 1 {
		t.Fatalf("trace workload crossed the size dimension: %d scenarios, want 1", len(rep.Scenarios))
	}
	wantTasks := 0
	for _, app := range apps {
		wantTasks += app.Tasks()
	}
	for _, s := range rep.Scenarios {
		if !strings.HasPrefix(s.Workload, "trace:") {
			t.Errorf("scenario workload = %q", s.Workload)
		}
		if s.MeanBytes != 0 {
			t.Errorf("trace scenario reports meanBytes %d, want 0 (not applicable)", s.MeanBytes)
		}
		if s.Tasks != wantTasks {
			t.Errorf("Apps=0 should replay the whole trace: %d tasks, want %d", s.Tasks, wantTasks)
		}
	}
}

// tinyGrid is the cheapest runnable grid, shared by runtime tests.
func tinyGrid() Grid {
	g := Grid{
		Seeds:    []int64{1},
		VMs:      4,
		MinTasks: 3,
		MaxTasks: 4,
	}
	tp, _ := TopologyByName("tworack")
	g.Topologies = []Topology{tp}
	wl, _ := WorkloadByName("skewed")
	g.Workloads = []Workload{wl}
	alg, _ := AlgorithmByName("choreo")
	g.Algorithms = []Algorithm{alg}
	return g
}
