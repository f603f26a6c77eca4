package sweep

import (
	"context"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"choreo/internal/core"
	"choreo/internal/place"
	"choreo/internal/sweep/sequence"
	"choreo/internal/units"
	"choreo/internal/workload"
)

// cloudTopologies are the fabric families the shared-cloud tests cover:
// provider trees, a fat tree, a jellyfish mesh and an ns-2 tree.
var cloudTopologies = []string{"ec2-2013", "rackspace", "fattree-4", "jellyfish-12", "tworack"}

// cloudGrid is a one-topology grid over two seeds, expanded.
func cloudGrid(t *testing.T, topo string, g Grid) (Grid, []Scenario) {
	t.Helper()
	tp, err := TopologyByName(topo)
	if err != nil {
		t.Fatal(err)
	}
	wl, err := WorkloadByName("shuffle")
	if err != nil {
		t.Fatal(err)
	}
	g.Topologies, g.Workloads = []Topology{tp}, []Workload{wl}
	g.Seeds, g.VMCounts, g.MinTasks, g.MaxTasks = []int64{1, 2}, []int{6}, 3, 6
	g.MeanSizes = []units.ByteSize{64 * units.Megabyte}
	scs, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	return g, scs
}

// rebuiltCloud is the cell's cloud as the sim backend built it before
// cells kept one: a fresh orchestrator on a fresh fabric of an unshared
// profile, from the cell seed.
func rebuiltCloud(t *testing.T, sc Scenario, opts core.Options) *core.Choreo {
	t.Helper()
	plain, err := topologyByName(sc.Topology.Name)
	if err != nil {
		t.Fatal(err)
	}
	orch, err := core.NewSimulated(plain.Profile, sc.cloudSeed(), sc.VMs, opts)
	if err != nil {
		t.Fatal(err)
	}
	return orch
}

// TestCellsShareTopologyFabric: every cell of one grid topology builds
// its cloud on the same fabric; cells of different topologies do not.
func TestCellsShareTopologyFabric(t *testing.T) {
	g, scs := cloudGrid(t, "fattree-4", Grid{Algorithms: []core.Algorithm{core.AlgChoreo}})
	other, _ := TopologyByName("tworack")
	g.Topologies = append(g.Topologies, other)
	if scs, _ = g.Expand(); len(scs) != 4 {
		t.Fatalf("expanded %d scenarios, want 4", len(scs))
	}
	ro := newRunObs(nil)
	var cells []*cell
	for _, sc := range scs {
		c, err := g.buildCell(context.Background(), sc, nil, ro)
		if err != nil {
			t.Fatal(err)
		}
		if c.cloud == nil {
			t.Fatalf("%s seed %d: sim cell carries no cloud", sc.Topology.Name, sc.Seed)
		}
		cells = append(cells, c)
	}
	for i, sc := range scs {
		for j := range scs {
			same := scs[j].Topology.Name == sc.Topology.Name
			if shared := cells[i].cloud.Topo == cells[j].cloud.Topo; shared != same {
				t.Errorf("cells %d (%s) and %d (%s): fabric shared = %v", i, sc.Topology.Name, j, scs[j].Topology.Name, shared)
			}
		}
		if i > 0 && cells[i].cloud == cells[i-1].cloud {
			t.Errorf("cells %d and %d share one cloud", i-1, i)
		}
	}
}

// TestSharedCloudExecuteMatchesRebuild pins execution on the cell's one
// cloud to the rebuild-per-execution path it replaced: the measurement
// and, for random placements run concurrently on the shared cloud, every
// completion time is identical to a freshly rebuilt cloud's.
func TestSharedCloudExecuteMatchesRebuild(t *testing.T) {
	ctx := context.Background()
	for _, topo := range cloudTopologies {
		g, scs := cloudGrid(t, topo, Grid{Algorithms: []core.Algorithm{core.AlgRandom}})
		for _, sc := range scs {
			c, err := g.buildCell(ctx, sc, nil, newRunObs(nil))
			if err != nil {
				t.Fatal(err)
			}
			want, err := rebuiltCloud(t, sc, core.Options{}).MeasureEnvironment()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(c.env, want) {
				t.Fatalf("%s seed %d: measurement on the cell's cloud differs from a rebuilt cloud's", topo, sc.Seed)
			}
			rng := rand.New(rand.NewSource(sc.Seed))
			var wg sync.WaitGroup
			for k := 0; k < 8; k++ {
				p, err := place.Random(c.app, c.env, rng)
				if err != nil {
					t.Fatal(err)
				}
				wantD, err := rebuiltCloud(t, sc, core.Options{}).Execute(c.app, p)
				if err != nil {
					t.Fatal(err)
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					got, err := g.backend().Execute(ctx, g.backendCell(sc, c), c.app, c.env, p, g.Model)
					if err != nil {
						t.Error(err)
						return
					}
					if got.Completion != wantD {
						t.Errorf("%s seed %d placement %v: completion %v on the cell's cloud, %v rebuilt",
							topo, sc.Seed, p.MachineOf, got.Completion, wantD)
					}
				}()
			}
			wg.Wait()
		}
	}
}

// TestSharedCloudSequenceMatchesRebuild does the same for sequence
// cells: each run of a sequence grid — the measurement shared
// across interarrivals, each run on a fresh simulator over the cell's
// cloud — matches sequence.Run on a freshly rebuilt cloud, measured on
// another.
func TestSharedCloudSequenceMatchesRebuild(t *testing.T) {
	algs := []core.Algorithm{core.AlgChoreo, core.AlgRandom}
	for _, topo := range cloudTopologies {
		g, scs := cloudGrid(t, topo, Grid{
			Mode:          Sequence,
			Algorithms:    algs,
			Interarrivals: []time.Duration{3 * time.Second, 10 * time.Second},
			SeqApps:       []int{5},
			Reevals:       []time.Duration{4 * time.Second},
		})
		g.Seeds = g.Seeds[:1]
		if scs, _ = g.Expand(); len(scs) != 4 {
			t.Fatalf("expanded %d scenarios, want 4", len(scs))
		}
		rep, err := RunCollect(g, RunOptions{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		for i, sc := range scs {
			seq, err := sequence.Generate(rand.New(rand.NewSource(sc.cloudSeed()+2)), workload.Config{
				MinTasks: g.MinTasks, MaxTasks: g.MaxTasks, MeanBytes: units.ByteSize(sc.MeanBytes), Patterns: sc.Workload.Patterns,
			}, g.sequenceParams(sc))
			if err != nil {
				t.Fatal(err)
			}
			env, err := rebuiltCloud(t, sc, core.Options{Model: g.Model}).MeasureEnvironment()
			if err != nil {
				t.Fatal(err)
			}
			want, err := sequence.Run(rebuiltCloud(t, sc, core.Options{Model: g.Model}), seq, sc.Algorithm, env, g.sequenceParams(sc))
			if err != nil {
				t.Fatal(err)
			}
			got := rep.Scenarios[i]
			if got.CompletionSeconds != want.TotalRunningSeconds || got.Migrations != want.Migrations ||
				!reflect.DeepEqual(got.Apps, want.Apps) {
				t.Errorf("%s %s interarrival %v: run on the cell's cloud (%v s, %d migrations) differs from a rebuilt cloud's (%v s, %d)",
					topo, sc.Algorithm.Name(), time.Duration(sc.InterarrivalNs), got.CompletionSeconds, got.Migrations,
					want.TotalRunningSeconds, want.Migrations)
			}
		}
	}
}
