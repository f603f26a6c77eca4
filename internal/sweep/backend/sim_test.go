package backend_test

import (
	"context"
	"math/rand"
	"testing"

	"choreo/internal/core"
	"choreo/internal/place"
	"choreo/internal/sweep/backend"
	"choreo/internal/topology"
	"choreo/internal/units"
	"choreo/internal/workload"
)

// maxExecuteAllocs bounds the average allocations of one warmed
// Sim.Execute. It makes three: the completion callback and the two
// counters it updates. A garbage collection may empty the orchestrator
// pool, and the refill (an orchestrator, its simulator, rng and
// scratch) adds about fifteen allocations to one run, a fraction of one
// to the average. A simulator built per execution makes it 24.
const maxExecuteAllocs = 5

// TestSimExecuteReusesScratch executes one placement on a fixed cell
// again and again: after the first run, an execution must reuse a
// released simulator rather than build one, and the completion time
// must not change.
func TestSimExecuteReusesScratch(t *testing.T) {
	cloud, err := core.NewCloud(topology.EC22013(), 5, 8)
	if err != nil {
		t.Fatal(err)
	}
	app, err := workload.Generate(rand.New(rand.NewSource(1)), workload.Config{
		MinTasks: 6, MaxTasks: 6, MeanBytes: 100 * units.Megabyte, Patterns: []workload.Pattern{workload.Shuffle},
	})
	if err != nil {
		t.Fatal(err)
	}
	env := &place.Environment{Rates: make([][]units.Rate, 8), CPUCap: make([]float64, 8)}
	for i := range env.Rates {
		env.Rates[i] = make([]units.Rate, 8)
		for j := range env.Rates[i] {
			env.Rates[i][j] = units.Gbps(1)
		}
		env.CPUCap[i] = 4
	}
	p, err := place.RoundRobin(app, env)
	if err != nil {
		t.Fatal(err)
	}
	sim, ctx := backend.NewSim(), context.Background()
	cell := backend.Cell{Topology: "ec2-2013", VMs: 8, Seed: 5, Cloud: cloud, Transfers: app.TM.Transfers()}
	want, err := sim.Execute(ctx, cell, app, env, p, place.Hose)
	if err != nil {
		t.Fatal(err)
	}
	if want.Completion <= 0 {
		t.Fatalf("completion %v: the placement moves no bytes between VMs", want.Completion)
	}
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	allocs := testing.AllocsPerRun(100, func() {
		got, err := sim.Execute(ctx, cell, app, env, p, place.Hose)
		if err != nil || got.Completion != want.Completion {
			t.Fatalf("execution gave %+v (%v), the first gave %+v", got, err, want)
		}
	})
	if allocs > maxExecuteAllocs {
		t.Errorf("Sim.Execute allocates %.1f times per run, want at most %d", allocs, maxExecuteAllocs)
	}
}
