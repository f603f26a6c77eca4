package sequence

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"choreo/internal/core"
	"choreo/internal/place"
	"choreo/internal/topology"
	"choreo/internal/workload"
)

func simCloud(t *testing.T, seed int64, vms int) *core.Choreo {
	t.Helper()
	c, err := core.NewSimulated(topology.EC22013(), seed, vms, core.Options{Model: place.Hose})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestParamsValidate(t *testing.T) {
	good := Params{Apps: 4, Interarrival: 5 * time.Second}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []Params{
		{Apps: 0, Interarrival: time.Second},
		{Apps: 4, Interarrival: 0},
		{Apps: 4, Interarrival: -time.Second},
		{Apps: 4, Interarrival: time.Second, Reeval: -time.Second},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("Params %+v should be invalid", bad)
		}
	}
}

// TestRunEventRecords drives one cell end to end and checks the
// flattened per-application records are internally consistent with
// core.RunSequence's outcome.
func TestRunEventRecords(t *testing.T) {
	p := Params{Apps: 4, Interarrival: 4 * time.Second, Reeval: 5 * time.Second}
	cfg := workload.Config{MinTasks: 3, MaxTasks: 5, MeanBytes: 300 * 1e6}
	rng := rand.New(rand.NewSource(3))
	seq, err := Generate(rng, cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != 4 {
		t.Fatalf("generated %d apps, want 4", len(seq))
	}

	measured := simCloud(t, 17, 6)
	env, err := measured.MeasureEnvironment()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(simCloud(t, 17, 6), seq, core.AlgChoreo, env.Clone(), p)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Apps) != 4 {
		t.Fatalf("got %d event records, want 4", len(res.Apps))
	}
	var totalRunning float64
	migrations := 0
	for i, ev := range res.Apps {
		if ev.Name != seq[i].Name || ev.Tasks != seq[i].Tasks() {
			t.Errorf("event %d is %s/%d tasks, app is %s/%d", i, ev.Name, ev.Tasks, seq[i].Name, seq[i].Tasks())
		}
		if ev.StartSeconds != seq[i].Start.Seconds() {
			t.Errorf("event %d start %.3fs, app arrives at %.3fs", i, ev.StartSeconds, seq[i].Start.Seconds())
		}
		if ev.RunningSeconds < 0 {
			t.Errorf("event %d negative running time", i)
		}
		totalRunning += ev.RunningSeconds
		migrations += ev.Migrations
	}
	if math.Abs(totalRunning-res.TotalRunningSeconds) > 1e-9 {
		t.Errorf("per-app running times sum to %.9fs, total says %.9fs", totalRunning, res.TotalRunningSeconds)
	}
	if migrations != res.Migrations {
		t.Errorf("per-app migrations sum to %d, total says %d", migrations, res.Migrations)
	}
	if res.PlaceLatency <= 0 {
		t.Error("no wall-clock placement latency recorded")
	}

	// Re-evaluation disabled: never migrates.
	p.Reeval = 0
	still, err := Run(simCloud(t, 17, 6), seq, core.AlgChoreo, env.Clone(), p)
	if err != nil {
		t.Fatal(err)
	}
	if still.Migrations != 0 {
		t.Errorf("reeval 0 migrated %d times", still.Migrations)
	}
	for _, ev := range still.Apps {
		if ev.Migrations != 0 {
			t.Errorf("reeval 0 recorded a per-app migration: %+v", ev)
		}
	}
}
