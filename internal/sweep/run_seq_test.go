package sweep

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"choreo/internal/profile"
	"choreo/internal/units"
	"choreo/internal/workload"
)

// unitTrace records two generated applications as a replayable trace.
func unitTrace(t *testing.T) *workload.Trace {
	t.Helper()
	cfg := workload.Config{MinTasks: 3, MaxTasks: 4, MeanBytes: 10 * units.Megabyte}
	rng := rand.New(rand.NewSource(77))
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
	return tr
}

// tinySeqGrid is the cheapest sequence grid that still mixes cells with
// and without migration (reeval 0 vs 4s) and sweeps the arrival rate:
// 1 topology x 1 workload x 2 interarrivals x 2 reevals x 2 algorithms
// x 1 seed = 8 scenarios over 2 unique cells.
func tinySeqGrid() Grid {
	g := Grid{
		Mode:          Sequence,
		Seeds:         []int64{1},
		VMCounts:      []int{4},
		MinTasks:      3,
		MaxTasks:      4,
		MeanSizes:     []units.ByteSize{100 * units.Megabyte},
		Interarrivals: []time.Duration{2 * time.Second, 8 * time.Second},
		SeqApps:       []int{4},
		Reevals:       []time.Duration{0, 4 * time.Second},
	}
	tp, _ := TopologyByName("tworack")
	g.Topologies = []Topology{tp}
	wl, _ := WorkloadByName("shuffle")
	g.Workloads = []Workload{wl}
	for _, name := range []string{"choreo", "random"} {
		alg, _ := AlgorithmByName(name)
		g.Algorithms = append(g.Algorithms, alg)
	}
	return g
}

// TestSequenceStreamDeterministic extends the engine's core guarantee to
// sequence cells: byte-identical JSONL across worker counts, even where
// migrations stop and restart flows mid-simulation. Two seeds make two
// cell groups, so 8 workers build groups and run scenarios at once.
func TestSequenceStreamDeterministic(t *testing.T) {
	g := tinySeqGrid()
	g.Seeds = []int64{1, 2}
	base := streamGrid(t, g, 1)
	if got := streamGrid(t, g, 8); got != base {
		t.Fatal("sequence stream differs between -workers 1 and -workers 8")
	}
	lines := strings.Split(strings.TrimSpace(base), "\n")
	if want := 16 + 2; len(lines) != want {
		t.Fatalf("stream has %d lines, want header + 16 scenarios + aggregates", len(lines))
	}
	if !strings.Contains(lines[0], `"mode":"sequence"`) {
		t.Errorf("grid echo does not declare sequence mode: %s", lines[0])
	}
}

// TestSequenceResultShape checks the per-scenario event records: every
// sequence result carries its swept coordinates, one event per arrived
// application, a total equal to the per-app sum, and no snapshot-only
// optimal reference.
func TestSequenceResultShape(t *testing.T) {
	g := tinySeqGrid()
	rep, err := RunCollect(g, RunOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Scenarios) != 8 {
		t.Fatalf("ran %d scenarios, want 8", len(rep.Scenarios))
	}
	if rep.Grid.Mode != "sequence" {
		t.Errorf("grid echo mode = %q", rep.Grid.Mode)
	}
	for _, s := range rep.Scenarios {
		if s.SeqApps != 4 || len(s.Apps) != 4 {
			t.Fatalf("scenario %s/%s: seqApps %d with %d event records, want 4/4", s.Algorithm, s.Workload, s.SeqApps, len(s.Apps))
		}
		if s.InterarrivalNs != int64(2*time.Second) && s.InterarrivalNs != int64(8*time.Second) {
			t.Errorf("unexpected interarrival %d", s.InterarrivalNs)
		}
		if s.OptimalSeconds != nil || s.Slowdown != nil {
			t.Errorf("sequence scenario carries a snapshot optimal reference")
		}
		if s.PlaceLatency <= 0 {
			t.Errorf("scenario %s: no wall-clock placement latency recorded", s.Algorithm)
		}
		var total float64
		migrations := 0
		for i, ev := range s.Apps {
			if ev.RunningSeconds < 0 || ev.StartSeconds < 0 {
				t.Errorf("scenario %s app %d: negative times %+v", s.Algorithm, i, ev)
			}
			if i > 0 && ev.StartSeconds < s.Apps[i-1].StartSeconds {
				t.Errorf("scenario %s: events out of arrival order", s.Algorithm)
			}
			total += ev.RunningSeconds
			migrations += ev.Migrations
		}
		if math.Abs(total-s.CompletionSeconds) > 1e-9 {
			t.Errorf("scenario %s: per-app sum %.9f != total running %.9f", s.Algorithm, total, s.CompletionSeconds)
		}
		if migrations != s.Migrations {
			t.Errorf("scenario %s: per-app migrations %d != total %d", s.Algorithm, migrations, s.Migrations)
		}
		if s.ReevalNs == 0 && s.Migrations != 0 {
			t.Errorf("scenario %s migrated %d times with re-evaluation disabled", s.Algorithm, s.Migrations)
		}
	}
	// Each cell is built once and shared across its 2 reevals x 2
	// algorithms: 2 unique cells (interarrival x seed), 8 scenarios.
	if rep.Cache.Misses != 2 {
		t.Errorf("cache built %d sequence cells, want 2", rep.Cache.Misses)
	}
	if rep.Cache.Hits != 6 {
		t.Errorf("cache hits = %d, want 6", rep.Cache.Hits)
	}
	// The 2 cells differ only in interarrival, so they share a
	// bit-identical cloud — which their cell group measures exactly
	// once.
	if rep.Cache.MeasurementMisses != 1 {
		t.Errorf("measured %d clouds, want 1 (cells differing only in interarrival share the measurement)", rep.Cache.MeasurementMisses)
	}
	if rep.Cache.MeasurementHits != 1 {
		t.Errorf("measurement hits = %d, want 1", rep.Cache.MeasurementHits)
	}
	// Migration counts aggregate per algorithm for sequence grids.
	for _, a := range rep.Algorithms {
		if a.Migrations == nil {
			t.Errorf("%s aggregate has no migration summary", a.Algorithm)
		}
		if a.Slowdown != nil {
			t.Errorf("%s aggregate has a slowdown summary in sequence mode", a.Algorithm)
		}
	}

	// Cells differing only in arrival rate face identical applications:
	// same event names, starts scaled by the interarrival ratio (up to
	// Duration truncation per exponential gap).
	byInter := map[int64]Result{}
	for _, s := range rep.Scenarios {
		if s.Algorithm == "choreo" && s.ReevalNs == 0 {
			byInter[s.InterarrivalNs] = s
		}
	}
	slow, fast := byInter[int64(8*time.Second)], byInter[int64(2*time.Second)]
	for i := range fast.Apps {
		if fast.Apps[i].Name != slow.Apps[i].Name || fast.Apps[i].Tasks != slow.Apps[i].Tasks {
			t.Errorf("app %d differs across interarrivals: %+v vs %+v", i, fast.Apps[i], slow.Apps[i])
		}
		if want := 4 * fast.Apps[i].StartSeconds; math.Abs(slow.Apps[i].StartSeconds-want) > 1e-6 {
			t.Errorf("app %d start %.9f, want ~%.9f (4x)", i, slow.Apps[i].StartSeconds, want)
		}
	}
}

// TestDefaultSequenceDirectionality pins the paper's §6.3 headline on
// the default sequence grid: placing-as-you-arrive with re-measurement
// (and migration) must not lose to network-oblivious random placement
// on aggregate total running time.
func TestDefaultSequenceDirectionality(t *testing.T) {
	rep, err := RunCollect(DefaultSequence(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mean := map[string]float64{}
	for _, a := range rep.Algorithms {
		mean[a.Algorithm] = a.Completion.Mean
	}
	choreo, ok1 := mean["choreo"]
	random, ok2 := mean["random"]
	if !ok1 || !ok2 {
		t.Fatalf("default sequence grid missing choreo/random aggregates: %v", mean)
	}
	if choreo > random {
		t.Errorf("choreo mean total running %.2fs > random %.2fs (paper §6.3 directionality)", choreo, random)
	}
}

// TestSequenceCSV: sequence reports swap the optimal/slowdown columns
// for arrival and migration columns.
func TestSequenceCSV(t *testing.T) {
	rep, err := RunCollect(tinySeqGrid(), RunOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1+8 {
		t.Fatalf("CSV has %d lines, want header + 8 rows", len(lines))
	}
	if !strings.Contains(lines[0], "interarrival_seconds") || !strings.Contains(lines[0], "migrations") {
		t.Errorf("sequence CSV header missing sequence columns: %q", lines[0])
	}
	if strings.Contains(lines[0], "optimal_seconds") {
		t.Errorf("sequence CSV header carries snapshot columns: %q", lines[0])
	}
}

// TestSequenceValidation: malformed sequence grids (and snapshot grids
// that set sequence knobs) fail expansion with an error.
func TestSequenceValidation(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Grid)
	}{
		{"snapshot with interarrivals", func(g *Grid) {
			g.Mode = Snapshot
			g.Interarrivals = []time.Duration{time.Second}
			g.SeqApps = nil
			g.Reevals = nil
			g.MigrationGain = 0
			g.MaxMigrations = 0
		}},
		{"snapshot with migration gain", func(g *Grid) {
			g.Mode = Snapshot
			g.Interarrivals = nil
			g.SeqApps = nil
			g.Reevals = nil
			g.MigrationGain = 0.3
			g.MaxMigrations = 0
		}},
		{"zero interarrival", func(g *Grid) { g.Interarrivals = []time.Duration{0} }},
		{"duplicate interarrival", func(g *Grid) { g.Interarrivals = []time.Duration{time.Second, time.Second} }},
		{"zero sequence length", func(g *Grid) { g.SeqApps = []int{0} }},
		{"duplicate sequence length", func(g *Grid) { g.SeqApps = []int{4, 4} }},
		{"negative reeval", func(g *Grid) { g.Reevals = []time.Duration{-time.Second} }},
		{"duplicate reeval", func(g *Grid) { g.Reevals = []time.Duration{time.Second, time.Second} }},
		{"apps knob in sequence mode", func(g *Grid) { g.Apps = 2 }},
		{"migration gain out of range", func(g *Grid) { g.MigrationGain = 1.5 }},
		{"negative migration cap", func(g *Grid) { g.MaxMigrations = -1 }},
	}
	for _, tc := range cases {
		g := tinySeqGrid()
		tc.mutate(&g)
		if _, err := g.Expand(); err == nil {
			t.Errorf("%s: expected a validation error", tc.name)
		}
	}
	// Trace workloads are snapshot-only.
	g := tinySeqGrid()
	g.Workloads = append(g.Workloads, Workload{Name: "trace:unit", Trace: unitTrace(t)})
	if _, err := g.Expand(); err == nil || !strings.Contains(err.Error(), "snapshot-only") {
		t.Errorf("trace in sequence mode: got %v", err)
	}
}

// TestSequenceExpandOrder pins the sequence dimensions' place in the
// expansion order: interarrival, then length, then reeval, between the
// transfer-size and algorithm dimensions.
func TestSequenceExpandOrder(t *testing.T) {
	g := tinySeqGrid()
	scenarios, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(scenarios) != 8 {
		t.Fatalf("expanded %d scenarios, want 8", len(scenarios))
	}
	// With 1 seed, algorithm varies fastest, then reeval, then
	// interarrival.
	if scenarios[0].Algorithm.Name() == scenarios[1].Algorithm.Name() {
		t.Errorf("algorithm should vary fastest")
	}
	if scenarios[0].ReevalNs != scenarios[1].ReevalNs || scenarios[0].ReevalNs == scenarios[2].ReevalNs {
		t.Errorf("reeval should vary after algorithms: %v %v %v",
			scenarios[0].ReevalNs, scenarios[1].ReevalNs, scenarios[2].ReevalNs)
	}
	if scenarios[0].InterarrivalNs == scenarios[4].InterarrivalNs {
		t.Errorf("interarrival should vary after reevals")
	}
	// Cell identity: the 8 scenarios form 2 cell groups — reeval and
	// algorithm share a built cell, interarrival does not.
	keys := map[Coord]bool{}
	for _, sc := range scenarios {
		keys[sc.cell()] = true
	}
	if len(keys) != 2 {
		t.Errorf("8 sequence scenarios map to %d cell keys, want 2 (interarrival x seed)", len(keys))
	}
}
