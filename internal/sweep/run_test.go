package sweep

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"choreo/internal/units"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenGrid is small enough for CI but still crosses every dimension —
// including a multi-parent fat-tree fabric and a swept transfer size:
// 2 topologies x 2 workloads x 2 sizes x 2 algorithms x 2 seeds =
// 32 scenarios over 16 unique cells.
func goldenGrid() Grid {
	g := Grid{
		Seeds: []int64{1, 2}, VMs: 4, MinTasks: 3, MaxTasks: 4,
		MeanSizes: []units.ByteSize{8 * units.Megabyte, 32 * units.Megabyte},
	}
	for _, name := range []string{"tworack", "fattree-4"} {
		tp, err := TopologyByName(name)
		if err != nil {
			panic(err)
		}
		g.Topologies = append(g.Topologies, tp)
	}
	for _, name := range []string{"skewed", "uniform"} {
		wl, err := WorkloadByName(name)
		if err != nil {
			panic(err)
		}
		g.Workloads = append(g.Workloads, wl)
	}
	for _, name := range []string{"choreo", "round-robin"} {
		alg, err := AlgorithmByName(name)
		if err != nil {
			panic(err)
		}
		g.Algorithms = append(g.Algorithms, alg)
	}
	return g
}

func reportJSONOpts(t *testing.T, g Grid, opts RunOptions) []byte {
	t.Helper()
	rep, err := RunCollect(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func reportJSON(t *testing.T, g Grid, workers int) []byte {
	t.Helper()
	return reportJSONOpts(t, g, RunOptions{Workers: workers})
}

// TestDeterministicAcrossWorkerCountsAndCache is the engine's core
// guarantee: the same grid and seeds produce byte-identical JSON whether
// the scenarios run on one worker or spread over eight. Under
// -race this also shakes out data races in the pool and the reorder
// buffer. TestGroupSharingDeterministic covers what sharing a cell
// across its algorithms could leak.
func TestDeterministicAcrossWorkerCountsAndCache(t *testing.T) {
	sequential := reportJSON(t, goldenGrid(), 1)
	for _, workers := range []int{2, 8} {
		parallel := reportJSONOpts(t, goldenGrid(), RunOptions{Workers: workers})
		if !bytes.Equal(sequential, parallel) {
			t.Fatalf("report differs between -workers 1 and -workers %d", workers)
		}
	}
}

// TestEnvCacheBuildsEachCellOnce proves the cell-group sharing: one
// build-and-measure per unique cell, every other scenario (and the
// optimal reference) run on the cell its group already built.
func TestEnvCacheBuildsEachCellOnce(t *testing.T) {
	g := goldenGrid()
	rep, err := RunCollect(g, RunOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	cells := len(g.Topologies) * len(g.Workloads) * len(g.MeanSizes) * len(g.Seeds)
	scenarios := cells * len(g.Algorithms)
	if len(rep.Scenarios) != scenarios {
		t.Fatalf("ran %d scenarios, want %d", len(rep.Scenarios), scenarios)
	}
	if rep.Cache.Misses != int64(cells) {
		t.Errorf("cache built %d cells, want exactly %d (one per unique cloud)", rep.Cache.Misses, cells)
	}
	if want := int64(scenarios - cells); rep.Cache.Hits != want {
		t.Errorf("cache hits = %d, want %d", rep.Cache.Hits, want)
	}
}

// streamGrid runs g through the JSONL pipeline and returns the stream.
func streamGrid(t *testing.T, g Grid, workers int) string {
	t.Helper()
	var buf bytes.Buffer
	sw := NewStreamWriter(&buf)
	hdr, err := g.Summary()
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Header(hdr); err != nil {
		t.Fatal(err)
	}
	sum, err := RunStream(g, RunOptions{Workers: workers, Emit: sw.Result})
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Finish(sum.Algorithms); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestStreamWriterDeterministic drives the incremental JSONL pipeline and
// checks the stream bytes are identical across worker counts, and
// structurally sound (header + one line per scenario + aggregates).
func TestStreamWriterDeterministic(t *testing.T) {
	base := streamGrid(t, goldenGrid(), 1)
	if got := streamGrid(t, goldenGrid(), 8); got != base {
		t.Fatal("stream differs between -workers 1 and -workers 8")
	}

	lines := strings.Split(strings.TrimSpace(base), "\n")
	g := goldenGrid()
	scenarios, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if want := len(scenarios) + 2; len(lines) != want {
		t.Fatalf("stream has %d lines, want header + %d scenarios + aggregates", len(lines), len(scenarios))
	}
	if !strings.HasPrefix(lines[0], `{"grid":`) {
		t.Errorf("stream header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], `{"topology":`) {
		t.Errorf("first scenario line = %q", lines[1])
	}
	if !strings.HasPrefix(lines[len(lines)-1], `{"algorithms":`) {
		t.Errorf("aggregates line = %q", lines[len(lines)-1])
	}
	// Scenario lines arrive in expansion order.
	var first Result
	if err := json.Unmarshal([]byte(lines[1]), &first); err != nil {
		t.Fatal(err)
	}
	if first.Topology != scenarios[0].Topology.Name || first.Seed != scenarios[0].Seed {
		t.Errorf("first streamed scenario %s/%d, want %s/%d",
			first.Topology, first.Seed, scenarios[0].Topology.Name, scenarios[0].Seed)
	}
}

func TestGoldenJSONReport(t *testing.T) {
	got := reportJSON(t, goldenGrid(), 4)
	path := filepath.Join("testdata", "golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/sweep -update` to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("report deviates from testdata/golden.json; if the change is intended, regenerate with -update\ngot:\n%s", got)
	}
}

func TestReportShapeAndAggregates(t *testing.T) {
	g := goldenGrid()
	rep, err := Run(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Grid.Scenarios != 32 || len(rep.Scenarios) != 32 {
		t.Fatalf("got %d scenarios, want 32", len(rep.Scenarios))
	}
	if len(rep.Algorithms) != 2 {
		t.Fatalf("got %d aggregates, want 2", len(rep.Algorithms))
	}
	for _, a := range rep.Algorithms {
		if a.Scenarios != 16 {
			t.Errorf("%s aggregate covers %d scenarios, want 16", a.Algorithm, a.Scenarios)
		}
		if a.Completion.N != 16 || a.Completion.Mean <= 0 {
			t.Errorf("%s completion summary looks wrong: %+v", a.Algorithm, a.Completion)
		}
		if a.Slowdown == nil || a.Slowdown.Mean <= 0 {
			t.Errorf("%s has no slowdown summary despite small tasks", a.Algorithm)
		}
		if a.PlaceLatency != nil {
			t.Errorf("%s has latency in JSON aggregates without Timing", a.Algorithm)
		}
	}
	for _, s := range rep.Scenarios {
		// Completion 0 is legitimate: a fully colocated placement
		// executes without touching the network.
		if s.CompletionSeconds < 0 {
			t.Errorf("scenario %s/%s/%s seed %d: completion %v", s.Topology, s.Workload, s.Algorithm, s.Seed, s.CompletionSeconds)
		}
		if s.PlaceLatency <= 0 {
			t.Errorf("scenario %s/%s/%s seed %d: no placement latency recorded", s.Topology, s.Workload, s.Algorithm, s.Seed)
		}
		if s.OptimalSeconds == nil {
			// Every golden-grid app is small enough for branch and
			// bound, so a reference must always have been computed.
			t.Errorf("scenario %s/%s/%s seed %d: no optimal reference", s.Topology, s.Workload, s.Algorithm, s.Seed)
			continue
		}
		switch opt := *s.OptimalSeconds; {
		case opt > 0:
			want := s.CompletionSeconds / opt
			if s.Slowdown == nil {
				t.Errorf("scenario %s/%s/%s seed %d: positive reference but nil slowdown", s.Topology, s.Workload, s.Algorithm, s.Seed)
			} else if diff := *s.Slowdown - want; diff > 1e-12 || diff < -1e-12 {
				t.Errorf("scenario %s/%s/%s seed %d: slowdown %v != completion/optimal %v", s.Topology, s.Workload, s.Algorithm, s.Seed, *s.Slowdown, want)
			}
		case s.CompletionSeconds == 0:
			if s.Slowdown == nil || *s.Slowdown != 1 {
				t.Errorf("scenario %s/%s/%s seed %d: zero-vs-zero should be slowdown 1, got %v", s.Topology, s.Workload, s.Algorithm, s.Seed, s.Slowdown)
			}
		default:
			if s.Slowdown != nil {
				t.Errorf("scenario %s/%s/%s seed %d: infinite ratio should have nil slowdown, got %v", s.Topology, s.Workload, s.Algorithm, s.Seed, *s.Slowdown)
			}
		}
	}
	// Identical cell group => identical optimal reference across algorithms.
	ref := map[string]float64{}
	for _, s := range rep.Scenarios {
		if s.OptimalSeconds == nil {
			continue
		}
		key := fmt.Sprintf("%s/%s/%d/%d/%d", s.Topology, s.Workload, s.VMs, s.MeanBytes, s.Seed)
		if prev, ok := ref[key]; ok && prev != *s.OptimalSeconds {
			t.Errorf("cell %s: optimal reference differs across algorithms (%v vs %v)", key, prev, *s.OptimalSeconds)
		}
		ref[key] = *s.OptimalSeconds
	}
	if !strings.Contains(rep.String(), "choreo") {
		t.Error("String() should mention the algorithms")
	}
}

func TestTimingAddsLatencyAggregates(t *testing.T) {
	g := tinyGrid()
	g.Timing = true
	rep, err := Run(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Algorithms) != 1 || rep.Algorithms[0].PlaceLatency == nil {
		t.Fatal("Timing should populate placement-latency aggregates")
	}
	if rep.Algorithms[0].PlaceLatency.Mean <= 0 {
		t.Error("latency summary should be positive")
	}
}

func TestCSVReport(t *testing.T) {
	rep, err := Run(tinyGrid(), 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1+len(rep.Scenarios) {
		t.Fatalf("CSV has %d lines, want header + %d rows", len(lines), len(rep.Scenarios))
	}
	if !strings.HasPrefix(lines[0], "topology,workload,algorithm,seed") {
		t.Errorf("unexpected CSV header %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "tworack,skewed,choreo,1,4,") {
		t.Errorf("unexpected CSV row %q", lines[1])
	}
}

// TestEmitErrorAbortsSweep: a dead stream destination must surface as an
// error without the engine simulating the rest of the grid first.
func TestEmitErrorAbortsSweep(t *testing.T) {
	g := goldenGrid()
	boom := fmt.Errorf("disk full")
	emitted := 0
	_, err := RunStream(g, RunOptions{Workers: 4, Emit: func(Result) error {
		emitted++
		return boom
	}})
	if err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("RunStream returned %v, want the emit error", err)
	}
	if emitted != 1 {
		t.Errorf("emit called %d times after failing, want 1", emitted)
	}
}

// TestILPAlgorithmMatchesOptimal runs the Appendix ILP on a tiny cell
// and cross-checks it against the branch-and-bound reference.
func TestILPAlgorithmMatchesOptimal(t *testing.T) {
	if testing.Short() {
		t.Skip("ILP solve is slow in -short mode")
	}
	g := tinyGrid()
	g.VMs = 3
	g.MinTasks = 3
	g.MaxTasks = 3
	ilpAlg, err := AlgorithmByName("ilp")
	if err != nil {
		t.Fatal(err)
	}
	optAlg, err := AlgorithmByName("optimal")
	if err != nil {
		t.Fatal(err)
	}
	g.Algorithms = []Algorithm{ilpAlg, optAlg}
	rep, err := Run(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Scenarios) != 2 {
		t.Fatalf("got %d scenarios", len(rep.Scenarios))
	}
	// Both exact solvers may differ in tie-breaking but not by much in
	// completion time; the ILP minimizes predicted time on the same
	// measured rates.
	a, b := rep.Scenarios[0].CompletionSeconds, rep.Scenarios[1].CompletionSeconds
	if a <= 0 || b <= 0 {
		t.Fatalf("non-positive completion: ilp=%v optimal=%v", a, b)
	}
	if diff := (a - b) / b; diff > 0.25 || diff < -0.25 {
		t.Errorf("ilp completion %v deviates from optimal %v by %.0f%%", a, b, diff*100)
	}
}
