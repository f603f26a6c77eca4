package sweep

// End-to-end live-mesh sweep tests: the whole path — grid expansion →
// loopback choreo-agent mesh → cell groups → reorder buffer →
// JSONL stream — runs hermetically against real sockets, and the
// resulting report must be schema-compatible with the simulated path
// (same line shapes, same identity machinery, resumable).

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"choreo/internal/sweep/backend"
	"choreo/internal/sweep/backend/livetest"
	"choreo/internal/units"
)

// liveGrid builds a tiny two-cell grid over a live backend: 1 topology
// x 1 workload x 2 algorithms x 2 seeds = 4 scenarios over 2 cells.
func liveGrid(t *testing.T, agents []string) Grid {
	t.Helper()
	live, err := backend.NewLive(backend.LiveConfig{
		Agents:  agents,
		Timeout: 5 * time.Second,
		Train:   livetest.QuickTrain(),
	})
	if err != nil {
		t.Fatal(err)
	}
	g := Grid{
		Backend:  live,
		Seeds:    []int64{1, 2},
		VMCounts: []int{3},
		// Small apps so the optimal reference is computed and Slowdown
		// populated, like a default sim sweep.
		MinTasks: 3, MaxTasks: 4,
	}
	tp, err := TopologyByName("ec2-2013")
	if err != nil {
		t.Fatal(err)
	}
	g.Topologies = []Topology{tp}
	wl, err := WorkloadByName("shuffle")
	if err != nil {
		t.Fatal(err)
	}
	g.Workloads = []Workload{wl}
	for _, a := range []string{"choreo", "random"} {
		alg, err := AlgorithmByName(a)
		if err != nil {
			t.Fatal(err)
		}
		g.Algorithms = append(g.Algorithms, alg)
	}
	return g
}

// TestLiveSweepStreamsReport drives a full streaming sweep against an
// in-process agent mesh and checks the report end to end: echo carries
// the backend, every cell measured the real mesh exactly once (one
// measurement per cell group), result lines carry the snapshot schema, and the JSONL
// round-trips through the resume loader — the same identity machinery
// shards and merges use.
func TestLiveSweepStreamsReport(t *testing.T) {
	mesh, err := livetest.Start(3)
	if err != nil {
		t.Fatal(err)
	}
	defer mesh.Close()
	g := liveGrid(t, mesh.Addrs())

	var buf bytes.Buffer
	sw := NewStreamWriter(&buf)
	hdr, err := g.Summary()
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Backend != "live" {
		t.Fatalf("grid echo backend = %q, want live", hdr.Backend)
	}
	if err := sw.Header(hdr); err != nil {
		t.Fatal(err)
	}
	sum, err := RunStream(g, RunOptions{Workers: 4, Emit: sw.Result})
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Finish(sum.Algorithms); err != nil {
		t.Fatal(err)
	}

	// 4 scenarios over 2 cells: the live mesh was measured exactly twice.
	if sum.Cache.Misses != 2 || sum.Cache.Hits != 2 {
		t.Errorf("cache misses/hits = %d/%d, want 2/2 (one mesh measurement per cell)",
			sum.Cache.Misses, sum.Cache.Hits)
	}

	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != 1+4+1 {
		t.Fatalf("stream has %d lines, want header + 4 results + aggregates", len(lines))
	}
	for _, ln := range lines[1:5] {
		var res Result
		if err := json.Unmarshal([]byte(ln), &res); err != nil {
			t.Fatalf("bad result line %q: %v", ln, err)
		}
		if res.Topology != "ec2-2013" || res.VMs != 3 || res.Tasks == 0 {
			t.Errorf("result line missing snapshot coordinates: %q", ln)
		}
		if res.CompletionSeconds < 0 {
			t.Errorf("negative completion in %q", ln)
		}
		if res.SeqApps != 0 || res.InterarrivalNs != 0 {
			t.Errorf("live snapshot line carries sequence fields: %q", ln)
		}
		if res.OptimalSeconds == nil || res.Slowdown == nil {
			t.Errorf("live result missing the optimal reference: %q", ln)
		}
		if res.Algorithm == "choreo" && *res.Slowdown != 1.0 {
			// On the live backend both the scenario and the reference are
			// evaluated by the same predicted objective, and greedy's result
			// can only tie or trail the exact optimum.
			if *res.Slowdown < 1.0 {
				t.Errorf("choreo slowdown %v < 1 is impossible under the predicted objective: %q", *res.Slowdown, ln)
			}
		}
	}

	// A live report must resume like any other JSONL report: every line
	// maps back to a scenario identity, and a fully-covered prior means
	// nothing re-runs (so no live mesh is needed for the replay).
	mesh.Close()
	prior, err := loadPriorForTest(t, g, buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(prior) != 4 {
		t.Fatalf("resume recovered %d of 4 scenarios", len(prior))
	}
	var replay bytes.Buffer
	rw := NewStreamWriter(&replay)
	if err := rw.Header(hdr); err != nil {
		t.Fatal(err)
	}
	sum2, err := RunStream(g, RunOptions{Workers: 2, Emit: rw.Result, Prefilled: prior})
	if err != nil {
		t.Fatal(err)
	}
	if err := rw.Finish(sum2.Algorithms); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(replay.Bytes(), buf.Bytes()) {
		t.Error("replaying the live report through -resume did not reproduce its bytes")
	}
}

// TestLiveMeasurementNeverShared pins the live grouping rule: a live
// grid is snapshot-only, so each cell is its own cloud and cell group,
// and the real mesh is measured once per cell, never shared between
// cells.
func TestLiveMeasurementNeverShared(t *testing.T) {
	mesh, err := livetest.Start(3)
	if err != nil {
		t.Fatal(err)
	}
	defer mesh.Close()
	g := liveGrid(t, mesh.Addrs())
	g.MeanSizes = []units.ByteSize{32 * units.Megabyte, 64 * units.Megabyte}
	scenarios, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	cells := map[Coord]bool{}
	for _, sc := range scenarios {
		if sc.cell() != sc.Cloud() {
			t.Fatalf("live scenario %s: cell %+v is not its cloud %+v", sc.Coord, sc.cell(), sc.Cloud())
		}
		cells[sc.cell()] = true
	}
	sum, err := RunStream(g, RunOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	want := CacheStats{Misses: int64(len(cells)), Hits: int64(len(scenarios) - len(cells)), MeasurementMisses: int64(len(cells))}
	if sum.Cache != want {
		t.Errorf("live run cache stats = %+v, want %+v (one measurement per cell)", sum.Cache, want)
	}
}

// TestLiveCellKeysCarryBackendAndEpoch pins what keeps live results
// apart from sim results and from another run's measurements: a live
// grid's echo names its backend, so resume and merge (which compare
// echoes verbatim) never splice a live report with a sim one, and no
// measurement outlives its run, so every run of a live grid measures
// each cell on the mesh afresh.
func TestLiveCellKeysCarryBackendAndEpoch(t *testing.T) {
	mesh, err := livetest.Start(3)
	if err != nil {
		t.Fatal(err)
	}
	defer mesh.Close()
	g := liveGrid(t, mesh.Addrs())
	hdr, err := g.Summary()
	if err != nil {
		t.Fatal(err)
	}
	sim := g
	sim.Backend = nil
	simHdr, err := sim.Summary()
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Backend != "live" || simHdr.Backend != "" {
		t.Errorf("echo backends = %q live, %q sim; want \"live\" and none", hdr.Backend, simHdr.Backend)
	}
	scenarios, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	cells := map[Coord]bool{}
	for _, sc := range scenarios {
		cells[sc.cell()] = true
	}
	for run := 1; run <= 2; run++ {
		sum, err := RunStream(g, RunOptions{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := sum.Cache.MeasurementMisses, int64(len(cells)); got != want {
			t.Errorf("run %d measured the mesh %d times, want once per cell (%d)", run, got, want)
		}
	}
}

// TestLiveSequenceRejected pins the precise error for -mode sequence on
// a live backend.
func TestLiveSequenceRejected(t *testing.T) {
	mesh, err := livetest.Start(2)
	if err != nil {
		t.Fatal(err)
	}
	defer mesh.Close()
	g := liveGrid(t, mesh.Addrs())
	g.Mode = Sequence
	g.VMCounts = []int{2}
	if _, err := g.Expand(); err == nil || !strings.Contains(err.Error(), "sequence mode is sim-only") {
		t.Errorf("sequence-mode live grid error = %v, want a sequence-is-sim-only error", err)
	}
}

// TestLiveGridCapacityValidated pins grid validation against a fleet
// smaller than the swept VM counts.
func TestLiveGridCapacityValidated(t *testing.T) {
	mesh, err := livetest.Start(2)
	if err != nil {
		t.Fatal(err)
	}
	defer mesh.Close()
	g := liveGrid(t, mesh.Addrs())
	g.VMCounts = []int{2, 5}
	if _, err := g.Expand(); err == nil || !strings.Contains(err.Error(), "only 2 agents") {
		t.Errorf("over-capacity live grid error = %v, want an only-2-agents error", err)
	}
}

// loadPriorForTest round-trips a JSONL report through the resume
// loader without importing the shard package (which would cycle):
// it re-implements the identity match the loader uses, via the same
// exported surfaces the shard package consumes.
func loadPriorForTest(t *testing.T, g Grid, data []byte) (map[int]Result, error) {
	t.Helper()
	scenarios, err := g.Expand()
	if err != nil {
		return nil, err
	}
	type ident struct {
		Topology, Workload, Algorithm string
		Seed                          int64
		VMs                           int
		MeanBytes                     int64
	}
	idx := make(map[ident]int)
	for _, sc := range scenarios {
		idx[ident{sc.Topology.Name, sc.Workload.Name, sc.Algorithm.Name(), sc.Seed, sc.VMs, int64(sc.MeanBytes)}] = sc.Index
	}
	out := make(map[int]Result)
	for _, ln := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")[1:] {
		var res Result
		if err := json.Unmarshal([]byte(ln), &res); err != nil {
			return nil, err
		}
		if res.Topology == "" {
			continue // aggregates line
		}
		pos, ok := idx[ident{res.Topology, res.Workload, res.Algorithm, res.Seed, res.VMs, res.MeanBytes}]
		if !ok {
			t.Fatalf("line %q matches no scenario", ln)
		}
		out[pos] = res
	}
	return out, nil
}
