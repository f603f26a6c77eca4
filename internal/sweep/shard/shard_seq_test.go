package shard

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"choreo/internal/sweep"
	"choreo/internal/units"
)

// seqTestGrid is a mixed sequence grid — migration cells (reeval 4s)
// interleaved with no-migration cells (reeval 0) across two arrival
// rates — small enough for CI but with 4 cells on 2 clouds so shard
// plans, merges and resumes all have real work to partition:
// 2 interarrivals x 2 reevals x 2 algorithms x 2 seeds = 16 scenarios
// over 4 cells.
func seqTestGrid() sweep.Grid {
	g := sweep.Grid{
		Mode:          sweep.Sequence,
		Seeds:         []int64{1, 2},
		VMCounts:      []int{4},
		MinTasks:      3,
		MaxTasks:      4,
		MeanSizes:     []units.ByteSize{100 * units.Megabyte},
		Interarrivals: []time.Duration{2 * time.Second, 8 * time.Second},
		SeqApps:       []int{4},
		Reevals:       []time.Duration{0, 4 * time.Second},
	}
	tp, err := sweep.TopologyByName("tworack")
	if err != nil {
		panic(err)
	}
	g.Topologies = []sweep.Topology{tp}
	wl, err := sweep.WorkloadByName("shuffle")
	if err != nil {
		panic(err)
	}
	g.Workloads = []sweep.Workload{wl}
	for _, name := range []string{"choreo", "random"} {
		alg, err := sweep.AlgorithmByName(name)
		if err != nil {
			panic(err)
		}
		g.Algorithms = append(g.Algorithms, alg)
	}
	return g
}

// cellOf is sc's cell: its cloud plus the arrival process. The cells
// of one cloud differ only in interarrival and sequence length.
func cellOf(sc sweep.Scenario) sweep.Coord {
	k := sc.Cloud()
	k.InterarrivalNs, k.SeqApps = sc.InterarrivalNs, sc.SeqApps
	return k
}

// TestSequenceSummaryIndexMatchesExpand pins the merger's expansion
// order reconstruction for sequence grids: the grid echo, read back
// from its JSON as a shard file carries it, must index every scenario
// at the position Expand gives it, sequence dimensions included.
func TestSequenceSummaryIndexMatchesExpand(t *testing.T) {
	g := seqTestGrid()
	scenarios, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	hdr, err := g.Summary()
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(hdr)
	if err != nil {
		t.Fatal(err)
	}
	var echo sweep.GridSummary
	if err := json.Unmarshal(b, &echo); err != nil {
		t.Fatal(err)
	}
	idx, err := echo.Index()
	if err != nil {
		t.Fatal(err)
	}
	if len(idx) != len(scenarios) {
		t.Fatalf("echo indexes %d scenarios, Expand %d", len(idx), len(scenarios))
	}
	for _, sc := range scenarios {
		pos, ok := idx[sc.Coord]
		if !ok {
			t.Fatalf("scenario %d (%s) missing from the echo's index", sc.Index, sc.Coord)
		}
		if pos != sc.Index {
			t.Fatalf("scenario %s: echo index %d, expansion index %d", sc.Coord, pos, sc.Index)
		}
	}
}

// TestSequenceShardPlanKeepsCellGroupsWhole: every cell of one cloud —
// every interarrival, sequence length, reeval and algorithm — lands in
// the same shard, so no shard re-measures a cloud another shard already
// measured.
func TestSequenceShardPlanKeepsCellGroupsWhole(t *testing.T) {
	g := seqTestGrid()
	scenarios, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	const n = 2
	covered := 0
	cloudShard := make(map[sweep.Coord]int)
	cells := make(map[sweep.Coord]bool)
	for s := 1; s <= n; s++ {
		include, err := Plan(g, Spec{Index: s, Count: n})
		if err != nil {
			t.Fatal(err)
		}
		if len(include) == 0 {
			t.Errorf("shard %d/%d is empty", s, n)
		}
		covered += len(include)
		for i := range include {
			key := scenarios[i].Cloud()
			if prev, ok := cloudShard[key]; ok && prev != s {
				t.Fatalf("sequence cloud of scenario %d split across shards %d and %d", i, prev, s)
			}
			cloudShard[key] = s
			cells[cellOf(scenarios[i])] = true
		}
	}
	if covered != len(scenarios) {
		t.Fatalf("shards cover %d of %d scenarios", covered, len(scenarios))
	}
	if len(cloudShard) != 2 || len(cells) != 4 {
		t.Fatalf("grid has %d clouds and %d cells, want 2 and 4", len(cloudShard), len(cells))
	}
}

// TestSequenceShardMergeByteIdentical is the sequence subsystem's
// distributed acceptance criterion: the mixed sequence grid run as 3
// shards and merged reproduces the unsharded streaming report byte for
// byte, migration aggregates included.
func TestSequenceShardMergeByteIdentical(t *testing.T) {
	g := seqTestGrid()
	full, _ := streamBytes(t, g, sweep.RunOptions{Workers: 4})
	const n = 3
	shards, _ := runShards(t, g, n)
	merged, sum := mergeBytes(t, shards)
	if !bytes.Equal(merged, full) {
		t.Fatalf("merged sequence output differs from the unsharded stream:\nmerged:\n%s\nfull:\n%s", merged, full)
	}
	for _, a := range sum.Algorithms {
		if a.Migrations == nil {
			t.Errorf("merged %s aggregate lost the migration summary", a.Algorithm)
		}
	}

	// A sequence shard never merges with a same-shape grid whose
	// sequence knobs differ: the sequence dimensions are part of the
	// grid hash.
	other := seqTestGrid()
	other.Reevals = []time.Duration{0, 6 * time.Second}
	ob, _ := shardBytes(t, other, Spec{Index: 2, Count: n}, nil)
	osh, err := ReadShard("otherreeval", bytes.NewReader(ob))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if _, err := Merge(&out, []*Shard{shards[0], osh}); err == nil {
		t.Error("merging shards of different sequence grids should fail")
	}
}

// TestSequenceResumeRerunsOnlyMissingCells: resuming a truncated
// sequence stream completes it byte-identically while re-building only
// the cells whose results are missing — the satellite acceptance for
// -resume over sequence cells.
func TestSequenceResumeRerunsOnlyMissingCells(t *testing.T) {
	g := seqTestGrid()
	full, _ := streamBytes(t, g, sweep.RunOptions{Workers: 4})

	// Keep the header plus 5 results: the cut lands inside a cell group
	// (2 algorithms x 2 reevals x 2 seeds interleave), exactly the case
	// the per-key eviction plan exists for.
	lines := shardLines(full)
	truncated := bytes.Join(lines[:6], nil)
	prior, err := LoadPrior(g, bytes.NewReader(truncated))
	if err != nil {
		t.Fatal(err)
	}
	if len(prior) != 5 {
		t.Fatalf("prior results = %d, want 5", len(prior))
	}

	scenarios, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	missingCells := make(map[sweep.Coord]bool)
	rerun := 0
	for i := range scenarios {
		if _, done := prior[i]; done {
			continue
		}
		rerun++
		missingCells[cellOf(scenarios[i])] = true
	}

	var buf bytes.Buffer
	sw := sweep.NewStreamWriter(&buf)
	hdr, err := g.Summary()
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Header(hdr); err != nil {
		t.Fatal(err)
	}
	sum, err := sweep.RunStream(g, sweep.RunOptions{Workers: 4, Prefilled: prior, Emit: sw.Result})
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Finish(sum.Algorithms); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), full) {
		t.Fatal("resumed sequence stream differs from the uninterrupted run")
	}
	if sum.Cache.Misses != int64(len(missingCells)) {
		t.Errorf("resume built %d cells, want exactly the %d missing ones", sum.Cache.Misses, len(missingCells))
	}
	if want := int64(rerun - len(missingCells)); sum.Cache.Hits != want {
		t.Errorf("resume cache hits = %d, want %d", sum.Cache.Hits, want)
	}
}
