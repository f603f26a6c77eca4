package shard

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"choreo/internal/sweep"
	"choreo/internal/units"
)

// seqTestGrid is a mixed sequence grid — migration cells (reeval 4s)
// interleaved with no-migration cells (reeval 0) across two arrival
// rates — small enough for CI but with 4 cell groups so shard plans,
// merges and resumes all have real work to partition:
// 2 interarrivals x 2 reevals x 2 algorithms x 2 seeds = 16 scenarios
// over 4 cells.
func seqTestGrid() sweep.Grid {
	g := sweep.Grid{
		Mode:          sweep.Sequence,
		Seeds:         []int64{1, 2},
		VMs:           4,
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

// TestSequenceSummaryIndexMatchesExpand pins the merger's expansion
// order reconstruction for sequence grids: the grid echo's sequence
// dimensions must replay through summaryIndex exactly as Expand
// enumerates them.
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
	idx, order, err := summaryIndex(hdr)
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != len(scenarios) {
		t.Fatalf("summaryIndex enumerates %d scenarios, Expand %d", len(order), len(scenarios))
	}
	for _, sc := range scenarios {
		id := scenarioIdentity(sc)
		pos, ok := idx[id]
		if !ok {
			t.Fatalf("scenario %d (%s) missing from summary index", sc.Index, id)
		}
		if pos != sc.Index {
			t.Fatalf("scenario %s: summary index %d, expansion index %d", id, pos, sc.Index)
		}
	}
}

// TestSequenceShardPlanKeepsCellGroupsWhole: every reeval and algorithm
// of one sequence cell lands in the same shard, so no shard re-measures
// a cell another shard already built.
func TestSequenceShardPlanKeepsCellGroupsWhole(t *testing.T) {
	g := seqTestGrid()
	scenarios, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	const n = 2
	covered := 0
	cellShard := make(map[sweep.CellKey]int)
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
			key := g.CellKey(scenarios[i])
			if prev, ok := cellShard[key]; ok && prev != s {
				t.Fatalf("sequence cell group of scenario %d split across shards %d and %d", i, prev, s)
			}
			cellShard[key] = s
		}
	}
	if covered != len(scenarios) {
		t.Fatalf("shards cover %d of %d scenarios", covered, len(scenarios))
	}
	if len(cellShard) != 4 {
		t.Fatalf("grid has %d cell groups, want 4", len(cellShard))
	}
}

// TestSequenceShardMergeByteIdentical is the sequence subsystem's
// distributed acceptance criterion: the mixed sequence grid run as 3
// shards and merged reproduces the unsharded streaming report byte for
// byte, migration aggregates included.
func TestSequenceShardMergeByteIdentical(t *testing.T) {
	g := seqTestGrid()
	full := streamBytes(t, g, sweep.RunOptions{Workers: 4})
	const n = 3
	var shards []*Shard
	for i := 1; i <= n; i++ {
		b, _ := shardBytes(t, g, Spec{Index: i, Count: n}, nil)
		sh, err := ReadShard(fmt.Sprintf("seqshard%d", i), bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		shards = append(shards, sh)
	}
	var merged bytes.Buffer
	sum, err := Merge(&merged, shards)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(merged.Bytes(), full) {
		t.Fatalf("merged sequence output differs from the unsharded stream:\nmerged:\n%s\nfull:\n%s",
			merged.Bytes(), full)
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
	full := streamBytes(t, g, sweep.RunOptions{Workers: 4})

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
	missingCells := make(map[sweep.CellKey]bool)
	rerun := 0
	for i := range scenarios {
		if _, done := prior[i]; done {
			continue
		}
		rerun++
		missingCells[g.CellKey(scenarios[i])] = true
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
