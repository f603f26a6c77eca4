package shard

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"choreo/internal/place"
	"choreo/internal/profile"
	"choreo/internal/sweep"
	"choreo/internal/units"
	"choreo/internal/workload"
)

// testGrid is a cheap grid that still has multiple cell groups per
// shard: 1 topology x 2 workloads x 2 sizes x 2 algorithms x 2 seeds =
// 16 scenarios over 8 cells.
func testGrid() sweep.Grid {
	g := sweep.Grid{
		Seeds: []int64{1, 2}, VMCounts: []int{4}, MinTasks: 3, MaxTasks: 4,
		Model:     place.Hose,
		MeanSizes: []units.ByteSize{8 * units.Megabyte, 32 * units.Megabyte},
	}
	tp, err := sweep.TopologyByName("tworack")
	if err != nil {
		panic(err)
	}
	g.Topologies = []sweep.Topology{tp}
	for _, name := range []string{"skewed", "uniform"} {
		wl, err := sweep.WorkloadByName(name)
		if err != nil {
			panic(err)
		}
		g.Workloads = append(g.Workloads, wl)
	}
	for _, name := range []string{"choreo", "round-robin"} {
		alg, err := sweep.AlgorithmByName(name)
		if err != nil {
			panic(err)
		}
		g.Algorithms = append(g.Algorithms, alg)
	}
	return g
}

// streamBytes runs the whole grid through the unsharded JSONL pipeline.
func streamBytes(t *testing.T, g sweep.Grid, opts sweep.RunOptions) ([]byte, *sweep.Summary) {
	t.Helper()
	var buf bytes.Buffer
	sw := sweep.NewStreamWriter(&buf)
	hdr, err := g.Summary()
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Header(hdr); err != nil {
		t.Fatal(err)
	}
	opts.Emit = sw.Result
	sum, err := sweep.RunStream(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Finish(sum.Algorithms); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), sum
}

// shardBytes plans and runs one shard slice into a shard file.
func shardBytes(t *testing.T, g sweep.Grid, spec Spec, prefilled map[int]sweep.Result) ([]byte, *sweep.Summary) {
	t.Helper()
	include, err := Plan(g, spec)
	if err != nil {
		t.Fatal(err)
	}
	hdr, err := g.Summary()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w, err := NewWriter(&buf, hdr, spec, len(include))
	if err != nil {
		t.Fatal(err)
	}
	sum, err := sweep.RunStream(g, sweep.RunOptions{
		Workers:   4,
		Include:   func(i int) bool { return include[i] },
		Prefilled: prefilled,
		Emit:      w.Result,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), sum
}

// runShards runs g as n shards and reads each shard file back. sums[i]
// is shard i+1's run summary.
func runShards(t *testing.T, g sweep.Grid, n int) (shards []*Shard, sums []*sweep.Summary) {
	t.Helper()
	for i := 1; i <= n; i++ {
		b, sum := shardBytes(t, g, Spec{Index: i, Count: n}, nil)
		sh, err := ReadShard(fmt.Sprintf("shard%d", i), bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		shards, sums = append(shards, sh), append(sums, sum)
	}
	return shards, sums
}

// mergeBytes merges shards into one stream.
func mergeBytes(t *testing.T, shards []*Shard) ([]byte, *sweep.Summary) {
	t.Helper()
	var merged bytes.Buffer
	sum, err := Merge(&merged, shards)
	if err != nil {
		t.Fatal(err)
	}
	return merged.Bytes(), sum
}

// unitTrace records one small generated application as a trace.
func unitTrace(t *testing.T) *workload.Trace {
	t.Helper()
	cfg := workload.Config{MinTasks: 3, MaxTasks: 4, MeanBytes: 4 * 1 << 20}
	app, err := workload.Generate(rand.New(rand.NewSource(5)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := workload.NewTrace("unit", []*profile.Application{app})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestParseSpec(t *testing.T) {
	sp, err := ParseSpec("2/3")
	if err != nil || sp != (Spec{Index: 2, Count: 3}) {
		t.Fatalf("ParseSpec(2/3) = %v, %v", sp, err)
	}
	if sp.String() != "2/3" {
		t.Errorf("String() = %q", sp.String())
	}
	for _, bad := range []string{"", "2", "0/3", "4/3", "x/3", "1/0", "-1/2", "1/3/4"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) should fail", bad)
		}
	}
}

// TestPlanPartitionsWholeCellGroups: the n shard plans partition the
// expanded scenario list exactly (disjoint, no gaps), and never split a
// cell group — every scenario of one cloud lands in one shard, so no
// cloud is ever built on two machines.
func TestPlanPartitionsWholeCellGroups(t *testing.T) {
	g := testGrid()
	scenarios, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	const n = 3
	shardOf := make(map[int]int)
	cellShard := make(map[sweep.Coord]int)
	for s := 1; s <= n; s++ {
		include, err := Plan(g, Spec{Index: s, Count: n})
		if err != nil {
			t.Fatal(err)
		}
		if len(include) == 0 {
			t.Errorf("shard %d/%d is empty for %d scenarios", s, n, len(scenarios))
		}
		for i := range include {
			if prev, dup := shardOf[i]; dup {
				t.Fatalf("scenario %d assigned to shards %d and %d", i, prev, s)
			}
			shardOf[i] = s
			key := scenarios[i].Cloud()
			if prev, ok := cellShard[key]; ok && prev != s {
				t.Fatalf("cell group of scenario %d split across shards %d and %d", i, prev, s)
			}
			cellShard[key] = s
		}
	}
	if len(shardOf) != len(scenarios) {
		t.Fatalf("shards cover %d of %d scenarios", len(shardOf), len(scenarios))
	}
	// Deterministic: replanning yields the identical slice.
	again, err := Plan(g, Spec{Index: 2, Count: n})
	if err != nil {
		t.Fatal(err)
	}
	for i := range again {
		if shardOf[i] != 2 {
			t.Fatalf("replan moved scenario %d", i)
		}
	}
}

// TestShardMergeByteIdentical is the subsystem's acceptance criterion:
// running the grid as 3 shards and merging them reproduces the
// unsharded streaming report byte for byte, aggregates included.
func TestShardMergeByteIdentical(t *testing.T) {
	g := testGrid()
	full, _ := streamBytes(t, g, sweep.RunOptions{Workers: 4})
	shards, _ := runShards(t, g, 3)
	merged, sum := mergeBytes(t, shards)
	if !bytes.Equal(merged, full) {
		t.Fatalf("merged output differs from the unsharded stream:\nmerged:\n%s\nfull:\n%s", merged, full)
	}
	if len(sum.Algorithms) != 2 {
		t.Errorf("merged summary has %d aggregates, want 2", len(sum.Algorithms))
	}
	// Merge order must not matter for validation (output order is fixed
	// by expansion index anyway).
	if merged2, _ := mergeBytes(t, []*Shard{shards[2], shards[0], shards[1]}); !bytes.Equal(merged2, full) {
		t.Error("merge is sensitive to shard argument order")
	}
}

// patchCount rewrites one "key":old integer in a shard file's metadata
// lines, so tests can forge self-consistent corrupt files.
func patchCount(t *testing.T, b []byte, key string, old, new int) []byte {
	t.Helper()
	from := fmt.Sprintf("%q:%d", key, old)
	to := fmt.Sprintf("%q:%d", key, new)
	if !bytes.Contains(b, []byte(from)) {
		t.Fatalf("patchCount: %s not found", from)
	}
	return bytes.Replace(b, []byte(from), []byte(to), 1)
}

// shardLines splits a shard file into its lines, keeping one trailing
// newline per line.
func shardLines(b []byte) [][]byte {
	var out [][]byte
	for _, l := range bytes.SplitAfter(b, []byte("\n")) {
		if len(l) > 0 {
			out = append(out, l)
		}
	}
	return out
}

func TestReadShardRejectsTruncation(t *testing.T) {
	g := testGrid()
	b, _ := shardBytes(t, g, Spec{Index: 1, Count: 3}, nil)

	// Partial last line: an interrupted write mid-line.
	if _, err := ReadShard("cut", bytes.NewReader(b[:len(b)-10])); err == nil ||
		!strings.Contains(err.Error(), "partial last line") {
		t.Errorf("partial last line: got %v", err)
	}
	// Whole footer line missing.
	noFooter := b[:bytes.LastIndexByte(b[:len(b)-1], '\n')+1]
	if _, err := ReadShard("nofooter", bytes.NewReader(noFooter)); err == nil ||
		!strings.Contains(err.Error(), "missing shardComplete footer") {
		t.Errorf("missing footer: got %v", err)
	}
	// A result line dropped mid-file: the footer count exposes it.
	lines := shardLines(b)
	spliced := bytes.Join([][]byte{lines[0], lines[1]}, nil)
	for _, l := range lines[3:] {
		spliced = append(spliced, l...)
	}
	if _, err := ReadShard("spliced", bytes.NewReader(spliced)); err == nil ||
		!strings.Contains(err.Error(), "footer declares") {
		t.Errorf("dropped result line: got %v", err)
	}
	// An aggregates line belongs to -stream reports, never shard files.
	lines = shardLines(b)
	withAggs := bytes.Join(lines[:len(lines)-1], nil)
	withAggs = append(withAggs, []byte("{\"algorithms\":[]}\n")...)
	withAggs = append(withAggs, lines[len(lines)-1]...)
	if _, err := ReadShard("aggs", bytes.NewReader(withAggs)); err == nil ||
		!strings.Contains(err.Error(), "aggregates line") {
		t.Errorf("aggregates line in shard: got %v", err)
	}
	// Sanity: the untouched file parses.
	if _, err := ReadShard("ok", bytes.NewReader(b)); err != nil {
		t.Errorf("valid shard rejected: %v", err)
	}
}

func TestMergeRejectsDuplicateScenarioLine(t *testing.T) {
	g := testGrid()
	const n = 3
	var raw [][]byte
	for i := 1; i <= n; i++ {
		b, _ := shardBytes(t, g, Spec{Index: i, Count: n}, nil)
		raw = append(raw, b)
	}
	// Forge a self-consistent shard 1 with its first result line twice.
	lines := shardLines(raw[0])
	results := len(lines) - 3
	dup := append([][]byte{lines[0], lines[1], lines[2]}, lines[2:]...)
	forged := patchCount(t, bytes.Join(dup, nil), "scenarios", results, results+1)
	forged = patchCount(t, forged, "results", results, results+1)

	sh1, err := ReadShard("dup", bytes.NewReader(forged))
	if err != nil {
		t.Fatal(err)
	}
	sh2, err := ReadShard("s2", bytes.NewReader(raw[1]))
	if err != nil {
		t.Fatal(err)
	}
	sh3, err := ReadShard("s3", bytes.NewReader(raw[2]))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if _, err := Merge(&out, []*Shard{sh1, sh2, sh3}); err == nil ||
		!strings.Contains(err.Error(), "duplicate scenario line") {
		t.Errorf("duplicate scenario line: got %v", err)
	}
}

func TestMergeRejectsMismatchedShards(t *testing.T) {
	g := testGrid()
	const n = 3
	shards, _ := runShards(t, g, n)

	// A shard of a different sweep (different seed list, same shape).
	other := testGrid()
	other.Seeds = []int64{7, 8}
	ob, _ := shardBytes(t, other, Spec{Index: 3, Count: n}, nil)
	osh, err := ReadShard("othergrid", bytes.NewReader(ob))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if _, err := Merge(&out, []*Shard{shards[0], shards[1], osh}); err == nil ||
		!strings.Contains(err.Error(), "grid hash mismatch") {
		t.Errorf("mismatched grid hash: got %v", err)
	}
	// Scalar knobs that shape results but not the dimension lists — the
	// rate model, task bounds, reference budget — must change the grid
	// hash too, or shards of different experiments would merge silently.
	scalar := testGrid()
	scalar.MaxTasks = 5
	sb, _ := shardBytes(t, scalar, Spec{Index: 3, Count: n}, nil)
	ssh, err := ReadShard("maxtasks", bytes.NewReader(sb))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Merge(&out, []*Shard{shards[0], shards[1], ssh}); err == nil ||
		!strings.Contains(err.Error(), "grid hash mismatch") {
		t.Errorf("differing -max-tasks: got %v", err)
	}
	baseGrid := testGrid()
	hdr, err := baseGrid.Summary()
	if err != nil {
		t.Fatal(err)
	}
	for _, mutate := range []func(*sweep.Grid){
		func(g *sweep.Grid) { g.Model = place.Pipe },
		func(g *sweep.Grid) { g.MinTasks = 2 },
		func(g *sweep.Grid) { g.OptimalMaxTasks = 3 },
	} {
		g := testGrid()
		mutate(&g)
		mhdr, err := g.Summary()
		if err != nil {
			t.Fatal(err)
		}
		want, err := HashSummary(hdr)
		if err != nil {
			t.Fatal(err)
		}
		got, err := HashSummary(mhdr)
		if err != nil {
			t.Fatal(err)
		}
		if got == want {
			t.Errorf("grid hash ignores a result-shaping knob: %+v", mhdr)
		}
	}
	if _, err := Merge(&out, []*Shard{shards[0], shards[1]}); err == nil ||
		!strings.Contains(err.Error(), "missing shard 3") {
		t.Errorf("missing shard: got %v", err)
	}
	if _, err := Merge(&out, []*Shard{shards[0], shards[0], shards[1]}); err == nil ||
		!strings.Contains(err.Error(), "both shard 1/3") {
		t.Errorf("duplicate shard index: got %v", err)
	}
}

// TestResumeTruncatedShard is the incremental-resume acceptance
// criterion: -resume on a truncated shard re-runs only the missing
// cells — proven by the run's cell hit/miss counts —
// and reproduces the complete shard byte for byte.
func TestResumeTruncatedShard(t *testing.T) {
	g := testGrid()
	spec := Spec{Index: 2, Count: 3}
	full, _ := shardBytes(t, g, spec, nil)

	// Cut mid-way through the 5th line (grid, shard, 2 results, then a
	// partial third result): the signature of an interrupted run.
	cut := full
	for i := 0; i < 4; i++ {
		cut = cut[bytes.IndexByte(cut, '\n')+1:]
	}
	truncated := full[:len(full)-len(cut)+10]

	prior, err := LoadPrior(g, bytes.NewReader(truncated))
	if err != nil {
		t.Fatal(err)
	}
	if len(prior) != 2 {
		t.Fatalf("truncated shard yields %d prior results, want 2", len(prior))
	}

	// What a resumed run must execute: the shard's slice minus the prior
	// results — and build exactly that slice's distinct cells.
	include, err := Plan(g, spec)
	if err != nil {
		t.Fatal(err)
	}
	scenarios, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	rerun := 0
	cells := make(map[sweep.Coord]bool) // a snapshot cell is its cloud
	for i := range include {
		if _, done := prior[i]; done {
			continue
		}
		rerun++
		cells[scenarios[i].Cloud()] = true
	}
	if rerun == 0 {
		t.Fatal("test grid too small: nothing left to re-run")
	}

	resumed, sum := shardBytes(t, g, spec, prior)
	if !bytes.Equal(resumed, full) {
		t.Fatalf("resumed shard differs from the uninterrupted run:\nresumed:\n%s\nfull:\n%s", resumed, full)
	}
	if sum.Cache.Misses != int64(len(cells)) {
		t.Errorf("resume built %d cells, want exactly the %d missing ones", sum.Cache.Misses, len(cells))
	}
	if want := int64(rerun - len(cells)); sum.Cache.Hits != want {
		t.Errorf("resume cache hits = %d, want %d", sum.Cache.Hits, want)
	}
}

// TestResumeFullStream: resuming an interrupted unsharded -stream run
// completes it byte-identically, re-building only the cells whose
// results are missing — even where the cut split a cell group, which is
// exactly the case the per-key cache plan exists for.
func TestResumeFullStream(t *testing.T) {
	g := testGrid()
	full, _ := streamBytes(t, g, sweep.RunOptions{Workers: 4})

	// Keep the header plus 5 results: with 2 algorithms interleaved by
	// seed, 5 results split a cell group down the middle.
	lines := shardLines(full)
	truncated := bytes.Join(lines[:6], nil)
	prior, err := LoadPrior(g, bytes.NewReader(truncated))
	if err != nil {
		t.Fatal(err)
	}
	if len(prior) != 5 {
		t.Fatalf("prior results = %d, want 5", len(prior))
	}

	resumed, _ := streamBytes(t, g, sweep.RunOptions{Workers: 4, Prefilled: prior})
	if !bytes.Equal(resumed, full) {
		t.Fatal("resumed stream differs from the uninterrupted run")
	}
}

func TestLoadPriorRejects(t *testing.T) {
	g := testGrid()
	b, _ := shardBytes(t, g, Spec{Index: 1, Count: 3}, nil)

	// A prior run under different flags must be refused, not mixed in.
	other := testGrid()
	other.Seeds = []int64{7, 8}
	ob, _ := shardBytes(t, other, Spec{Index: 1, Count: 3}, nil)
	if _, err := LoadPrior(g, bytes.NewReader(ob)); err == nil ||
		!strings.Contains(err.Error(), "different grid") {
		t.Errorf("different grid: got %v", err)
	}

	// Duplicate result lines mean the file was spliced, not interrupted.
	lines := shardLines(b)
	dup := bytes.Join(append([][]byte{lines[0], lines[1], lines[2]}, lines[2:]...), nil)
	if _, err := LoadPrior(g, bytes.NewReader(dup)); err == nil ||
		!strings.Contains(err.Error(), "duplicate result") {
		t.Errorf("duplicate result: got %v", err)
	}

	// A collecting-mode JSON report is not resumable.
	if _, err := LoadPrior(g, strings.NewReader("{\n  \"grid\": {}\n}\n")); err == nil {
		t.Error("collecting-mode JSON accepted")
	}

	// A random non-JSONL file must error even without a trailing
	// newline: partial-last-line forgiveness starts after a validated
	// grid echo, not on line 1.
	if _, err := LoadPrior(g, strings.NewReader("assorted notes, no newline")); err == nil {
		t.Error("non-JSONL file without trailing newline accepted as empty prior run")
	}

	// Mid-file corruption is an error; only the final line is forgiven.
	corrupt := append(append([]byte{}, lines[0]...), []byte("{bad json\n")...)
	corrupt = append(corrupt, lines[2]...)
	if _, err := LoadPrior(g, bytes.NewReader(corrupt)); err == nil ||
		!strings.Contains(err.Error(), "bad JSON") {
		t.Errorf("mid-file corruption: got %v", err)
	}
}
