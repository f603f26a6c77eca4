package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"choreo/internal/obs"
	"choreo/internal/place"
	"choreo/internal/sweep"
	"choreo/internal/units"
)

// sweepBench repeats sweep.RunStream passes over a grid. The grid is
// split into sub-grids of seedsPerPass grid seeds and each pass runs one
// sub-grid, so a full round visits every cell once and pass latency has
// enough samples for a tail. Every pass's stream must be byte-identical
// to the first pass of that sub-grid, made during set-up.
type sweepBench struct {
	grids  []sweep.Grid
	want   []int    // expanded scenario count per sub-grid
	ref    [][]byte // first pass's stream per sub-grid
	next   int      // sub-grid the next pass runs
	qual   float64
	replay func(lm layerMetrics, tr *tracing) error
	// traced accumulates the traced passes' layer samples.
	traced       durations
	hits, misses int64
	// lines adds the end-to-end lines under the workload's own names.
	lines func(l *lineSet, e2e endToEnd)
}

// seedsPerPass is the grid seeds one pass covers. Seeds vary fastest in
// expansion order, so with one seed per worker neighbouring cells belong
// to different cell groups and the workers do not queue on one
// environment-cache build; a single-seed pass would serialize them.
const seedsPerPass = 4

// gridSeeds draws the sub-grids' grid seeds from the benchmark seed.
func gridSeeds(seed int64, n int) []int64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int64, n)
	for i := range out {
		out[i] = rng.Int63n(1 << 40)
	}
	return out
}

func byNames[T any](names []string, lookup func(string) (T, error)) []T {
	out := make([]T, len(names))
	for i, n := range names {
		v, err := lookup(n)
		if err != nil {
			panic(err) // the names below are fixed and valid
		}
		out[i] = v
	}
	return out
}

// snapshotGrid is the §6.2 grid: 4 topologies × 2 workloads × 2 VM
// counts × 2 transfer sizes × 4 algorithms per seed, with the optimal
// reference on.
func snapshotGrid(small bool) sweep.Grid {
	g := sweep.Grid{
		Model:      place.Hose,
		Topologies: byNames([]string{"ec2-2013", "rackspace", "fattree-4", "jellyfish-12"}, sweep.TopologyByName),
		Workloads:  byNames([]string{"shuffle", "uniform"}, sweep.WorkloadByName),
		Algorithms: byNames([]string{"choreo", "random", "round-robin", "min-machines"}, sweep.AlgorithmByName),
		VMCounts:   []int{6, 10},
		MeanSizes:  []units.ByteSize{64 * units.Megabyte, 200 * units.Megabyte},
	}
	if small {
		g.Topologies, g.VMCounts = g.Topologies[:2], g.VMCounts[:1]
	}
	return g
}

// sequenceGrid is the §6.3 grid: 3 topologies × 10 VMs × 24-app
// arrivals × 2 interarrivals × 2 re-evaluation periods × 3 algorithms
// per seed. The workload runs it over 16 grid seeds: sequence cells'
// cost and quality vary widely from cell to cell, and each benchmark
// seed should average over many of them.
func sequenceGrid(small bool) sweep.Grid {
	g := sweep.Grid{
		Mode:          sweep.Sequence,
		Model:         place.Hose,
		Topologies:    byNames([]string{"ec2-2013", "rackspace", "fattree-4"}, sweep.TopologyByName),
		Workloads:     byNames([]string{"shuffle"}, sweep.WorkloadByName),
		Algorithms:    byNames([]string{"choreo", "random", "round-robin"}, sweep.AlgorithmByName),
		VMCounts:      []int{10},
		MeanSizes:     []units.ByteSize{400 * units.Megabyte},
		Interarrivals: []time.Duration{5 * time.Second, 20 * time.Second},
		SeqApps:       []int{24},
		Reevals:       []time.Duration{0, 10 * time.Second},
	}
	if small {
		g.Topologies, g.SeqApps = g.Topologies[:1], []int{6}
	}
	return g
}

func setupSweepSnapshot(o options, _ *tracing) (instance, error) {
	seeds := 16
	if o.small {
		seeds = 2 * seedsPerPass
	}
	b, err := newSweepBench(snapshotGrid(o.small), gridSeeds(o.seed, seeds), snapshotQuality)
	if err != nil {
		return nil, err
	}
	b.replay = func(lm layerMetrics, tr *tracing) error { return replaySnapshot(lm, tr, o) }
	b.lines = func(l *lineSet, e2e endToEnd) {
		l.add("cells_per_s", e2e.okPerSecond(), "1/s")
		l.add("greedy_slowdown", e2e.quality, "ratio")
		l.latency("pass_p50_ms", "pass_tail_ms", e2e, 1, "ms")
	}
	return b, nil
}

func setupSweepSequence(o options, _ *tracing) (instance, error) {
	seeds := 16
	if o.small {
		seeds = 2 * seedsPerPass
	}
	b, err := newSweepBench(sequenceGrid(o.small), gridSeeds(o.seed, seeds), sequenceQuality)
	if err != nil {
		return nil, err
	}
	b.replay = func(lm layerMetrics, tr *tracing) error { return replaySequence(lm, tr, o) }
	b.lines = func(l *lineSet, e2e endToEnd) {
		l.add("cells_per_s", e2e.okPerSecond(), "1/s")
		l.add("seq_running_ratio", e2e.quality, "ratio")
		l.latency("pass_p50_ms", "pass_tail_ms", e2e, 1, "ms")
	}
	return b, nil
}

// snapshotQuality is greedy_slowdown: the mean completion time of the
// choreo cells over the mean of their optimal references.
func snapshotQuality(results []sweep.Result) (float64, error) {
	var choreo, optimal float64
	for _, r := range results {
		if r.Algorithm == "choreo" && r.OptimalSeconds != nil {
			choreo += r.CompletionSeconds
			optimal += *r.OptimalSeconds
		}
	}
	if optimal <= 0 {
		return 0, fmt.Errorf("no choreo cell has a positive optimal reference")
	}
	return choreo / optimal, nil
}

// sequenceQuality is seq_running_ratio (§6.3): per sequence cell,
// choreo's total running time over random's on the same cell, and the
// median of that over the grid. The ratio of grid-wide totals would be
// dominated by the few most congested cells and move by a third from
// seed to seed.
func sequenceQuality(results []sweep.Result) (float64, error) {
	type cell struct {
		topology            string
		seed, inter, reeval int64
	}
	choreo, random := map[cell]float64{}, map[cell]float64{}
	for _, r := range results {
		c := cell{r.Topology, r.Seed, r.InterarrivalNs, r.ReevalNs}
		switch r.Algorithm {
		case "choreo":
			choreo[c] = r.CompletionSeconds
		case "random":
			random[c] = r.CompletionSeconds
		}
	}
	var ratios []float64
	for c, t := range choreo {
		if base := random[c]; base > 0 {
			ratios = append(ratios, t/base)
		}
	}
	if len(ratios) == 0 {
		return 0, fmt.Errorf("no sequence cell has a random baseline to compare with")
	}
	return median(ratios), nil
}

// newSweepBench builds the sub-grids and makes the set-up pass:
// it records each sub-grid's reference stream and the quality ratio.
func newSweepBench(base sweep.Grid, seeds []int64, quality func([]sweep.Result) (float64, error)) (*sweepBench, error) {
	b := &sweepBench{traced: durations{}}
	var all []sweep.Result
	for len(seeds) > 0 {
		g := base
		n := min(seedsPerPass, len(seeds))
		g.Seeds, seeds = seeds[:n], seeds[n:]
		sc, err := g.Expand()
		if err != nil {
			return nil, err
		}
		stream, results, _, err := sweepPass(g, nil, nil)
		if err != nil {
			return nil, err
		}
		if len(results) != len(sc) {
			return nil, fmt.Errorf("set-up pass emitted %d results for %d scenarios", len(results), len(sc))
		}
		b.grids = append(b.grids, g)
		b.want = append(b.want, len(sc))
		b.ref = append(b.ref, stream)
		all = append(all, results...)
	}
	q, err := quality(all)
	if err != nil {
		return nil, err
	}
	b.qual = q
	return b, nil
}

// sweepPass runs one RunStream pass of g into a stream buffer. With an
// observer it also times each StreamWriter.Result call into report.
func sweepPass(g sweep.Grid, o *obs.Observer, report durations) ([]byte, []sweep.Result, *sweep.Summary, error) {
	var buf bytes.Buffer
	sw := sweep.NewStreamWriter(&buf)
	hdr, err := g.Summary()
	if err != nil {
		return nil, nil, nil, err
	}
	if err := sw.Header(hdr); err != nil {
		return nil, nil, nil, err
	}
	var results []sweep.Result
	emit := func(r sweep.Result) error {
		results = append(results, r)
		if report == nil {
			return sw.Result(r)
		}
		start := time.Now()
		err := sw.Result(r)
		report.add("sweep.report_us", time.Since(start), 1e3)
		return err
	}
	sum, err := sweep.RunStream(g, sweep.RunOptions{Workers: workers, Emit: emit, Obs: o})
	if err != nil {
		return nil, nil, nil, err
	}
	if err := sw.Finish(sum.Algorithms); err != nil {
		return nil, nil, nil, err
	}
	return buf.Bytes(), results, sum, nil
}

// run makes passes until the deadline. A pass whose stream differs from
// the reference, or whose result count differs from the expansion,
// fails all its cells.
func (b *sweepBench) run(deadline time.Time, rec *recorder, tr *tracing) error {
	for time.Now().Before(deadline) {
		i := b.next
		b.next = (b.next + 1) % len(b.grids)
		sp := tr.span("bench.pass", obs.Int("grid", int64(i)))
		start := time.Now()
		var report durations
		if tr != nil {
			report = b.traced
		}
		stream, results, sum, err := sweepPass(b.grids[i], tr.observer(), report)
		took := time.Since(start)
		sp.End()
		if err != nil {
			return err
		}
		failed := int64(0)
		cerr := passError(stream, b.ref[i], len(results), b.want[i])
		if cerr != nil {
			failed = int64(b.want[i])
		}
		rec.add(int64(b.want[i]), failed, took, cerr)
		if tr != nil {
			b.hits += sum.Cache.Hits
			b.misses += sum.Cache.Misses
			util := tr.o.Metrics.Gauge("choreo_sweep_worker_utilization", "").Value()
			b.traced["sweep.utilization"] = append(b.traced["sweep.utilization"], util)
		}
	}
	return nil
}

// passError reports a pass that emitted the wrong number of results or
// a stream that is not byte-identical to the first pass.
func passError(stream, ref []byte, got, want int) error {
	if got != want {
		return fmt.Errorf("%w: pass emitted %d results for %d scenarios", errCheck, got, want)
	}
	if !bytes.Equal(stream, ref) {
		return fmt.Errorf("%w: pass stream differs from the first pass (%d vs %d bytes)", errCheck, len(stream), len(ref))
	}
	return nil
}

// layers reports what the traced passes saw inside the engine, then
// replays the grid's layers from outside.
func (b *sweepBench) layers(lm layerMetrics, tr *tracing) error {
	lm.setMeans(b.traced)
	if b.hits+b.misses > 0 {
		lm.set("envcache.hit_ratio", float64(b.hits)/float64(b.hits+b.misses))
	}
	return b.replay(lm, tr)
}

func (b *sweepBench) quality() float64 { return b.qual }

func (b *sweepBench) report(l *lineSet, e2e endToEnd) { b.lines(l, e2e) }

func (b *sweepBench) close() {}
