package sweep

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"choreo/internal/core"
	"choreo/internal/ilp"
	"choreo/internal/obs"
	"choreo/internal/place"
	"choreo/internal/profile"
	"choreo/internal/sweep/backend"
	"choreo/internal/sweep/sequence"
	"choreo/internal/topology"
	"choreo/internal/workload"
)

// Result is one scenario's outcome. Every exported-and-serialized field
// is a pure function of the grid and the seed; the wall-clock placement
// latency is kept out of the JSON encoding so reports stay
// byte-reproducible across runs and worker counts.
type Result struct {
	Topology  string `json:"topology"`
	Workload  string `json:"workload"`
	Algorithm string `json:"algorithm"`
	Seed      int64  `json:"seed"`
	VMs       int    `json:"vms"`
	// MeanBytes is the swept mean transfer size the cell's workload was
	// generated with (the recorded sizes for trace workloads).
	MeanBytes int64 `json:"meanBytes"`
	// InterarrivalNs, SeqApps and ReevalNs are a sequence cell's swept
	// arrival-process and migration-policy coordinates (mean Poisson
	// interarrival and §2.4 re-evaluation period in nanoseconds;
	// ReevalNs 0 = no re-evaluation). All absent on snapshot cells, so
	// snapshot result lines are byte-identical to what they were before
	// sequence mode existed.
	InterarrivalNs int64 `json:"interarrivalNs,omitempty"`
	SeqApps        int   `json:"seqApps,omitempty"`
	ReevalNs       int64 `json:"reevalNs,omitempty"`
	// Tasks counts the placed tasks: the (combined) application's size
	// in snapshot mode, the whole arrival sequence's total in sequence
	// mode.
	Tasks int `json:"tasks"`
	// CompletionSeconds is the scenario's simulated outcome metric:
	// the application's completion time under this placement in
	// snapshot mode (§6.2's metric, measurement excluded), and the sum
	// of per-application running times in sequence mode (§6.3's
	// total-running metric).
	CompletionSeconds float64 `json:"completionSeconds"`
	// OptimalSeconds is the executed completion time of the exact
	// branch-and-bound optimum (of the predicted objective) on the
	// identical cloud. Nil (absent in JSON) when no reference was
	// computed — the app was too large or the search budget ran out;
	// a present 0 is a real value (the optimum fully colocates).
	OptimalSeconds *float64 `json:"optimalSeconds,omitempty"`
	// Slowdown is CompletionSeconds / OptimalSeconds. 1.0 means the
	// scenario matched the optimum; values slightly below 1 are real
	// (the reference minimizes predicted, not executed, time). Nil
	// when no finite ratio exists: no reference was computed, or the
	// reference is 0 s and the scenario's completion is not.
	Slowdown *float64 `json:"slowdown,omitempty"`
	// PredictedSeconds and MeasuredSeconds record an executed scenario's
	// predicted completion next to the wall clock its flows took as real
	// transfers (live backend with execution on). ErrorPct is
	// 100 × (predicted − measured) / measured — positive means the model
	// over-predicted. All absent on sim and predicted-only rows, so those
	// lines are byte-identical to the pre-execution schema.
	PredictedSeconds *float64 `json:"predictedSeconds,omitempty"`
	MeasuredSeconds  *float64 `json:"measuredSeconds,omitempty"`
	ErrorPct         *float64 `json:"errorPct,omitempty"`
	// Migrations counts the migrations a sequence cell performed across
	// its whole arrival sequence (absent on snapshot cells and on
	// sequence cells that never migrated).
	Migrations int `json:"migrations,omitempty"`
	// Apps holds a sequence cell's per-application event records in
	// arrival order: arrival time, running time, migration count. Absent
	// on snapshot cells.
	Apps []sequence.AppEvent `json:"apps,omitempty"`
	// PlaceLatency is the wall-clock time the placement algorithm took
	// (summed over every arrival's measure+place in sequence mode).
	// Deliberately excluded from JSON: see Grid.Timing.
	PlaceLatency time.Duration `json:"-"`
}

// CellKey returns the scenario's cell key. Scenarios with equal keys
// differ only in algorithm (and re-evaluation period); the shard planner
// strides them across machines as one unit. Call after Expand, which
// fills the defaulted knobs the key covers. Non-sim backends also stamp
// their name and mesh epoch into the key (see CellKey.Backend).
func (g *Grid) CellKey(sc Scenario) CellKey {
	key := CellKey{
		Topology:     sc.Topology.Name,
		Workload:     sc.Workload.Name,
		CloudSeed:    sc.cloudSeed(),
		VMs:          sc.VMs,
		MeanBytes:    int64(sc.MeanBytes),
		MinTasks:     g.MinTasks,
		MaxTasks:     g.MaxTasks,
		Apps:         g.Apps,
		Interarrival: int64(sc.Interarrival),
		SeqApps:      sc.SeqApps,
	}
	if b := g.backend(); b.Name() != "sim" {
		key.Backend = b.Name()
		key.Epoch = b.MeshEpoch()
	}
	return key
}

// backendCell names the scenario's measurement target for the backend;
// cloud is the cell's simulated cloud (nil on live backends).
func (g *Grid) backendCell(sc Scenario, cloud *topology.Provider) backend.Cell {
	return backend.Cell{
		Topology: sc.Topology.Name,
		Profile:  sc.Topology.Profile,
		VMs:      sc.VMs,
		Seed:     sc.cloudSeed(),
		Cloud:    cloud,
	}
}

// buildApplication draws (or replays) the scenario's placement problem.
func (g *Grid) buildApplication(sc Scenario, seed int64) (*profile.Application, error) {
	var apps []*profile.Application
	if tr := sc.Workload.Trace; tr != nil {
		all, err := tr.ToApplications()
		if err != nil {
			return nil, err
		}
		n := g.Apps
		if n <= 0 || n > len(all) {
			n = len(all)
		}
		apps = all[:n]
	} else {
		cfg := workload.Config{
			MinTasks:  g.MinTasks,
			MaxTasks:  g.MaxTasks,
			MeanBytes: sc.MeanBytes,
			Patterns:  sc.Workload.Patterns,
		}
		n := g.Apps
		if n <= 0 {
			n = 1
		}
		// The workload rng is offset from the cloud rng so the two
		// streams never alias.
		rng := rand.New(rand.NewSource(seed + 2))
		for i := 0; i < n; i++ {
			app, err := workload.Generate(rng, cfg)
			if err != nil {
				return nil, fmt.Errorf("sweep: generating %s: %w", sc.Workload.Name, err)
			}
			apps = append(apps, app)
		}
	}
	if len(apps) == 1 {
		return apps[0], nil
	}
	combined, _, err := profile.Combine(apps)
	return combined, err
}

// place runs the scenario's placement policy against the measured cell.
// rng drives the Random baseline and is nil for every other algorithm;
// runScenario seeds it freshly from the cell seed (offset +1, the stream
// the orchestrator's rng always used) so placements are identical across
// backends, worker counts and the other algorithms run on the cell.
func (g *Grid) place(sc Scenario, c *cell, rng *rand.Rand) (place.Placement, error) {
	if !sc.Algorithm.ILP {
		return core.PlaceWith(c.app, c.env, sc.Algorithm.Core, g.Model, rng)
	}
	in, err := placementInput(c.app, c.env)
	if err != nil {
		return place.Placement{}, err
	}
	prog, err := ilp.BuildPlacement(in)
	if err != nil {
		return place.Placement{}, err
	}
	sol, err := ilp.Solve(prog.Problem, g.OptimalMaxNodes)
	if err != nil {
		return place.Placement{}, fmt.Errorf("sweep: ilp: %w", err)
	}
	machineOf, err := prog.DecodeAssignment(sol)
	if err != nil {
		return place.Placement{}, fmt.Errorf("sweep: ilp: %w", err)
	}
	return place.Placement{MachineOf: machineOf}, nil
}

// placementInput converts a measured environment and application into
// the Appendix program's data.
func placementInput(app *profile.Application, env *place.Environment) (*ilp.PlacementInput, error) {
	j, m := app.Tasks(), env.Machines()
	in := &ilp.PlacementInput{
		BytesB:    make([][]float64, j),
		RateR:     make([][]float64, m),
		CPUDemand: append([]float64(nil), app.CPU...),
		CPUCap:    append([]float64(nil), env.CPUCap...),
	}
	for a := 0; a < j; a++ {
		in.BytesB[a] = make([]float64, j)
		for b := 0; b < j; b++ {
			in.BytesB[a][b] = float64(app.TM.At(a, b))
		}
	}
	for a := 0; a < m; a++ {
		in.RateR[a] = make([]float64, m)
		for b := 0; b < m; b++ {
			in.RateR[a][b] = float64(env.Rates[a][b])
		}
	}
	return in, nil
}

// sequenceParams collects a sequence scenario's cell parameters: the
// swept arrival and re-evaluation coordinates plus the grid's scalar
// migration knobs.
func (g *Grid) sequenceParams(sc Scenario) sequence.Params {
	return sequence.Params{
		Apps:          sc.SeqApps,
		Interarrival:  sc.Interarrival,
		Reeval:        sc.Reeval,
		MigrationGain: g.MigrationGain,
		MaxMigrations: g.MaxMigrations,
	}
}

// runOn runs sc on its built cell.
func (g *Grid) runOn(ctx context.Context, sc Scenario, c *cell, ro *runObs) (Result, error) {
	if g.Mode == Sequence {
		return g.runSequenceScenario(sc, c, ro)
	}
	return g.runScenario(ctx, sc, c, ro)
}

// runSequenceScenario executes one sequence scenario on its built cell:
// play the arrival sequence with the scenario's algorithm on a fresh
// simulator over the cell's cloud — the cloud its measurement saw, with
// no traffic on it yet — placing each application as it arrives under
// the live cross traffic of the ones already running, and migrating
// when re-evaluation predicts enough gain. Each run re-measures on its
// own clone of the cell's measurement. The orchestrator's rng is seeded
// from the cell seed (offset +1) for every run, so the algorithms of a
// cell group draw the same measurement noise. There is no optimal
// reference: the §6.3 comparison is total running time across
// algorithms, not slowdown vs. an optimum.
func (g *Grid) runSequenceScenario(sc Scenario, c *cell, ro *runObs) (Result, error) {
	exec, err := core.NewOnCloud(c.cloud, sc.cloudSeed(), core.Options{Model: g.Model})
	if err != nil {
		return Result{}, fmt.Errorf("sweep: %s: %w", sc.Topology.Name, err)
	}
	execStart := time.Now()
	cres, err := sequence.Run(exec, c.seq, sc.Algorithm.Core, c.env.Clone(), g.sequenceParams(sc))
	ro.phase("execute", execStart)
	if err != nil {
		return Result{}, fmt.Errorf("sweep: sequence %s/%s/%s seed %d: %w",
			sc.Topology.Name, sc.Workload.Name, sc.Algorithm.Name, sc.Seed, err)
	}
	tasks := 0
	for _, app := range c.seq {
		tasks += app.Tasks()
	}
	return Result{
		Topology:          sc.Topology.Name,
		Workload:          sc.Workload.Name,
		Algorithm:         sc.Algorithm.Name,
		Seed:              sc.Seed,
		VMs:               sc.VMs,
		MeanBytes:         int64(sc.MeanBytes),
		InterarrivalNs:    int64(sc.Interarrival),
		SeqApps:           sc.SeqApps,
		ReevalNs:          int64(sc.Reeval),
		Tasks:             tasks,
		CompletionSeconds: cres.TotalRunningSeconds,
		Migrations:        cres.Migrations,
		Apps:              cres.Apps,
		PlaceLatency:      cres.PlaceLatency,
	}, nil
}

// runScenario executes one snapshot scenario on its built cell: place
// with the scenario's algorithm, execute the placement through the
// backend (simulated byte transfer on sim, predicted completion on
// live), and attach the slowdown-vs-optimal reference the cell carries.
func (g *Grid) runScenario(ctx context.Context, sc Scenario, c *cell, ro *runObs) (Result, error) {
	var rng *rand.Rand
	if sc.Algorithm.Core == core.AlgRandom && !sc.Algorithm.ILP {
		rng = rand.New(rand.NewSource(sc.cloudSeed() + 1))
	}
	pspan := ro.o.StartSpan(obs.SpanFromContext(ctx), "sweep.place",
		obs.String("algorithm", sc.Algorithm.Name))
	start := time.Now()
	p, err := g.place(sc, c, rng)
	latency := time.Since(start)
	if err != nil {
		pspan.End(obs.String("outcome", "error"))
		return Result{}, fmt.Errorf("sweep: placing %s/%s/%s seed %d: %w",
			sc.Topology.Name, sc.Workload.Name, sc.Algorithm.Name, sc.Seed, err)
	}
	pspan.End(obs.String("outcome", "ok"))
	ro.phaseSeconds.With("place").Observe(latency.Seconds()) // the result's latency, not re-timed
	execStart := time.Now()
	exec, err := g.backend().Execute(ctx, g.backendCell(sc, c.cloud), c.app, c.env, p, g.Model)
	if err != nil {
		return Result{}, fmt.Errorf("sweep: executing %s/%s/%s seed %d: %w",
			sc.Topology.Name, sc.Workload.Name, sc.Algorithm.Name, sc.Seed, err)
	}
	ro.phase("execute", execStart)

	res := Result{
		Topology:          sc.Topology.Name,
		Workload:          sc.Workload.Name,
		Algorithm:         sc.Algorithm.Name,
		Seed:              sc.Seed,
		VMs:               sc.VMs,
		MeanBytes:         int64(sc.MeanBytes),
		Tasks:             c.app.Tasks(),
		CompletionSeconds: exec.Completion.Seconds(),
		PlaceLatency:      latency,
	}
	if exec.Executed {
		pred, meas := exec.Predicted.Seconds(), exec.Measured.Seconds()
		res.PredictedSeconds = &pred
		res.MeasuredSeconds = &meas
		if meas > 0 {
			pct := 100 * (pred - meas) / meas
			res.ErrorPct = &pct
		}
		ro.acc.RecordExecution(sc.Algorithm.Name, sc.Topology.Name, pred, meas)
	}

	if g.OptimalMaxTasks > 0 && c.app.Tasks() <= g.OptimalMaxTasks {
		// The cell carries the reference its group computed, unless the
		// scenario ran the optimum itself: then its own completion is
		// the reference.
		opt, computed := c.ref, c.hasRef
		if sc.Algorithm.Core == core.AlgOptimal && !sc.Algorithm.ILP {
			opt, computed = res.CompletionSeconds, true
		}
		if computed {
			res.OptimalSeconds = &opt
			switch {
			case opt > 0:
				ratio := res.CompletionSeconds / opt
				res.Slowdown = &ratio
			case res.CompletionSeconds == 0:
				// Both placements execute instantly (fully colocated):
				// a tie, not an undefined ratio.
				one := 1.0
				res.Slowdown = &one
			}
			// opt == 0 with a positive completion has no finite ratio;
			// Slowdown stays nil.
		}
	}
	return res, nil
}

// computeReference computes the completion time of the exact optimum —
// the placement minimizing the paper's *predicted* completion-time
// objective — executed through the backend on the identical cloud, so
// every algorithm in a cell group is compared against the identical
// reference. (Because the reference optimizes the prediction, a
// heuristic can occasionally execute faster than it on the simulator;
// slowdowns slightly below 1 are genuine.) The second return reports
// whether a reference was computed at all (branch and bound can exhaust
// its node budget). The value is a pure function of the cell, which is
// what lets buildGroup compute it once for all of the cell's scenarios.
func (g *Grid) computeReference(ctx context.Context, sc Scenario, c *cell) (float64, bool, error) {
	p, err := place.Optimal(c.app, c.env, g.Model, g.OptimalMaxNodes)
	if errors.Is(err, place.ErrSearchBudget) {
		// The search ran out of nodes: report no reference rather than
		// a wrong one. Any other failure is real and must surface.
		return 0, false, nil
	}
	if err != nil {
		return 0, false, err
	}
	exec, err := g.backend().Execute(ctx, g.backendCell(sc, c.cloud), c.app, c.env, p, g.Model)
	if err != nil {
		return 0, false, err
	}
	return exec.Completion.Seconds(), true, nil
}

// RunOptions configures a sweep execution.
type RunOptions struct {
	// Context, when non-nil, is threaded through every backend
	// measurement and execution, so a caller embedding the sweep engine
	// (or a long live run) can cancel in-flight mesh measurements. Nil
	// means context.Background() — the one-shot CLI behaviour.
	Context context.Context
	// Workers is the pool size; <= 0 means GOMAXPROCS.
	Workers int
	// Emit, when non-nil, receives every Result in expansion order, each
	// as soon as it and all its predecessors have completed — the
	// streaming hook the incremental report writer hangs off.
	Emit func(Result) error
	// Include, when non-nil, restricts the run to the expansion indices
	// it returns true for — the hook shard slices hang off. Excluded
	// scenarios are neither executed nor emitted and do not count toward
	// aggregates; included ones still stream in expansion order.
	Include func(i int) bool
	// Prefilled maps expansion indices to results already known from a
	// prior (possibly interrupted) run. Those scenarios are not
	// re-executed; their results flow through Emit and the aggregates at
	// their expansion position exactly as a fresh execution would, so a
	// resumed run reproduces the uninterrupted run's bytes. Entries for
	// indices the run does not include are ignored.
	Prefilled map[int]Result
	// Obs, when non-nil, instruments the run: cell/phase histograms,
	// reorder-buffer depth and worker-utilization gauges in its registry,
	// run/cell/build/measure/place/report spans in its tracer. The
	// emitted result bytes are identical with or without it —
	// TestObservabilityOffDataPath enforces that.
	Obs *obs.Observer
}

// RunStream expands the grid and executes every scenario across the
// worker pool, streaming results through opts.Emit in expansion order
// and aggregating incrementally. Returns the grid echo, per-algorithm
// aggregates and the cell-sharing counts.
//
// One worker builds each cell group (Grid.buildGroup): the to-run
// scenarios whose cell keys share a MeasurementKey, in first-appearance
// order — one cell for snapshot and live keys; for sequence keys also
// the cells that differ only in interarrival or sequence length, which
// share one cloud. The built cells are read-only, so the group's
// scenarios then run on any worker, and the cells go out of scope with
// the last of them. That has two costs:
//
//   - A group's scenarios wait until one worker has built all of its
//     cells and optimal references.
//   - A deeper reorder buffer. A group's results are spread over an
//     expansion block (algorithms × seeds × sequence coordinates), so
//     the buffer holds about one block, more while a slow group holds
//     the front back, rather than the workers' skew. Streaming the
//     default grids with -seeds 64 (snapshot, 192-result blocks) and
//     -seeds 32 (sequence, 384) on 2 vCPUs peaked at 181–580 and
//     339–520 results at 2 and 8 workers, against 65–188 and 17–68
//     with scenarios as the unit of building.
//
// Full Results are otherwise not retained: what grows with grid size is
// the expanded scenario list, which already exceeds any expansion
// block, and a few float64s per scenario for the percentile aggregates,
// so streaming sweeps are bounded by disk long before memory.
func RunStream(g Grid, opts RunOptions) (*Summary, error) {
	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	scenarios, err := g.Expand()
	if err != nil {
		return nil, err
	}
	// included: the expansion indices this run covers, in order (a shard
	// slice, or the whole grid); a scenario's position in it is its
	// position in the emitted stream. groups partitions the positions
	// that are not prefilled — only those execute; prefilled results
	// replay through the same ordered delivery below.
	var included []int
	var groups [][]int
	groupOf := make(map[CellKey]int)
	for i := range scenarios {
		if opts.Include != nil && !opts.Include(i) {
			continue
		}
		included = append(included, i)
		if _, done := opts.Prefilled[i]; done {
			continue
		}
		key := g.CellKey(scenarios[i]).MeasurementKey()
		gi, ok := groupOf[key]
		if !ok {
			gi = len(groups)
			groupOf[key] = gi
			groups = append(groups, nil)
		}
		groups[gi] = append(groups[gi], len(included)-1)
	}

	ro := newRunObs(opts.Obs)
	wallStart := time.Now()
	ro.start(&g, len(scenarios), opts.Workers)
	outcome := "error"
	defer func() { ro.finish(time.Since(wallStart), outcome) }()

	agg := NewAggregator(g.algorithmNames(), g.Timing)

	// Reorder buffer: workers finish out of order, the stream is emitted
	// in expansion order. Holding completed-but-not-yet-due results in a map
	// bounds its size by about one expansion block (see above), not grid
	// size — and once the run is doomed (a scenario or the emit
	// destination failed, so the output will be discarded), the buffer
	// is dropped and the rest of the grid skipped rather than simulated
	// into the void.
	var mu sync.Mutex
	pending := make(map[int]Result)
	next := 0
	var emitErr error
	var aborted atomic.Bool
	deliver := func(pos int, r Result) {
		mu.Lock()
		defer mu.Unlock()
		if aborted.Load() || emitErr != nil {
			return
		}
		pending[pos] = r
		ro.reorderDepth.Set(float64(len(pending)))
		for {
			due, ok := pending[next]
			if !ok {
				return
			}
			delete(pending, next)
			ro.reorderDepth.Set(float64(len(pending)))
			next++
			agg.Add(due)
			if opts.Emit != nil {
				rspan := ro.o.StartSpan(ro.runSpan, "sweep.report", obs.Int("pos", int64(next-1)))
				reportStart := time.Now()
				emitErr = opts.Emit(due)
				ro.phase("report", reportStart)
				if emitErr != nil {
					// The destination is gone (full disk, closed pipe).
					rspan.End(obs.String("outcome", "error"))
					aborted.Store(true)
					pending = nil
					return
				}
				rspan.End(obs.String("outcome", "ok"))
			}
		}
	}

	// Seed the buffer with the prior run's results; leading ones flush
	// to the destination immediately, interleaved ones wait for their
	// predecessors like any other completed-but-not-due result.
	for pos, i := range included {
		if r, done := opts.Prefilled[i]; done {
			deliver(pos, r)
		}
	}

	// Each group is built on one worker; its scenarios then go back to
	// the pool, each running on its built cell. The cells are read-only
	// by then, and they go out of scope with the group's last scenario.
	type job struct {
		pos int
		c   *cell
	}
	abort := func() {
		aborted.Store(true)
		mu.Lock()
		pending = nil
		mu.Unlock()
	}
	bctx := ctx
	if ro.runSpan.ID() != 0 {
		bctx = obs.ContextWithSpan(ctx, ro.runSpan)
	}
	var stats CacheStats
	err = fanOut(len(groups), opts.Workers, func(k int) ([]job, error) {
		if aborted.Load() {
			return nil, nil
		}
		scs := make([]Scenario, len(groups[k]))
		for j, pos := range groups[k] {
			scs[j] = scenarios[included[pos]]
		}
		buildStart := time.Now()
		cells, counts, err := g.buildGroup(bctx, scs, ro)
		ro.busyNs.Add(time.Since(buildStart).Nanoseconds())
		if err != nil {
			abort()
			return nil, err
		}
		mu.Lock()
		stats.add(counts)
		mu.Unlock()
		jobs := make([]job, len(cells))
		for j, pos := range groups[k] {
			jobs[j] = job{pos, cells[j]}
		}
		return jobs, nil
	}, func(jb job) error {
		if aborted.Load() {
			return nil
		}
		sc := scenarios[included[jb.pos]]
		span := ro.cellSpan(sc)
		cctx := ctx
		if span.ID() != 0 {
			cctx = obs.ContextWithSpan(ctx, span)
		}
		cellStart := time.Now()
		r, err := g.runOn(cctx, sc, jb.c, ro)
		if err != nil {
			span.End(obs.String("outcome", "error"))
			abort()
			return err
		}
		ro.cellDone(time.Since(cellStart))
		span.End(obs.String("outcome", "ok"))
		deliver(jb.pos, r)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if emitErr != nil {
		return nil, fmt.Errorf("sweep: emitting results: %w", emitErr)
	}
	aggs, err := agg.Aggregates()
	if err != nil {
		return nil, err
	}
	outcome = "ok"
	return &Summary{
		Grid:       g.summary(len(scenarios)),
		Algorithms: aggs,
		Cache:      stats,
	}, nil
}

// Run expands the grid and executes every scenario across the worker
// pool, collecting the full per-scenario report in memory (the
// convenient API for modest grids; RunStream is the bounded-memory one).
func Run(g Grid, workers int) (*Report, error) {
	return RunCollect(g, RunOptions{Workers: workers})
}

// RunCollect is Run with full options: it layers result collection on
// top of RunStream, preserving any caller Emit hook.
func RunCollect(g Grid, opts RunOptions) (*Report, error) {
	var results []Result
	inner := opts.Emit
	opts.Emit = func(r Result) error {
		results = append(results, r)
		if inner != nil {
			return inner(r)
		}
		return nil
	}
	sum, err := RunStream(g, opts)
	if err != nil {
		return nil, err
	}
	return &Report{
		Grid:       sum.Grid,
		Scenarios:  results,
		Algorithms: sum.Algorithms,
		Cache:      sum.Cache,
	}, nil
}
