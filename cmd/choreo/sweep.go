package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"choreo/internal/core"
	"choreo/internal/obs"
	"choreo/internal/place"
	"choreo/internal/profiling"
	"choreo/internal/sweep"
	"choreo/internal/sweep/shard"
	"choreo/internal/units"
	"choreo/internal/workload"
)

// runSweep expands and executes a scenario grid across a worker pool.
//
// Reports are deterministic: the same flags and seeds produce
// byte-identical output regardless of -workers (CI diffs -workers 1
// against -workers 8 to enforce exactly that). One worker builds each
// cell group, and its scenarios then run on any worker, so every
// algorithm of a cell — and its optimal reference — shares one built
// and measured cloud; -cache-stats prints how many cells were built and
// how many scenarios reused one. The default
// collecting mode holds every scenario in memory; -stream switches to
// the incremental JSON-lines pipeline for grids too large for that;
// -shard i/n runs one deterministic slice of the grid as a
// self-describing JSONL shard for `choreo merge`; -resume skips every
// scenario that already has a result line in a prior (possibly
// interrupted) JSONL run. All human-facing progress goes to stderr, so
// `-out -` composes in shell pipelines.
//
// -mode sequence switches every cell from a single static placement
// (§6.2) to an in-sequence arrival/migration experiment (§6.3),
// crossing three extra dimensions: -interarrival, -seq-apps and
// -reeval. Each mode starts from its stock grid, sweep.Default or
// sweep.DefaultSequence, and only the flags the user sets override it;
// the flags' help derives its defaults from those grids.
//
// -backend live swaps the measurement plane: instead of building a
// simulated cloud per cell, every cell's VM slots map onto real
// choreo-agent addresses (-agents) and the rate matrix comes from
// packet trains over real sockets. The report schema, grid hashing,
// -stream/-shard/-resume and `choreo merge` machinery are identical,
// so a simulated and a live run of the same grid diff line for line —
// but the grid echo carries the backend, so the two can never be
// merged or resumed into each other.
func runSweep(args []string) (err error) {
	def, seqDef := sweep.Default(), sweep.DefaultSequence()
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	// dimension registers a flag shared by both modes, defaulting to the
	// snapshot grid's value and naming the sequence grid's where it
	// differs.
	dimension := func(name string, value func(sweep.Grid) string, usage string) *string {
		if seq := value(seqDef); seq != value(def) {
			usage += fmt.Sprintf(" (-mode sequence: %s)", seq)
		}
		return fs.String(name, value(def), usage)
	}
	mode := fs.String("mode", "snapshot", "cell mode: snapshot (§6.2 single placements) or sequence (§6.3 in-sequence arrivals + migration)")
	topologies := dimension("topologies", topologyList, "comma-separated provider profiles (see -list)")
	workloads := dimension("workloads", workloadList, "comma-separated workload presets (see -list)")
	algorithms := dimension("algorithms", algorithmList, "comma-separated placement algorithms (see -list)")
	seedSpec := fs.String("seeds", strconv.Itoa(len(def.Seeds)), "seed count (from -seed) or explicit comma list")
	baseSeed := fs.Int64("seed", def.Seeds[0], "base seed when -seeds is a count")
	vms := dimension("vms", vmList, "comma-separated tenant VM counts to sweep")
	apps := fs.Int("apps", def.Apps, "applications combined per scenario (0 = one generated app, or the whole trace; snapshot mode)")
	minTasks := fs.Int("min-tasks", def.MinTasks, "minimum tasks per generated application")
	maxTasks := fs.Int("max-tasks", def.MaxTasks, "maximum tasks per generated application")
	meanMB := dimension("mean-mb", meanMBList, "comma-separated mean transfer sizes (MB) to sweep")
	interarrival := fs.String("interarrival", durationList(seqDef.Interarrivals), "comma-separated mean Poisson inter-arrival times to sweep (sequence mode)")
	seqApps := fs.String("seq-apps", join(seqDef.SeqApps, strconv.Itoa), "comma-separated sequence lengths (applications per sequence) to sweep (sequence mode)")
	reeval := fs.String("reeval", durationList(seqDef.Reevals), "comma-separated §2.4 re-evaluation periods to sweep, 0 = never migrate (sequence mode)")
	migrationGain := fs.Float64("migration-gain", seqDef.MigrationGain, "minimum predicted relative improvement to migrate (sequence mode)")
	maxMigrations := fs.Int("max-migrations", seqDef.MaxMigrations, "migration cap per application (sequence mode)")
	model := fs.String("model", def.Model.String(), "rate model: hose or pipe")
	backendName := fs.String("backend", "sim", "measurement backend: sim (deterministic netsim cloud) or live (real choreo-agent mesh)")
	execute := fs.Bool("execute", false, "run every chosen placement as real bulk transfers over the agent fleet and record measured next to predicted completion (requires -backend live)")
	fleet := registerFleetFlags(fs)
	tracePath := fs.String("trace", "", "JSON trace file to replay as an extra workload")
	workers := fs.Int("workers", runtime.GOMAXPROCS(0), "worker pool size (0 = GOMAXPROCS)")
	optMaxTasks := fs.Int("optimal-max-tasks", def.OptimalMaxTasks, "compute the slowdown-vs-optimal reference up to this many tasks (a negative value disables it)")
	timing := fs.Bool("timing", false, "add wall-clock placement-latency aggregates (nondeterministic)")
	outPath := fs.String("out", "-", "report destination ('-' = stdout): JSON, or JSONL with -stream/-shard")
	csvPath := fs.String("csv", "", "also write a per-scenario CSV report here (collecting mode only)")
	stream := fs.Bool("stream", false, "write an incremental JSON-lines report to -out instead of collecting; excludes -csv")
	shardSpec := fs.String("shard", "", "run slice i/n of the grid (e.g. 2/3) and write a self-describing JSONL shard to -out for `choreo merge`")
	resumePath := fs.String("resume", "", "JSONL report or shard from a prior (possibly interrupted) run with the same flags; scenarios that already have a result line are not re-executed")
	cacheStats := fs.Bool("cache-stats", false, "print how many cells were built and how many scenarios reused one to stderr")
	events := fs.String("events", "", "write a schema'd JSONL span log (run/cell/build/measure/place/report, plus mesh/pair with -backend live and exec.placement/exec.transfer with -execute) to this file; validate with `choreo obs validate-events`")
	metricsPath := fs.String("metrics", "", "write the run's final Prometheus metrics exposition to this file; validate with `choreo obs validate-prom`")
	list := fs.Bool("list", false, "list valid topologies, workloads and algorithms, then exit")
	prof := profiling.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("sweep: unexpected arguments %q (-stream is a mode switch; the destination is -out)", fs.Args())
	}
	if *list {
		printGridHelp(os.Stdout)
		return nil
	}
	stopProf, err := prof.Start()
	if err != nil {
		return err
	}
	defer func() {
		if e := stopProf(); e != nil && err == nil {
			err = e
		}
	}()

	set := visited(fs)
	g := def
	switch *mode {
	case "snapshot":
		// A sequence-only flag on a snapshot sweep would be silently
		// ignored; fail with the fix instead.
		for _, name := range []string{"interarrival", "seq-apps", "reeval", "migration-gain", "max-migrations"} {
			if set[name] {
				return fmt.Errorf("-%s is a sequence dimension and the default -mode snapshot sweeps single static placements; add -mode sequence", name)
			}
		}
	case "sequence":
		g = seqDef
		if set["interarrival"] {
			if g.Interarrivals, err = parseDurationList(*interarrival); err != nil {
				return fmt.Errorf("-interarrival: %w", err)
			}
		}
		if set["seq-apps"] {
			if g.SeqApps, err = parseIntList(*seqApps); err != nil {
				return fmt.Errorf("-seq-apps: %w", err)
			}
		}
		if set["reeval"] {
			if g.Reevals, err = parseDurationList(*reeval); err != nil {
				return fmt.Errorf("-reeval: %w", err)
			}
		}
		if set["max-migrations"] {
			g.MaxMigrations = *maxMigrations
		}
		if set["migration-gain"] {
			g.MigrationGain = *migrationGain
		}
	default:
		return fmt.Errorf("unknown -mode %q (snapshot or sequence)", *mode)
	}
	// The engine reads a zero knob as "use the default"; accepting an
	// explicit 0 would silently turn it into that default.
	for _, z := range []struct {
		flag string
		zero bool
		fix  string
	}{
		{"min-tasks", *minTasks == 0, fmt.Sprintf("the default of %d; pass at least 2", def.MinTasks)},
		{"max-tasks", *maxTasks == 0, fmt.Sprintf("the default of %d; pass at least -min-tasks", def.MaxTasks)},
		{"optimal-max-tasks", *optMaxTasks == 0, fmt.Sprintf("the default of %d; to disable the optimal reference use -optimal-max-tasks -1", def.OptimalMaxTasks)},
		{"max-migrations", *maxMigrations == 0, fmt.Sprintf("the default cap of %d; to disable migration entirely use -reeval 0", seqDef.MaxMigrations)},
		{"migration-gain", *migrationGain == 0, fmt.Sprintf("the default threshold of %g; pass a value in (0, 1)", seqDef.MigrationGain)},
	} {
		if set[z.flag] && z.zero {
			return fmt.Errorf("-%s 0 would silently mean %s", z.flag, z.fix)
		}
	}
	if set["optimal-max-tasks"] {
		g.OptimalMaxTasks = *optMaxTasks
	}
	if set["apps"] {
		g.Apps = *apps
	}
	if set["min-tasks"] {
		g.MinTasks = *minTasks
	}
	if set["max-tasks"] {
		g.MaxTasks = *maxTasks
	}
	if set["timing"] {
		g.Timing = *timing
	}
	if set["vms"] {
		if g.VMCounts, err = parseIntList(*vms); err != nil {
			return fmt.Errorf("-vms: %w", err)
		}
	}
	if set["mean-mb"] {
		if g.MeanSizes, err = parseMBList(*meanMB); err != nil {
			return fmt.Errorf("-mean-mb: %w", err)
		}
	}
	if set["model"] {
		if g.Model, err = place.ParseModel(*model); err != nil {
			return fmt.Errorf("-model: %w", err)
		}
	}
	if set["topologies"] {
		if g.Topologies, err = byName(*topologies, sweep.TopologyByName); err != nil {
			return err
		}
	}
	if set["workloads"] {
		if g.Workloads, err = byName(*workloads, sweep.WorkloadByName); err != nil {
			return err
		}
	}
	if *tracePath != "" {
		f, err := os.Open(*tracePath)
		if err != nil {
			return err
		}
		tr, err := workload.ReadTrace(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", *tracePath, err)
		}
		g.Workloads = append(g.Workloads, sweep.TraceWorkload(tr))
	}
	if set["algorithms"] {
		if g.Algorithms, err = byName(*algorithms, sweep.AlgorithmByName); err != nil {
			return err
		}
	}
	if set["seeds"] || set["seed"] {
		if g.Seeds, err = sweep.ParseSeeds(*seedSpec, *baseSeed); err != nil {
			return err
		}
	}

	observer, closeEvents, err := eventsObserver(*events)
	if err != nil {
		return err
	}
	defer func() {
		if e := closeEvents(); e != nil && err == nil {
			err = fmt.Errorf("-events %s: %w", *events, e)
		}
	}()
	if *metricsPath != "" {
		// The events observer is trace-only; a metrics dump needs a live
		// registry for the run to record into.
		if observer == nil {
			observer = &obs.Observer{}
		}
		observer.Metrics = obs.NewRegistry()
		defer func() {
			if err != nil {
				return
			}
			if e := writeTo(*metricsPath, observer.Metrics.WritePrometheus); e != nil {
				err = fmt.Errorf("-metrics %s: %w", *metricsPath, e)
			}
		}()
	}

	switch *backendName {
	case "sim":
		// A live-only flag on a simulated sweep would be silently ignored;
		// fail with the fix instead.
		if *execute {
			return fmt.Errorf("-execute runs placements on a real agent fleet; add -backend live")
		}
		if err := fleetFlagMisuse(set, "add -backend live"); err != nil {
			return err
		}
	case "live":
		// Preflight the whole fleet before any cell is built: a sick
		// fleet surfaces as one error naming every unreachable agent.
		// Resumed runs skip it — a complete prior replays every cell
		// from the JSONL without contacting a single agent, and a
		// partial one still fails per-cell with the agent named.
		if *resumePath == "" {
			if err := fleet.preflight(context.Background()); err != nil {
				return err
			}
		}
		live, err := fleet.liveBackend(observer, *execute)
		if err != nil {
			return err
		}
		g.Backend = live
	default:
		return fmt.Errorf("unknown -backend %q (sim or live)", *backendName)
	}

	opts := sweep.RunOptions{Workers: *workers, Obs: observer}

	if *resumePath != "" {
		if *timing {
			return fmt.Errorf("-timing is incompatible with -resume (wall-clock latency does not survive JSONL)")
		}
		f, err := os.Open(*resumePath)
		if err != nil {
			return err
		}
		prior, err := shard.LoadPrior(g, f)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", *resumePath, err)
		}
		opts.Prefilled = prior
		fmt.Fprintf(os.Stderr, "resume: %d scenarios already have results in %s\n", len(prior), *resumePath)
	}

	if *shardSpec != "" {
		if *timing {
			return fmt.Errorf("-timing is incompatible with -shard (wall-clock latency does not survive merge)")
		}
		if *csvPath != "" {
			return fmt.Errorf("-shard emits a JSONL shard; drop -csv")
		}
		spec, err := shard.ParseSpec(*shardSpec)
		if err != nil {
			return err
		}
		return streamShard(g, opts, spec, *outPath, *cacheStats)
	}

	if *stream {
		if *csvPath != "" {
			return fmt.Errorf("-stream does not retain scenarios; drop -csv")
		}
		return streamSweep(g, opts, *outPath, *cacheStats)
	}

	start := time.Now()
	rep, err := sweep.RunCollect(g, opts)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	if err := writeTo(*outPath, rep.WriteJSON); err != nil {
		return err
	}
	if *csvPath != "" {
		if err := writeTo(*csvPath, rep.WriteCSV); err != nil {
			return err
		}
	}
	// Human summary on stderr so stdout stays machine-parseable.
	fmt.Fprint(os.Stderr, rep.String())
	printThroughput(len(rep.Scenarios), elapsed)
	if *cacheStats {
		printCacheStats(rep.Cache)
	}
	return nil
}

// printThroughput reports sweep throughput in cells/sec, the unit of
// perfbench's sweep workloads (ops_per_s in the BENCH_*.json files). It
// goes to stderr: wall-clock is nondeterministic, report bytes are not.
func printThroughput(cells int, elapsed time.Duration) {
	if sec := elapsed.Seconds(); sec > 0 && cells > 0 {
		fmt.Fprintf(os.Stderr, "sweep: %d cells in %s (%.1f cells/sec)\n",
			cells, elapsed.Round(time.Millisecond), float64(cells)/sec)
	}
}

// streamSweep runs the grid through the incremental JSON-lines pipeline:
// results hit the destination in expansion order as soon as they (and
// their predecessors) finish, so memory stays flat no matter the grid.
func streamSweep(g sweep.Grid, opts sweep.RunOptions, dest string, cacheStats bool) error {
	return writeTo(dest, func(w io.Writer) error {
		sw := sweep.NewStreamWriter(w)
		hdr, err := g.Summary()
		if err != nil {
			return err
		}
		if err := sw.Header(hdr); err != nil {
			return err
		}
		cells := 0
		opts.Emit = func(r sweep.Result) error {
			cells++
			return sw.Result(r)
		}
		start := time.Now()
		sum, err := sweep.RunStream(g, opts)
		if err != nil {
			return err
		}
		elapsed := time.Since(start)
		if err := sw.Finish(sum.Algorithms); err != nil {
			return err
		}
		fmt.Fprint(os.Stderr, sum.String())
		printThroughput(cells, elapsed)
		if cacheStats {
			printCacheStats(sum.Cache)
		}
		return nil
	})
}

// streamShard runs one planned slice of the grid and writes it as a
// self-describing JSONL shard: the full grid echo, the shard
// coordinates + grid hash, this slice's results in expansion order, and
// a completeness footer. `choreo merge` splices n such files back into
// the exact bytes of the unsharded streaming run.
func streamShard(g sweep.Grid, opts sweep.RunOptions, spec shard.Spec, dest string, cacheStats bool) error {
	include, err := shard.Plan(g, spec)
	if err != nil {
		return err
	}
	hdr, err := g.Summary()
	if err != nil {
		return err
	}
	return writeTo(dest, func(w io.Writer) error {
		sw, err := shard.NewWriter(w, hdr, spec, len(include))
		if err != nil {
			return err
		}
		opts.Include = func(i int) bool { return include[i] }
		opts.Emit = sw.Result
		sum, err := sweep.RunStream(g, opts)
		if err != nil {
			return err
		}
		if err := sw.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "shard %s: %d of %d scenarios\n", spec, len(include), hdr.Scenarios)
		fmt.Fprint(os.Stderr, sum.String())
		if cacheStats {
			printCacheStats(sum.Cache)
		}
		return nil
	})
}

func printCacheStats(stats sweep.CacheStats) {
	total := stats.Hits + stats.Misses
	pct := 0.0
	if total > 0 {
		pct = 100 * float64(stats.Hits) / float64(total)
	}
	fmt.Fprintf(os.Stderr, "cells: %d built, %d scenarios reused one (%.0f%% of scenarios)\n",
		stats.Misses, stats.Hits, pct)
	if stats.MeasurementHits > 0 {
		fmt.Fprintf(os.Stderr, "cells: %d clouds measured, %d measurements shared across arrival-process cells\n",
			stats.MeasurementMisses, stats.MeasurementHits)
	}
}

// printGridHelp renders the -list output: every valid dimension value
// and which dimension flags cross in each mode.
func printGridHelp(w io.Writer) {
	fmt.Fprintf(w, "modes:      snapshot (default: one static placement per cell, §6.2)\n")
	fmt.Fprintf(w, "            sequence (in-sequence arrivals + re-evaluation/migration, §6.3)\n")
	fmt.Fprintf(w, "backends:   sim (default: deterministic netsim cloud)\n")
	fmt.Fprintf(w, "            live (real choreo-agent mesh via -agents; snapshot mode only;\n")
	fmt.Fprintf(w, "             completion times are the predicted objective on the measured rates)\n")
	fmt.Fprintf(w, "topologies: %s\n", strings.Join(sweep.TopologyNames(), ", "))
	fmt.Fprintf(w, "            (fattree-K takes any even K >= 2; jellyfish-N any N >= 4 switches)\n")
	fmt.Fprintf(w, "workloads:  %s (or -trace file.json; traces are snapshot-only)\n", strings.Join(sweep.WorkloadNames(), ", "))
	fmt.Fprintf(w, "algorithms: %s\n", strings.Join(core.AlgorithmNames(), ", "))
	fmt.Fprintf(w, "models:     %v, %v\n", place.Hose, place.Pipe)
	fmt.Fprintf(w, "dimensions: snapshot: -topologies x -workloads x -vms x -mean-mb x -algorithms x -seeds\n")
	fmt.Fprintf(w, "            sequence: -topologies x -workloads x -vms x -mean-mb x -interarrival x -seq-apps x -reeval x -algorithms x -seeds\n")
	fmt.Fprintf(w, "            (sequence scalar knobs, not swept: -migration-gain, -max-migrations;\n")
	seq := sweep.DefaultSequence()
	fmt.Fprintf(w, "             unset -topologies/-workloads/-vms/-mean-mb default to %s / %s / %s / %s in sequence mode)\n",
		topologyList(seq), workloadList(seq), vmList(seq), meanMBList(seq))
}

// join renders a grid dimension as a flag's comma list.
func join[T any](xs []T, format func(T) string) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = format(x)
	}
	return strings.Join(parts, ",")
}

func topologyList(g sweep.Grid) string {
	return join(g.Topologies, func(t sweep.Topology) string { return t.Name })
}

func workloadList(g sweep.Grid) string {
	return join(g.Workloads, func(w sweep.Workload) string { return w.Name })
}

func algorithmList(g sweep.Grid) string {
	return join(g.Algorithms, core.Algorithm.Name)
}

func vmList(g sweep.Grid) string { return join(g.VMCounts, strconv.Itoa) }

func meanMBList(g sweep.Grid) string {
	return join(g.MeanSizes, func(b units.ByteSize) string { return strconv.FormatFloat(float64(b)/1e6, 'g', -1, 64) })
}

func durationList(ds []time.Duration) string { return join(ds, time.Duration.String) }

// writeTo opens dest ('-' = stdout) and runs write against it,
// surfacing close errors — a failed close can lose buffered bytes.
func writeTo(dest string, write func(io.Writer) error) error {
	if dest == "-" {
		return write(os.Stdout)
	}
	f, err := os.Create(dest)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// splitList splits a comma list, trimming blanks.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// parseList parses a non-empty comma list with the given element parser.
func parseList[T any](s string, parse func(string) (T, error)) ([]T, error) {
	var out []T
	for _, part := range splitList(s) {
		v, err := parse(part)
		if err != nil {
			return nil, fmt.Errorf("bad value %q", part)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list")
	}
	return out, nil
}

func parseIntList(s string) ([]int, error) { return parseList(s, strconv.Atoi) }

// parseMBList parses a comma list of decimal megabytes.
func parseMBList(s string) ([]units.ByteSize, error) {
	return parseList(s, func(v string) (units.ByteSize, error) {
		mb, err := strconv.ParseFloat(v, 64)
		return units.ByteSize(mb * 1e6), err
	})
}

// byName looks up every name of a comma list.
func byName[T any](s string, lookup func(string) (T, error)) ([]T, error) {
	var out []T
	for _, name := range splitList(s) {
		v, err := lookup(name)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// parseDurationList parses a comma list of Go durations; a bare "0" is
// accepted (the -reeval spelling for "never").
func parseDurationList(s string) ([]time.Duration, error) {
	return parseList(s, func(v string) (time.Duration, error) {
		if v == "0" {
			return 0, nil
		}
		return time.ParseDuration(v)
	})
}
