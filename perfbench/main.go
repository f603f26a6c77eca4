// Command perfbench is the repository benchmark. One process runs one
// named workload against the choreo packages built from this checkout,
// checks every output it measures, and prints each metric by name and
// unit. The last line of standard output is one JSON object:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"name":{"value":v,"unit":"u"},...}}
//
// With --trace 0 the metrics are the end-to-end set (see README.md);
// with --trace 1 they are the per-layer set, taken from a traced run
// that alternates traced and untraced segments so the tracing overhead
// is measured in the same process.
//
// Run it through run.sh, which builds it from source:
//
//	bash perfbench/run.sh --workload serve_place --seed 7 --seconds 15 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workers is the sweep pool size and the service's client count: the
// reference host has two cores, and every workload keeps both busy.
const workers = 2

// options is one benchmark invocation.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// out is where the traced run writes its span log.
	out string
	// setups is how many times set-up runs; setup_s is their median.
	setups int
	// small shrinks every workload's inputs; the package tests use it.
	small bool
}

// instance is one workload after set-up.
type instance interface {
	// run drives the timed phase until deadline, recording every op. tr
	// is nil on untraced segments.
	run(deadline time.Time, rec *recorder, tr *tracing) error
	// quality is the workload's deterministic placement-quality ratio
	// (lower is better), fixed at set-up.
	quality() float64
	// layers times the workload's layer functions from outside and adds
	// the per-layer metrics the traced segments cannot see.
	layers(lm layerMetrics, tr *tracing) error
	// report adds the end-to-end lines under the workload's own names.
	report(lines *lineSet, e2e endToEnd)
	close()
}

// workloadDef names one workload and how to set it up. tr is non-nil
// in a traced run, for workloads whose observer is fixed at build time.
type workloadDef struct {
	name  string
	op    string // what one op is, for the printed lines
	setup func(o options, tr *tracing) (instance, error)
}

var workloads = []workloadDef{
	{name: "sweep_snapshot", op: "cell", setup: setupSweepSnapshot},
	{name: "sweep_sequence", op: "cell", setup: setupSweepSequence},
	{name: "serve_place", op: "request", setup: setupServe},
	{name: "live_mesh", op: "epoch", setup: setupLive},
}

func workloadByName(name string) (workloadDef, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (valid: %s)", name, strings.Join(names, ", "))
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	o := options{setups: 3}
	flag.StringVar(&o.workload, "workload", "", "workload to run: sweep_snapshot, sweep_sequence, serve_place, live_mesh")
	flag.Int64Var(&o.seed, "seed", 1, "seed every input is generated from")
	flag.Float64Var(&o.seconds, "seconds", 15, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced run and prints the per-layer metrics")
	flag.StringVar(&o.out, "out", ".bench_build/perfbench", "directory for the traced run's span log")
	flag.Parse()
	o.trace = *trace == 1
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	if o.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		os.Exit(2)
	}
	res, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run sets the workload up o.setups times, runs the timed phase and
// returns the result. Human-readable lines go to w.
func run(o options, w io.Writer) (*result, error) {
	def, err := workloadByName(o.workload)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "# perfbench %s\n", hostRecord(o))

	var tr *tracing
	if o.trace {
		tr = newTracing()
	}
	var inst instance
	var setups []float64
	for i := 0; i < o.setups; i++ {
		if inst != nil {
			inst.close()
		}
		start := time.Now()
		inst, err = def.setup(o, tr)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", o.workload, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer inst.close()

	lines := &lineSet{workload: o.workload}
	lines.add("setup_s", median(setups), "s")
	if !o.trace {
		rec := &recorder{}
		e2e, err := timed(inst, rec, o.seconds, nil)
		if err != nil {
			return nil, err
		}
		e2e.setup = median(setups)
		e2e.quality = inst.quality()
		inst.report(lines, e2e)
		lines.add("alloc_kb_per_op", e2e.allocKB, "KiB")
		lines.add("fail_ratio", e2e.failRatio(), "ratio")
		lines.write(w, def.op, e2e)
		return e2e.result(), nil
	}

	// Traced run: alternate untraced and traced segments so both see the
	// same host conditions, then time the layers from outside.
	recU, recT := &recorder{}, &recorder{}
	const segments = 4
	seg := o.seconds / segments
	var untraced, traced time.Duration
	for i := 0; i < segments; i++ {
		rec, t, total := recU, (*tracing)(nil), &untraced
		if i%2 == 1 {
			rec, t, total = recT, tr, &traced
		}
		e, err := timed(inst, rec, seg, t)
		if err != nil {
			return nil, err
		}
		*total += e.elapsed
	}
	lm := layerMetrics{}
	for _, name := range perLayerNames {
		lm[name.name] = metric{Value: 0, Unit: name.unit}
	}
	if err := inst.layers(lm, tr); err != nil {
		return nil, err
	}
	spans, err := tr.finish(filepath.Join(o.out, fmt.Sprintf("spans-%s-%d.jsonl", o.workload, o.seed)))
	if err != nil {
		return nil, err
	}
	selfTimes(lm, spans, recT.ops)
	clusterSpans(lm, spans)
	lm.set("sweep.reorder_depth_max", reorderDepthMax(spans))
	uRate := float64(recU.ops-recU.failed) / untraced.Seconds()
	tRate := float64(recT.ops-recT.failed) / traced.Seconds()
	if uRate > 0 {
		lm.set("obs.overhead_pct", 100*(uRate-tRate)/uRate)
	}
	names := make([]string, 0, len(lm))
	for name := range lm {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "%s %s %s %s\n", o.workload, name, formatValue(lm[name].Value), lm[name].Unit)
	}
	reportFailures(recU)
	reportFailures(recT)
	failed := recU.failed + recT.failed
	return &result{
		Correct:   failed == 0,
		Attempted: recU.ops + recT.ops,
		Failed:    failed,
		Metrics:   lm,
	}, nil
}

// timed runs one timed segment of the given length and measures it.
func timed(inst instance, rec *recorder, seconds float64, tr *tracing) (endToEnd, error) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	okBefore, first := rec.ops-rec.failed, len(rec.samples)
	err := inst.run(start.Add(time.Duration(seconds*float64(time.Second))), rec, tr)
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	if err != nil {
		return endToEnd{}, err
	}
	e := endToEnd{rec: rec, elapsed: elapsed, sum: summarize(rec.samples[first:], start, elapsed)}
	if ok := rec.ops - rec.failed - okBefore; ok > 0 {
		e.allocKB = float64(after.TotalAlloc-before.TotalAlloc) / 1024 / float64(ok)
	}
	return e, nil
}

// endToEnd is one timed phase's measurement.
type endToEnd struct {
	rec     *recorder
	sum     summary
	elapsed time.Duration
	allocKB float64
	setup   float64
	quality float64
}

func (e endToEnd) okPerSecond() float64 { return e.sum.rate }

func (e endToEnd) failRatio() float64 {
	if e.rec.ops == 0 {
		return 0
	}
	return float64(e.rec.failed) / float64(e.rec.ops)
}

// result assembles the untraced run's final line: the end-to-end set,
// identical in name and unit for every workload.
func (e endToEnd) result() *result {
	reportFailures(e.rec)
	return &result{
		Correct:   e.rec.failed == 0 && e.rec.ops > 0,
		Attempted: e.rec.ops,
		Failed:    e.rec.failed,
		Metrics: map[string]metric{
			"setup_s":         {e.setup, "s"},
			"ops_per_s":       {e.okPerSecond(), "1/s"},
			"op_p50_ms":       {e.sum.p50, "ms"},
			"op_tail_ms":      {e.sum.tail, "ms"},
			"alloc_kb_per_op": {e.allocKB, "KiB"},
			"quality_ratio":   {e.quality, "ratio"},
		},
	}
}

func reportFailures(rec *recorder) {
	for _, f := range rec.failures {
		fmt.Fprintf(os.Stderr, "perfbench: failed op: %s\n", f)
	}
	if rec.failed > int64(len(rec.failures)) {
		fmt.Fprintf(os.Stderr, "perfbench: %d failed ops in total\n", rec.failed)
	}
}

// lineSet collects the human-readable "<workload> <metric> <value>
// <unit>" lines, printed under each workload's own metric names.
type lineSet struct {
	workload string
	lines    []string
}

func (l *lineSet) add(name string, v float64, unit string) {
	l.lines = append(l.lines, fmt.Sprintf("%s %s %s %s", l.workload, name, formatValue(v), unit))
}

// latency adds a workload's latency pair (median and tail) in its unit.
func (l *lineSet) latency(p50Name, tailName string, e2e endToEnd, scale float64, unit string) {
	s := e2e.sum
	l.add(p50Name, s.p50*scale, unit)
	l.add(tailName, s.tail*scale, unit)
	over := "the whole run"
	if s.windows > 0 {
		over = fmt.Sprintf("the median of %d one-second windows", s.windows)
	}
	l.lines = append(l.lines, fmt.Sprintf("# %s: tail is p%s of %d samples, over %s",
		tailName, formatValue(100*s.q), s.n, over))
}

func (l *lineSet) write(w io.Writer, op string, e2e endToEnd) {
	for _, s := range l.lines {
		fmt.Fprintln(w, s)
	}
	fmt.Fprintf(w, "# %d %ss attempted, %d failed, timed phase %.3fs\n",
		e2e.rec.ops, op, e2e.rec.failed, e2e.elapsed.Seconds())
}

func formatValue(v float64) string {
	return fmt.Sprintf("%.6g", v)
}

// hostRecord describes the run and the host it ran on, so every result
// can be re-checked on a second seed or compared across machines.
func hostRecord(o options) string {
	rec := map[string]interface{}{
		"workload":   o.workload,
		"seed":       o.seed,
		"seconds":    o.seconds,
		"trace":      o.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu":        cpuModel(),
		"go":         runtime.Version(),
	}
	b, _ := json.Marshal(rec) // a map of plain values always encodes
	return string(b)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// errCheck marks an op whose output failed a correctness check.
var errCheck = errors.New("output check failed")

// finite reports whether v is a usable measurement.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
