package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"choreo/internal/obs"
)

// perLayerNames is the traced run's metric set, the same on every
// workload: a layer a workload does not reach reads 0. README.md maps
// each metric to its layer and to the end-to-end metric it should move.
var perLayerNames = []struct{ name, unit string }{
	{"topology.build_us", "us"},
	{"measure.sim_ms", "ms"},
	{"measure.pairs", "count"},
	{"netsim.execute_ms", "ms"},
	{"sequence.sim_ms", "ms"},
	{"place.greedy_us", "us"},
	{"place.baseline_us", "us"},
	{"place.completion_us", "us"},
	{"place.optimal_ms", "ms"},
	{"sequence.place_ms", "ms"},
	{"sequence.migrations", "count"},
	{"sweep.report_us", "us"},
	{"envcache.hit_ratio", "ratio"},
	{"sweep.utilization", "ratio"},
	{"sweep.reorder_depth_max", "count"},
	{"api.decode_us", "us"},
	{"api.encode_us", "us"},
	{"serve.handler_us", "us"},
	{"serve.transport_us", "us"},
	{"serve.epoch_ms", "ms"},
	{"serve.epochs", "count"},
	{"cluster.pair_ms", "ms"},
	{"cluster.rtt_ms", "ms"},
	{"cluster.train_ms", "ms"},
	{"cluster.control_ms", "ms"},
	{"cluster.gap_share", "ratio"},
	{"cluster.failures", "count"},
	{"obs.overhead_pct", "%"},
	{"self.bench_ms", "ms/op"},
	{"self.sweep_ms", "ms/op"},
	{"self.serve_ms", "ms/op"},
	{"self.cluster_ms", "ms/op"},
	{"self.agent_ms", "ms/op"},
}

// selfLayers are the span-name prefixes self time is reported for: the
// benchmark's own op spans and the engines' spans.
var selfLayers = []string{"bench", "sweep", "serve", "cluster", "agent"}

// tracing is the traced run's observer. Spans go to an in-memory
// buffer and are written out once, when the run ends.
type tracing struct {
	buf *bytes.Buffer
	o   *obs.Observer
}

func newTracing() *tracing {
	buf := &bytes.Buffer{}
	return &tracing{buf: buf, o: &obs.Observer{Metrics: obs.NewRegistry(), Trace: obs.NewTracer(buf)}}
}

// observer returns the observer to hand an engine (nil when untraced).
func (t *tracing) observer() *obs.Observer {
	if t == nil {
		return nil
	}
	return t.o
}

// span opens a span (a no-op span when untraced).
func (t *tracing) span(name string, attrs ...obs.Attr) obs.Span {
	return t.observer().StartSpan(obs.Span{}, name, attrs...)
}

// call times one call of a layer function under a span named after it.
func (t *tracing) call(name string, fn func() error) (time.Duration, error) {
	sp := t.span(name)
	start := time.Now()
	err := fn()
	took := time.Since(start)
	sp.End()
	return took, err
}

// finish flushes the tracer, writes the span log to path and returns
// the completed spans.
func (t *tracing) finish(path string) ([]obs.SpanRecord, error) {
	if err := t.o.Trace.Flush(); err != nil {
		return nil, fmt.Errorf("flushing spans: %w", err)
	}
	events, err := obs.DecodeEvents(bytes.NewReader(t.buf.Bytes()))
	if err != nil {
		return nil, fmt.Errorf("decoding spans: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	if err := os.WriteFile(path, t.buf.Bytes(), 0o644); err != nil {
		return nil, err
	}
	return obs.FlattenSpans(events), nil
}

// selfTimes sets self.<layer>_ms: the time spans of each layer spent
// outside their children, per traced op. Engine runs that open root
// spans (sweep.run, serve.epoch) are adopted by the benchmark span whose
// interval contains them, so the benchmark's own time excludes them.
func selfTimes(lm layerMetrics, spans []obs.SpanRecord, ops int64) {
	byID := make(map[int64]int, len(spans))
	for i, s := range spans {
		byID[s.ID] = i
	}
	var bench []int
	for i, s := range spans {
		if layerOf(s.Name) == "bench" && s.Parent == 0 {
			bench = append(bench, i)
		}
	}
	children := make(map[int][]int)
	for i, s := range spans {
		if p, ok := byID[s.Parent]; ok && s.Parent != 0 {
			children[p] = append(children[p], i)
			continue
		}
		if layerOf(s.Name) == "bench" {
			continue
		}
		if p := container(spans, bench, s); p >= 0 {
			children[p] = append(children[p], i)
		}
	}
	self := make(map[string]float64)
	for i, s := range spans {
		self[layerOf(s.Name)] += float64(s.DurNs-covered(spans, s, children[i])) / 1e6
	}
	if ops <= 0 {
		return
	}
	for _, layer := range selfLayers {
		lm.set("self."+layer+"_ms", self[layer]/float64(ops))
	}
}

func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// container returns the shortest benchmark span whose interval holds s,
// or -1.
func container(spans []obs.SpanRecord, bench []int, s obs.SpanRecord) int {
	best := -1
	for _, b := range bench {
		c := spans[b]
		if c.WallNs <= s.WallNs && s.WallNs+s.DurNs <= c.WallNs+c.DurNs &&
			(best < 0 || c.DurNs < spans[best].DurNs) {
			best = b
		}
	}
	return best
}

// covered is how much of s's interval its children cover (their union,
// clipped to s).
func covered(spans []obs.SpanRecord, s obs.SpanRecord, kids []int) int64 {
	type iv struct{ lo, hi int64 }
	lo, hi := s.WallNs, s.WallNs+s.DurNs
	var ivs []iv
	for _, k := range kids {
		c := spans[k]
		a, b := max(c.WallNs, lo), min(c.WallNs+c.DurNs, hi)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, end int64
	end = lo
	for _, v := range ivs {
		if v.lo > end {
			end = v.lo
		}
		if v.hi > end {
			total += v.hi - end
			end = v.hi
		}
	}
	return total
}

// reorderDepthMax is the deepest the sweep's reorder buffer got: per
// sweep run, cells that finished (sweep.cell ended) but whose report
// had not started yet.
func reorderDepthMax(spans []obs.SpanRecord) float64 {
	type event struct {
		at    int64
		delta int
	}
	byRun := make(map[int64][]event)
	for _, s := range spans {
		switch s.Name {
		case "sweep.cell":
			byRun[s.Parent] = append(byRun[s.Parent], event{s.WallNs + s.DurNs, +1})
		case "sweep.report":
			byRun[s.Parent] = append(byRun[s.Parent], event{s.WallNs, -1})
		}
	}
	best := 0
	for _, evs := range byRun {
		sort.Slice(evs, func(i, j int) bool {
			if evs[i].at != evs[j].at {
				return evs[i].at < evs[j].at
			}
			return evs[i].delta > evs[j].delta
		})
		depth := 0
		for _, e := range evs {
			depth += e.delta
			best = max(best, depth)
		}
	}
	return float64(best)
}
