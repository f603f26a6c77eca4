package obs

import (
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

func formatInt(v int64) string { return strconv.FormatInt(v, 10) }

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Counter is a monotonically increasing int64. The zero value is ready
// to use; all methods are safe for concurrent use and nil-safe.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (n must be >= 0 — counters only go up).
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value reads the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 that can go up and down. The zero value is ready to
// use; all methods are safe for concurrent use and nil-safe.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value reads the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket histogram: Observe is atomic and
// allocation-free (a binary search plus a handful of atomic adds), so it
// is safe on hot paths. Bounds are upper bucket edges in ascending
// order; an implicit +Inf bucket catches the tail. The exact maximum is
// tracked alongside the buckets (the buckets alone can only bound it).
type Histogram struct {
	bounds  []float64
	counts  []atomic.Int64 // len(bounds)+1; last is +Inf
	sumBits atomic.Uint64
	count   atomic.Int64
	maxBits atomic.Uint64 // math.Float64bits; valid only when count > 0
}

// NewHistogram builds a standalone (unregistered) histogram — the load
// harness uses one directly. bounds must be ascending and non-empty.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("obs: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds not ascending at %d: %g <= %g", i, bounds[i], bounds[i-1]))
		}
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
}

// DurationBuckets is the default latency bucket layout (seconds): 10 µs
// to 60 s, roughly 1-2.5-5 per decade — wide enough for a loopback
// placement (tens of µs) and a WAN mesh epoch (tens of seconds) alike.
func DurationBuckets() []float64 {
	return []float64{
		1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
		1e-3, 2.5e-3, 5e-3, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
		1, 2.5, 5, 10, 30, 60,
	}
}

// Observe records v. Safe for concurrent use; nil-safe.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Binary search for the first bound >= v.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if v <= h.bounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	h.counts[lo].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			break
		}
	}
	for {
		old := h.maxBits.Load()
		if h.count.Load() > 1 && math.Float64frombits(old) >= v {
			break
		}
		// First observation, or a new maximum: race the CAS. A lost race
		// means someone else stored; re-check against their value.
		if h.maxBits.CompareAndSwap(old, math.Float64bits(math.Max(math.Float64frombits(old), v))) {
			break
		}
	}
}

// Count is the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum is the total of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Max is the largest observed value (0 before any observation).
func (h *Histogram) Max() float64 {
	if h == nil || h.count.Load() == 0 {
		return 0
	}
	return math.Float64frombits(h.maxBits.Load())
}

// Quantile estimates the q-th quantile (0 < q <= 1) from the bucket
// counts, interpolating linearly within the landing bucket — the same
// estimate Prometheus's histogram_quantile computes. The top of the
// distribution is clamped to the tracked exact maximum, so Quantile(1)
// is the true max. Returns 0 before any observation.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 || q <= 0 {
		return 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum int64
	for i := range h.counts {
		n := h.counts[i].Load()
		if n == 0 {
			cum += n
			continue
		}
		if float64(cum+n) >= rank {
			// The quantile lands in bucket i.
			lower := 0.0
			if i > 0 {
				lower = h.bounds[i-1]
			}
			upper := h.Max()
			if i < len(h.bounds) && h.bounds[i] < upper {
				upper = h.bounds[i]
			}
			if upper < lower {
				upper = lower
			}
			frac := (rank - float64(cum)) / float64(n)
			return lower + (upper-lower)*frac
		}
		cum += n
	}
	return h.Max()
}

// bucketCounts snapshots the per-bucket (non-cumulative) counts.
func (h *Histogram) bucketCounts() []int64 {
	out := make([]int64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// ---------------------------------------------------------------------
// Registry

type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// series is one labeled time series inside a family. Exactly one of the
// value fields is set, matching the family kind (fn, when set, is read
// at exposition time instead of the stored value).
type series struct {
	labelValues []string
	c           *Counter
	g           *Gauge
	h           *Histogram
	fn          func() float64
}

type family struct {
	name   string
	help   string
	kind   metricKind
	bounds []float64 // histograms only
	labels []string  // label names; empty for single-series families
	series map[string]*series
	order  []string // series keys in creation order (sorted at exposition)
}

var metricNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
var labelNameRe = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)

// Registry holds metric families and renders them in Prometheus text
// exposition format. Get-or-create semantics: asking for a name that
// already exists returns the existing metric (the kind and label names
// must match — a mismatch is a programming error and panics). A nil
// *Registry is valid everywhere and hands out standalone metrics, so
// instrumented code never branches on "is observability on".
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

func (r *Registry) family(name, help string, kind metricKind, bounds []float64, labels ...string) *family {
	if !metricNameRe.MatchString(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !labelNameRe.MatchString(l) {
			panic(fmt.Sprintf("obs: invalid label name %q on %s", l, name))
		}
	}
	f, ok := r.families[name]
	if !ok {
		f = &family{
			name: name, help: help, kind: kind,
			bounds: append([]float64(nil), bounds...),
			labels: append([]string(nil), labels...),
			series: make(map[string]*series),
		}
		r.families[name] = f
		return f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %s re-registered as %s, was %s", name, kind, f.kind))
	}
	if len(f.labels) != len(labels) {
		panic(fmt.Sprintf("obs: metric %s re-registered with %d labels, was %d", name, len(labels), len(f.labels)))
	}
	for i := range labels {
		if f.labels[i] != labels[i] {
			panic(fmt.Sprintf("obs: metric %s re-registered with label %q, was %q", name, labels[i], f.labels[i]))
		}
	}
	return f
}

// seriesFor returns (creating if needed) the series for the given label
// values within f. Caller holds r.mu.
func (f *family) seriesFor(values []string) *series {
	key := strings.Join(values, "\x00")
	s, ok := f.series[key]
	if !ok {
		s = &series{labelValues: append([]string(nil), values...)}
		switch f.kind {
		case kindCounter:
			s.c = &Counter{}
		case kindGauge:
			s.g = &Gauge{}
		case kindHistogram:
			s.h = NewHistogram(f.bounds)
		}
		f.series[key] = s
		f.order = append(f.order, key)
	}
	return s
}

// Counter returns the registered counter (single series, no labels).
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return &Counter{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.family(name, help, kindCounter, nil).seriesFor(nil).c
}

// Gauge returns the registered gauge (single series, no labels).
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return &Gauge{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.family(name, help, kindGauge, nil).seriesFor(nil).g
}

// Histogram returns the registered histogram (single series, no labels).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if r == nil {
		return NewHistogram(bounds)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.family(name, help, kindHistogram, bounds).seriesFor(nil).h
}

// CounterFunc registers a counter whose value is read from fn at
// exposition time — the bridge for an atomic that is already the
// single source of truth (the serve plane's epoch sequence number).
// Re-registering replaces the function.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.family(name, help, kindCounter, nil).seriesFor(nil).fn = fn
}

// GaugeFunc registers a gauge whose value is read from fn at exposition
// time (snapshot age, epoch number). Re-registering replaces the
// function.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.family(name, help, kindGauge, nil).seriesFor(nil).fn = fn
}

// CounterVec is a family of counters keyed by label values.
type CounterVec struct {
	r *Registry // nil for standalone
	f *family

	mu    sync.Mutex // standalone mode only
	loose map[string]*Counter
}

// CounterVec returns the labeled counter family.
func (r *Registry) CounterVec(name, help string, labelNames ...string) *CounterVec {
	if len(labelNames) == 0 {
		panic("obs: CounterVec needs at least one label (use Counter)")
	}
	if r == nil {
		return &CounterVec{loose: make(map[string]*Counter)}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return &CounterVec{r: r, f: r.family(name, help, kindCounter, nil, labelNames...)}
}

// With returns the counter for the given label values (get-or-create).
// The value count must match the registered label names.
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil {
		return &Counter{}
	}
	if v.r == nil {
		v.mu.Lock()
		defer v.mu.Unlock()
		key := strings.Join(values, "\x00")
		c, ok := v.loose[key]
		if !ok {
			c = &Counter{}
			v.loose[key] = c
		}
		return c
	}
	if len(values) != len(v.f.labels) {
		panic(fmt.Sprintf("obs: metric %s wants %d label values, got %d", v.f.name, len(v.f.labels), len(values)))
	}
	v.r.mu.Lock()
	defer v.r.mu.Unlock()
	return v.f.seriesFor(values).c
}

// GaugeVec is a family of gauges keyed by label values.
type GaugeVec struct {
	r *Registry // nil for standalone
	f *family

	mu    sync.Mutex // standalone mode only
	loose map[string]*Gauge
}

// GaugeVec returns the labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labelNames ...string) *GaugeVec {
	if len(labelNames) == 0 {
		panic("obs: GaugeVec needs at least one label (use Gauge)")
	}
	if r == nil {
		return &GaugeVec{loose: make(map[string]*Gauge)}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return &GaugeVec{r: r, f: r.family(name, help, kindGauge, nil, labelNames...)}
}

// With returns the gauge for the given label values (get-or-create).
// The value count must match the registered label names.
func (v *GaugeVec) With(values ...string) *Gauge {
	if v == nil {
		return &Gauge{}
	}
	if v.r == nil {
		v.mu.Lock()
		defer v.mu.Unlock()
		key := strings.Join(values, "\x00")
		g, ok := v.loose[key]
		if !ok {
			g = &Gauge{}
			v.loose[key] = g
		}
		return g
	}
	if len(values) != len(v.f.labels) {
		panic(fmt.Sprintf("obs: metric %s wants %d label values, got %d", v.f.name, len(v.f.labels), len(values)))
	}
	v.r.mu.Lock()
	defer v.r.mu.Unlock()
	return v.f.seriesFor(values).g
}

// HistogramVec is a family of histograms keyed by label values.
type HistogramVec struct {
	r *Registry
	f *family

	mu     sync.Mutex
	bounds []float64
	loose  map[string]*Histogram
}

// HistogramVec returns the labeled histogram family.
func (r *Registry) HistogramVec(name, help string, bounds []float64, labelNames ...string) *HistogramVec {
	if len(labelNames) == 0 {
		panic("obs: HistogramVec needs at least one label (use Histogram)")
	}
	if r == nil {
		return &HistogramVec{bounds: append([]float64(nil), bounds...), loose: make(map[string]*Histogram)}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return &HistogramVec{r: r, f: r.family(name, help, kindHistogram, bounds, labelNames...)}
}

// With returns the histogram for the given label values (get-or-create).
func (v *HistogramVec) With(values ...string) *Histogram {
	if v == nil {
		return nil // nil *Histogram: Observe no-ops
	}
	if v.r == nil {
		v.mu.Lock()
		defer v.mu.Unlock()
		key := strings.Join(values, "\x00")
		h, ok := v.loose[key]
		if !ok {
			h = NewHistogram(v.bounds)
			v.loose[key] = h
		}
		return h
	}
	if len(values) != len(v.f.labels) {
		panic(fmt.Sprintf("obs: metric %s wants %d label values, got %d", v.f.name, len(v.f.labels), len(values)))
	}
	v.r.mu.Lock()
	defer v.r.mu.Unlock()
	return v.f.seriesFor(values).h
}

// ---------------------------------------------------------------------
// Prometheus text exposition

func escapeLabelValue(v string) string {
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// labelString renders {k="v",...}; extra appends one more pair (le).
func labelString(names, values []string, extraName, extraValue string) string {
	if len(names) == 0 && extraName == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, names[i], escapeLabelValue(values[i]))
	}
	if extraName != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, extraName, escapeLabelValue(extraValue))
	}
	b.WriteByte('}')
	return b.String()
}

// WritePrometheus renders every registered family in Prometheus text
// exposition format (version 0.0.4): families sorted by name, series
// sorted by label values, histograms as cumulative _bucket/_sum/_count.
// The output is deterministic for a given registry state. Safe to call
// concurrently with metric updates (each sample is an atomic read; a
// scrape is not a consistent cross-metric snapshot, matching Prometheus
// semantics). Nil-safe: a nil registry writes nothing.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	// Snapshot family/series structure under the lock; values are read
	// atomically afterwards.
	type seriesSnap struct {
		labels []string
		s      *series
	}
	type familySnap struct {
		f      *family
		series []seriesSnap
	}
	snaps := make([]familySnap, 0, len(names))
	for _, name := range names {
		f := r.families[name]
		keys := append([]string(nil), f.order...)
		sort.Strings(keys)
		fs := familySnap{f: f}
		for _, k := range keys {
			s := f.series[k]
			fs.series = append(fs.series, seriesSnap{labels: s.labelValues, s: s})
		}
		snaps = append(snaps, fs)
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, fs := range snaps {
		f := fs.f
		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.name, strings.ReplaceAll(f.help, "\n", " "))
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		for _, ss := range fs.series {
			ls := labelString(f.labels, ss.labels, "", "")
			switch f.kind {
			case kindCounter, kindGauge:
				var v float64
				switch {
				case ss.s.fn != nil:
					v = ss.s.fn()
				case ss.s.c != nil:
					v = float64(ss.s.c.Value())
				default:
					v = ss.s.g.Value()
				}
				fmt.Fprintf(&b, "%s%s %s\n", f.name, ls, formatFloat(v))
			case kindHistogram:
				h := ss.s.h
				counts := h.bucketCounts()
				var cum int64
				for i, bound := range h.bounds {
					cum += counts[i]
					le := labelString(f.labels, ss.labels, "le", formatFloat(bound))
					fmt.Fprintf(&b, "%s_bucket%s %d\n", f.name, le, cum)
				}
				cum += counts[len(counts)-1]
				le := labelString(f.labels, ss.labels, "le", "+Inf")
				fmt.Fprintf(&b, "%s_bucket%s %d\n", f.name, le, cum)
				fmt.Fprintf(&b, "%s_sum%s %s\n", f.name, ls, formatFloat(h.Sum()))
				fmt.Fprintf(&b, "%s_count%s %d\n", f.name, ls, cum)
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}
