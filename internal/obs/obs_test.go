package obs

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	var g Gauge
	g.Set(2.5)
	if got := g.Value(); got != 2.5 {
		t.Fatalf("gauge = %g, want 2.5", got)
	}
	// Nil receivers no-op.
	var nc *Counter
	nc.Inc()
	nc.Add(3)
	if nc.Value() != 0 {
		t.Fatal("nil counter should read 0")
	}
	var ng *Gauge
	ng.Set(1)
	if ng.Value() != 0 {
		t.Fatal("nil gauge should read 0")
	}
}

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 5})
	for _, v := range []float64{0.5, 1.5, 1.5, 4, 10} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if want := 0.5 + 1.5 + 1.5 + 4 + 10; h.Sum() != want {
		t.Fatalf("sum = %g, want %g", h.Sum(), want)
	}
	if h.Max() != 10 {
		t.Fatalf("max = %g, want 10", h.Max())
	}
	got := h.bucketCounts()
	want := []int64{1, 2, 1, 1} // <=1, <=2, <=5, +Inf
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", i, got[i], want[i], got)
		}
	}
	// Boundary value lands in its bucket (le is inclusive).
	h2 := NewHistogram([]float64{1, 2})
	h2.Observe(1)
	if bc := h2.bucketCounts(); bc[0] != 1 {
		t.Fatalf("observe(1) landed in bucket %v, want first", bc)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram([]float64{0.01, 0.1, 1, 10})
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile should be 0")
	}
	// 100 observations spread evenly through (0.1, 1].
	for i := 1; i <= 100; i++ {
		h.Observe(0.1 + 0.9*float64(i)/100)
	}
	p50 := h.Quantile(0.5)
	if p50 < 0.1 || p50 > 1 {
		t.Fatalf("p50 = %g, want within (0.1, 1]", p50)
	}
	// Quantile(1) is the exact max, not the bucket bound.
	if got, want := h.Quantile(1), h.Max(); got != want {
		t.Fatalf("p100 = %g, want exact max %g", got, want)
	}
	// Everything below the first populated bucket interpolates from its
	// lower edge.
	if p01 := h.Quantile(0.01); p01 <= 0.1 || p01 > 1 {
		t.Fatalf("p1 = %g, want within (0.1, 1]", p01)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram(DurationBuckets())
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(float64(w+1) * 1e-4)
			}
		}(w)
	}
	wg.Wait()
	if h.Count() != workers*per {
		t.Fatalf("count = %d, want %d", h.Count(), workers*per)
	}
	var wantSum float64
	for w := 1; w <= workers; w++ {
		wantSum += float64(w) * 1e-4 * per
	}
	if math.Abs(h.Sum()-wantSum) > 1e-9 {
		t.Fatalf("sum = %g, want %g", h.Sum(), wantSum)
	}
	if h.Max() != float64(workers)*1e-4 {
		t.Fatalf("max = %g, want %g", h.Max(), float64(workers)*1e-4)
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "help")
	b := r.Counter("x_total", "help")
	if a != b {
		t.Fatal("same name should return same counter")
	}
	v := r.CounterVec("y_total", "help", "k")
	if v.With("a") != v.With("a") {
		t.Fatal("same labels should return same series")
	}
	if v.With("a") == v.With("b") {
		t.Fatal("different labels should return different series")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("kind mismatch should panic")
			}
		}()
		r.Gauge("x_total", "help")
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("invalid name should panic")
			}
		}()
		r.Counter("bad name", "help")
	}()
}

func TestNilRegistryHandsOutWorkingMetrics(t *testing.T) {
	var r *Registry
	c := r.Counter("a_total", "")
	c.Inc()
	if c.Value() != 1 {
		t.Fatal("standalone counter should count")
	}
	h := r.Histogram("b_seconds", "", DurationBuckets())
	h.Observe(0.1)
	if h.Count() != 1 {
		t.Fatal("standalone histogram should observe")
	}
	cv := r.CounterVec("c_total", "", "k")
	cv.With("x").Inc()
	if cv.With("x").Value() != 1 {
		t.Fatal("standalone counter vec should count")
	}
	hv := r.HistogramVec("d_seconds", "", DurationBuckets(), "k")
	hv.With("x").Observe(1)
	if hv.With("x").Count() != 1 {
		t.Fatal("standalone histogram vec should observe")
	}
	r.CounterFunc("e_total", "", func() float64 { return 1 })
	r.GaugeFunc("f", "", func() float64 { return 1 })
	if err := r.WritePrometheus(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
}

func TestWritePrometheusDeterministicAndValid(t *testing.T) {
	r := NewRegistry()
	r.Counter("zz_total", "last family").Add(3)
	r.CounterVec("aa_total", "first family", "tenant").With("t2").Add(2)
	r.CounterVec("aa_total", "first family", "tenant").With("t1").Inc()
	r.Gauge("mid_gauge", "a gauge").Set(1.25)
	r.GaugeFunc("fn_gauge", "from fn", func() float64 { return 42 })
	h := r.HistogramVec("lat_seconds", `latency with "quotes" and \slash`, []float64{0.1, 1}, "ep")
	h.With(`weird"val\ue`).Observe(0.05)
	h.With(`weird"val\ue`).Observe(5)

	var b1, b2 bytes.Buffer
	if err := r.WritePrometheus(&b1); err != nil {
		t.Fatal(err)
	}
	if err := r.WritePrometheus(&b2); err != nil {
		t.Fatal(err)
	}
	if b1.String() != b2.String() {
		t.Fatal("exposition not deterministic")
	}
	stats, err := ValidatePrometheus(bytes.NewReader(b1.Bytes()))
	if err != nil {
		t.Fatalf("own exposition failed validation: %v\n%s", err, b1.String())
	}
	if stats.Families != 5 {
		t.Fatalf("families = %d, want 5 (%v)", stats.Families, stats.Names)
	}
	out := b1.String()
	for _, want := range []string{
		`aa_total{tenant="t1"} 1`,
		`aa_total{tenant="t2"} 2`,
		"# TYPE lat_seconds histogram",
		`lat_seconds_bucket{ep="weird\"val\\ue",le="+Inf"} 2`,
		"fn_gauge 42",
		"mid_gauge 1.25",
		"zz_total 3",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// Families must appear in sorted order.
	if strings.Index(out, "# TYPE aa_total") > strings.Index(out, "# TYPE zz_total") {
		t.Fatal("families not sorted")
	}
}

func TestValidatePrometheusRejects(t *testing.T) {
	cases := map[string]string{
		"sample without TYPE":  "x_total 1\n",
		"bad type":             "# TYPE x wobble\nx 1\n",
		"TYPE after samples":   "# TYPE x counter\nx 1\n# TYPE x counter\n",
		"bad value":            "# TYPE x counter\nx banana\n",
		"unquoted label":       "# TYPE x counter\nx{a=b} 1\n",
		"non-cumulative hist":  "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 3\n",
		"missing +Inf":         "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_sum 1\nh_count 5\n",
		"+Inf != count":        "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 6\n",
		"hist missing sum":     "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 5\nh_count 5\n",
		"timestamp unexpected": "# TYPE x counter\nx 1 1712000000\n",
	}
	for name, in := range cases {
		if _, err := ValidatePrometheus(strings.NewReader(in)); err == nil {
			t.Errorf("%s: validator accepted %q", name, in)
		}
	}
	// A well-formed multi-family input passes.
	good := "# HELP x a counter\n# TYPE x counter\nx{k=\"v\"} 1\n" +
		"# TYPE h histogram\nh_bucket{le=\"0.1\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_sum 3.5\nh_count 2\n"
	stats, err := ValidatePrometheus(strings.NewReader(good))
	if err != nil {
		t.Fatalf("good input rejected: %v", err)
	}
	if stats.Families != 2 || stats.Samples != 5 {
		t.Fatalf("stats = %+v, want 2 families / 5 samples", stats)
	}
}

func TestTracerRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	root := tr.Start(Span{}, "run", String("mode", "grid"))
	child := tr.Start(root, "cell", Int("seed", 7), Float("mb", 1.5))
	time.Sleep(time.Millisecond)
	child.End(String("outcome", "ok"))
	root.End()
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	events, err := DecodeEvents(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("decode: %v\n%s", err, buf.String())
	}
	if len(events) != 4 {
		t.Fatalf("events = %d, want 4", len(events))
	}
	if events[0].Ev != "start" || events[0].Name != "run" || events[0].Parent != 0 {
		t.Fatalf("bad root start: %+v", events[0])
	}
	if events[1].Parent != events[0].Span {
		t.Fatalf("child parent = %d, want %d", events[1].Parent, events[0].Span)
	}
	if events[1].Attrs["seed"] != "7" || events[1].Attrs["mb"] != "1.5" {
		t.Fatalf("child attrs = %v", events[1].Attrs)
	}
	if events[2].Ev != "end" || events[2].DurNs < int64(time.Millisecond) {
		t.Fatalf("child end = %+v, want durNs >= 1ms", events[2])
	}
	if events[2].Attrs["outcome"] != "ok" {
		t.Fatalf("end attrs = %v", events[2].Attrs)
	}
	for _, e := range events {
		if e.V != EventVersion {
			t.Fatalf("event version = %d, want %d", e.V, EventVersion)
		}
	}
}

func TestDecodeEventsRejects(t *testing.T) {
	cases := map[string]string{
		"wrong version":   `{"v":2,"ev":"start","span":1,"name":"x","wallNs":1}`,
		"unknown ev":      `{"v":1,"ev":"mid","span":1,"name":"x","wallNs":1}`,
		"end without":     `{"v":1,"ev":"end","span":1,"name":"x","wallNs":1}`,
		"unknown parent":  `{"v":1,"ev":"start","span":1,"parent":9,"name":"x","wallNs":1}`,
		"unbalanced":      `{"v":1,"ev":"start","span":1,"name":"x","wallNs":1}`,
		"name mismatch":   `{"v":1,"ev":"start","span":1,"name":"x","wallNs":1}` + "\n" + `{"v":1,"ev":"end","span":1,"name":"y","wallNs":2}`,
		"double start":    `{"v":1,"ev":"start","span":1,"name":"x","wallNs":1}` + "\n" + `{"v":1,"ev":"start","span":1,"name":"x","wallNs":2}`,
		"missing name":    `{"v":1,"ev":"start","span":1,"wallNs":1}`,
		"invalid span id": `{"v":1,"ev":"start","span":0,"name":"x","wallNs":1}`,
		"not json":        `hello`,
	}
	for name, in := range cases {
		if _, err := DecodeEvents(strings.NewReader(in)); err == nil {
			t.Errorf("%s: decoder accepted %q", name, in)
		}
	}
}

func TestTracerConcurrent(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	root := tr.Start(Span{}, "root")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				s := tr.Start(root, "work", Int("w", int64(w)))
				s.End()
			}
		}(w)
	}
	wg.Wait()
	root.End()
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	events, err := DecodeEvents(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 + 2*8*50; len(events) != want {
		t.Fatalf("events = %d, want %d", len(events), want)
	}
}

func TestNilObserverAndTracerNoOp(t *testing.T) {
	var o *Observer
	s := o.StartSpan(Span{}, "x", String("k", "v"))
	s.End() // must not panic
	if o.Registry() != nil {
		t.Fatal("nil observer registry should be nil")
	}
	var tr *Tracer
	s2 := tr.Start(Span{}, "y")
	s2.End()
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	// Observer with nil tracer but live registry.
	o2 := &Observer{Metrics: NewRegistry()}
	s3 := o2.StartSpan(Span{}, "z")
	s3.End()
	o2.Registry().Counter("ok_total", "").Inc()
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.Counter("hits_total", "").Inc()
				r.CounterVec("by_worker_total", "", "w").With(formatInt(int64(w % 3))).Inc()
				r.HistogramVec("lat_seconds", "", DurationBuckets(), "w").With("all").Observe(1e-4)
				var sink bytes.Buffer
				if i%50 == 0 {
					if err := r.WritePrometheus(&sink); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("hits_total", "").Value(); got != 8*200 {
		t.Fatalf("hits = %d, want %d", got, 8*200)
	}
	var out bytes.Buffer
	if err := r.WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}
	if _, err := ValidatePrometheus(bytes.NewReader(out.Bytes())); err != nil {
		t.Fatalf("exposition invalid after concurrent updates: %v", err)
	}
}
