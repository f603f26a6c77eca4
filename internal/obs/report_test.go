package obs

import (
	"bytes"
	"strings"
	"testing"
)

// emitted builds a small two-level trace through EmitSpan — the
// stitching write path — and returns the decoded, validated events.
//
//	root [0, 1000]
//	├─ a [0, 300]
//	└─ b [100, 900]
//	   ├─ c [200, 800]
//	   └─ d [150, 250]
func emitted(t *testing.T) []Event {
	t.Helper()
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	root := tr.EmitSpan(Span{}, "root", 0, 1000, nil)
	tr.EmitSpan(root, "a", 0, 300, map[string]string{"k": "v"})
	b := tr.EmitSpan(root, "b", 100, 800, nil)
	tr.EmitSpan(b, "c", 200, 600, nil)
	tr.EmitSpan(b, "d", 150, 100, nil)
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	evs, err := DecodeEvents(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("EmitSpan output fails the schema: %v\n%s", err, buf.String())
	}
	return evs
}

func TestEmitSpanObeysSchema(t *testing.T) {
	evs := emitted(t)
	if len(evs) != 10 {
		t.Fatalf("events = %d, want 5 balanced start/end pairs", len(evs))
	}
	recs := FlattenSpans(evs)
	if len(recs) != 5 {
		t.Fatalf("records = %d, want 5", len(recs))
	}
	a := recs[1]
	if a.Name != "a" || a.WallNs != 0 || a.DurNs != 300 || a.Attrs["k"] != "v" {
		t.Errorf("record a = %+v", a)
	}

	// Negative remote durations clamp to zero rather than poisoning the
	// log, and a nil tracer hands back the inert zero span.
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	tr.EmitSpan(Span{}, "clock-skew", 50, -7, nil)
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	evs2, err := DecodeEvents(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if d := FlattenSpans(evs2)[0].DurNs; d != 0 {
		t.Errorf("negative duration emitted as %d, want 0", d)
	}
	var nilT *Tracer
	if sp := nilT.EmitSpan(Span{}, "x", 0, 1, nil); sp.ID() != 0 {
		t.Errorf("nil tracer EmitSpan returned live span %d", sp.ID())
	}
}

func TestFlattenSpansEndAttrsWin(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	sp := tr.Start(Span{}, "op", String("state", "running"), String("kept", "yes"))
	sp.End(String("state", "done"), String("extra", "1"))
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	evs, err := DecodeEvents(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	rec := FlattenSpans(evs)[0]
	want := map[string]string{"state": "done", "kept": "yes", "extra": "1"}
	for k, v := range want {
		if rec.Attrs[k] != v {
			t.Errorf("attr %s = %q, want %q", k, rec.Attrs[k], v)
		}
	}
}

func TestBuildForestAndCriticalPath(t *testing.T) {
	roots := BuildForest(emitted(t))
	if len(roots) != 1 {
		t.Fatalf("roots = %d, want 1", len(roots))
	}
	root := roots[0]
	if len(root.Children) != 2 || root.Children[0].Name != "a" || root.Children[1].Name != "b" {
		t.Fatalf("children of root out of start order: %+v", root.Children)
	}

	// The last finisher at each level: b ends at 900 (a at 300), c at
	// 800 (d at 250).
	var names []string
	for _, n := range CriticalPath(root) {
		names = append(names, n.Name)
	}
	if got := strings.Join(names, ">"); got != "root>b>c" {
		t.Errorf("critical path = %s, want root>b>c", got)
	}
}

func TestBuildForestSlicedLog(t *testing.T) {
	// A log cut out of a larger run: span 7's parent 99 never appears,
	// so it is promoted to a root instead of being dropped.
	evs := []Event{
		{V: EventVersion, Ev: "start", Span: 7, Parent: 99, Name: "orphan", WallNs: 10},
		{V: EventVersion, Ev: "end", Span: 7, Name: "orphan", WallNs: 20, DurNs: 10},
	}
	roots := BuildForest(evs)
	if len(roots) != 1 || roots[0].Name != "orphan" {
		t.Fatalf("sliced log roots = %+v, want the orphan", roots)
	}
}

func TestAggregateByNameAndSlowest(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	for i, d := range []int64{100, 200, 300} {
		tr.EmitSpan(Span{}, "x", int64(i*1000), d, nil)
	}
	tr.EmitSpan(Span{}, "y", 5000, 1000, nil)
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	evs, err := DecodeEvents(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	stats := AggregateByName(evs)
	if len(stats) != 2 || stats[0].Name != "y" || stats[1].Name != "x" {
		t.Fatalf("order = %+v, want y (largest total) first", stats)
	}
	x := stats[1]
	if x.Count != 3 || x.TotalNs != 600 || x.P50Ns != 200 || x.P99Ns != 300 || x.MaxNs != 300 {
		t.Errorf("x stats = %+v", x)
	}
}

func TestDecodeEventsTruncatedLog(t *testing.T) {
	// A crashed process leaves opened spans behind; the validator must
	// name them instead of silently producing a lopsided forest.
	log := `{"v":1,"ev":"start","span":1,"name":"run","wallNs":1}
{"v":1,"ev":"start","span":2,"parent":1,"name":"step","wallNs":2}
{"v":1,"ev":"end","span":2,"name":"step","wallNs":3,"durNs":1}
`
	_, err := DecodeEvents(strings.NewReader(log))
	if err == nil || !strings.Contains(err.Error(), "started but never ended") {
		t.Errorf("truncated log error = %v", err)
	}
}

func TestDecodeEventsInterleaved(t *testing.T) {
	// Concurrent spans end out of start order — valid: the schema
	// demands balance, not nesting.
	log := `{"v":1,"ev":"start","span":1,"name":"a","wallNs":1}
{"v":1,"ev":"start","span":2,"name":"b","wallNs":2}
{"v":1,"ev":"end","span":1,"name":"a","wallNs":3,"durNs":2}
{"v":1,"ev":"end","span":2,"name":"b","wallNs":4,"durNs":2}
`
	evs, err := DecodeEvents(strings.NewReader(log))
	if err != nil {
		t.Fatalf("interleaved log rejected: %v", err)
	}
	if len(evs) != 4 {
		t.Errorf("events = %d, want 4", len(evs))
	}
}

func TestQuantileEmptyAndSingleBucket(t *testing.T) {
	empty := NewHistogram([]float64{1, 2})
	if q := empty.Quantile(0.5); q != 0 {
		t.Errorf("empty Quantile(0.5) = %g, want 0", q)
	}

	single := NewHistogram([]float64{1})
	single.Observe(0.5)
	single.Observe(0.5)
	if q := single.Quantile(1); q != 0.5 {
		t.Errorf("single-bucket Quantile(1) = %g, want the max 0.5", q)
	}
	if q := single.Quantile(0.5); q <= 0 || q > 0.5 {
		t.Errorf("single-bucket Quantile(0.5) = %g, want in (0, 0.5] (upper edge clamps to max)", q)
	}
	if q := single.Quantile(0); q != 0 {
		t.Errorf("Quantile(0) = %g, want 0", q)
	}
}
