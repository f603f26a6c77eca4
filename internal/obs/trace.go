package obs

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// EventVersion is the event-log schema version. Every emitted event
// carries it as "v"; DecodeEvents rejects logs from a different schema.
const EventVersion = 1

// Event is one line of the JSONL event log (schema v1).
//
//	{"v":1,"ev":"start","span":3,"parent":1,"name":"sweep.cell","wallNs":...,"attrs":{"topology":"ec2-2013"}}
//	{"v":1,"ev":"end","span":3,"name":"sweep.cell","wallNs":...,"durNs":48211000}
//
// Span IDs are unique within one tracer (one process run). A span's
// lifetime is exactly one start and one end event; parent links form the
// tree. Durations are computed from the monotonic clock, wallNs from the
// wall clock — so durNs is robust to clock steps and wallNs is
// comparable across processes.
type Event struct {
	V      int               `json:"v"`
	Ev     string            `json:"ev"` // "start" | "end"
	Span   int64             `json:"span"`
	Parent int64             `json:"parent,omitempty"`
	Name   string            `json:"name"`
	WallNs int64             `json:"wallNs"`
	DurNs  int64             `json:"durNs,omitempty"`
	Attrs  map[string]string `json:"attrs,omitempty"`
}

// Tracer serializes span events to one writer as JSONL. Writes are
// mutex-ordered and buffered; call Flush before reading the output (the
// CLI flushes on exit). A nil *Tracer no-ops. Write errors are sticky
// and surfaced by Err — tracing never fails the traced work.
type Tracer struct {
	mu  sync.Mutex
	w   *bufio.Writer
	enc *json.Encoder
	seq atomic.Int64
	err error
}

// NewTracer wraps w in a tracer.
func NewTracer(w io.Writer) *Tracer {
	bw := bufio.NewWriter(w)
	return &Tracer{w: bw, enc: json.NewEncoder(bw)}
}

// Span is a handle to an in-flight span. The zero Span (and any span
// from a nil tracer) is valid and no-ops on End, so call sites never
// branch on whether tracing is enabled.
type Span struct {
	t     *Tracer
	id    int64
	name  string
	start time.Time
}

// ID is the span's event-log id (0 for the zero span). Use it to parent
// spans across API boundaries without passing the Span itself.
func (s Span) ID() int64 { return s.id }

func (t *Tracer) emit(e *Event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return
	}
	if err := t.enc.Encode(e); err != nil {
		t.err = err
	}
}

// Start opens a span under parent (the zero Span parents at the root)
// and writes its start event.
func (t *Tracer) Start(parent Span, name string, attrs ...Attr) Span {
	if t == nil {
		return Span{}
	}
	now := time.Now()
	s := Span{t: t, id: t.seq.Add(1), name: name, start: now}
	e := Event{
		V: EventVersion, Ev: "start", Span: s.id, Parent: parent.id,
		Name: name, WallNs: now.UnixNano(), Attrs: attrMap(attrs),
	}
	t.emit(&e)
	return s
}

// End closes the span, writing its end event with the measured duration.
// Extra attrs (an error cause, a result count) attach to the end event.
// No-op on the zero Span; ending twice writes two end events — don't.
func (s Span) End(attrs ...Attr) {
	if s.t == nil {
		return
	}
	now := time.Now()
	e := Event{
		V: EventVersion, Ev: "end", Span: s.id, Name: s.name,
		WallNs: now.UnixNano(), DurNs: now.Sub(s.start).Nanoseconds(),
		Attrs: attrMap(attrs),
	}
	s.t.emit(&e)
}

// EmitSpan writes a completed span that was measured elsewhere — the
// cross-process stitching path: a coordinator replays an agent's spans
// into its own event log, re-parented under the local span that issued
// the remote work. Both the start and end events are written
// immediately (wallStartNs from the remote clock, durNs from the remote
// monotonic clock), so the emitted span obeys the schema's balanced-
// pairs and parent-started-first invariants. The returned Span is
// already ended: use it only to parent further emitted children (its
// End no-ops).
func (t *Tracer) EmitSpan(parent Span, name string, wallStartNs, durNs int64, attrs map[string]string) Span {
	if t == nil {
		return Span{}
	}
	if durNs < 0 {
		durNs = 0
	}
	id := t.seq.Add(1)
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return Span{id: id}
	}
	start := Event{
		V: EventVersion, Ev: "start", Span: id, Parent: parent.id,
		Name: name, WallNs: wallStartNs, Attrs: attrs,
	}
	if err := t.enc.Encode(&start); err != nil {
		t.err = err
		return Span{id: id}
	}
	end := Event{
		V: EventVersion, Ev: "end", Span: id, Name: name,
		WallNs: wallStartNs + durNs, DurNs: durNs,
	}
	if err := t.enc.Encode(&end); err != nil {
		t.err = err
	}
	return Span{id: id}
}

// SpanRecord is one completed span flattened from an event log: the
// start/end pair joined, attrs merged (end attrs win on key collision).
// It is the in-memory shape spans travel in when shipped across a
// process boundary (a choreo-agent returns its spans as records inside
// the control-protocol response).
type SpanRecord struct {
	ID     int64
	Parent int64
	Name   string
	WallNs int64 // start wall-clock time
	DurNs  int64
	Attrs  map[string]string
}

// FlattenSpans joins a validated event stream (DecodeEvents order) into
// completed span records, in span-start order.
func FlattenSpans(events []Event) []SpanRecord {
	var out []SpanRecord
	index := make(map[int64]int) // span id -> position in out
	for _, e := range events {
		switch e.Ev {
		case "start":
			index[e.Span] = len(out)
			out = append(out, SpanRecord{
				ID: e.Span, Parent: e.Parent, Name: e.Name,
				WallNs: e.WallNs, Attrs: e.Attrs,
			})
		case "end":
			i, ok := index[e.Span]
			if !ok {
				continue
			}
			out[i].DurNs = e.DurNs
			if len(e.Attrs) > 0 {
				if out[i].Attrs == nil {
					out[i].Attrs = make(map[string]string, len(e.Attrs))
				}
				for k, v := range e.Attrs {
					out[i].Attrs[k] = v
				}
			}
		}
	}
	return out
}

type spanCtxKey struct{}

// ContextWithSpan stashes a span in the context so layers that don't
// share an API surface can still parent their spans correctly (the mesh
// span flows to each pair through the measurement context).
func ContextWithSpan(ctx context.Context, s Span) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, s)
}

// SpanFromContext returns the stashed span, or the zero Span (a root
// parent) when none is present.
func SpanFromContext(ctx context.Context) Span {
	s, _ := ctx.Value(spanCtxKey{}).(Span)
	return s
}

func attrMap(attrs []Attr) map[string]string {
	if len(attrs) == 0 {
		return nil
	}
	m := make(map[string]string, len(attrs))
	for _, a := range attrs {
		m[a.Key] = a.Value
	}
	return m
}

// Flush drains the tracer's buffer to the underlying writer.
func (t *Tracer) Flush() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return t.err
	}
	return t.w.Flush()
}

// DecodeEvents parses a v1 event log and validates it structurally:
// every line is one JSON event of the current schema version, every end
// matches an open span of the same name, parents are previously started
// spans, and every span started is ended by EOF (balanced start/end
// pairs). Returns the events in file order.
func DecodeEvents(r io.Reader) ([]Event, error) {
	dec := json.NewDecoder(r)
	var events []Event
	open := make(map[int64]string) // span id -> name, started and not yet ended
	seen := make(map[int64]bool)   // every span id ever started
	line := 0
	for {
		var e Event
		if err := dec.Decode(&e); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("event %d: %w", line+1, err)
		}
		line++
		if e.V != EventVersion {
			return nil, fmt.Errorf("event %d: schema v%d, want v%d", line, e.V, EventVersion)
		}
		if e.Name == "" {
			return nil, fmt.Errorf("event %d: missing span name", line)
		}
		if e.Span <= 0 {
			return nil, fmt.Errorf("event %d: invalid span id %d", line, e.Span)
		}
		switch e.Ev {
		case "start":
			if seen[e.Span] {
				return nil, fmt.Errorf("event %d: span %d started twice", line, e.Span)
			}
			if e.Parent != 0 && !seen[e.Parent] {
				return nil, fmt.Errorf("event %d: span %d has unknown parent %d", line, e.Span, e.Parent)
			}
			seen[e.Span] = true
			open[e.Span] = e.Name
		case "end":
			name, ok := open[e.Span]
			if !ok {
				return nil, fmt.Errorf("event %d: end for span %d with no open start", line, e.Span)
			}
			if name != e.Name {
				return nil, fmt.Errorf("event %d: span %d ends as %q, started as %q", line, e.Span, e.Name, name)
			}
			if e.DurNs < 0 {
				return nil, fmt.Errorf("event %d: span %d has negative duration", line, e.Span)
			}
			delete(open, e.Span)
		default:
			return nil, fmt.Errorf("event %d: unknown ev %q", line, e.Ev)
		}
		events = append(events, e)
	}
	if len(open) > 0 {
		for id, name := range open {
			return nil, fmt.Errorf("span %d (%s) started but never ended", id, name)
		}
	}
	return events, nil
}
