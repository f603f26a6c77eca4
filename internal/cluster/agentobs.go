package cluster

import (
	"bytes"
	"io"
	"sync/atomic"

	"choreo/internal/obs"
)

// agentMetrics is the agent-side registry: every choreo-agent hosts one
// and serves it over the "metrics" op, so `choreo agents metrics`
// can scrape the fleet without a sidecar. Domain counters live next to
// Go runtime telemetry (heap, GC, goroutines) because a wedged agent is
// diagnosed by both.
type agentMetrics struct {
	reg          *obs.Registry
	ops          *obs.CounterVec   // choreo_agent_ops_total{op}
	failures     *obs.CounterVec   // choreo_agent_failures_total{op,cause}
	trains       *obs.CounterVec   // choreo_agent_trains_total{role}
	trainSeconds *obs.HistogramVec // choreo_agent_train_seconds{peer}
	rttProbes    *obs.Counter      // choreo_agent_rtt_probes_total
	bytes        *obs.CounterVec   // choreo_agent_bytes_total{dir}
	sessionsN    atomic.Int64      // backs choreo_agent_sessions
}

func newAgentMetrics(echo *EchoServer) *agentMetrics {
	r := obs.NewRegistry()
	m := &agentMetrics{
		reg: r,
		ops: r.CounterVec("choreo_agent_ops_total",
			"Control-protocol operations received, by op.", "op"),
		failures: r.CounterVec("choreo_agent_failures_total",
			"Control-protocol operations that failed, by op and cause.", "op", "cause"),
		trains: r.CounterVec("choreo_agent_trains_total",
			"Packet trains run, by role (send or recv).", "role"),
		trainSeconds: r.HistogramVec("choreo_agent_train_seconds",
			"Wall-clock duration of packet-train operations, by peer control address.",
			obs.DurationBuckets(), "peer"),
		rttProbes: r.Counter("choreo_agent_rtt_probes_total",
			"RTT probe operations completed."),
		bytes: r.CounterVec("choreo_agent_bytes_total",
			"Measurement payload bytes on the wire, by direction (tx or rx).", "dir"),
	}
	r.GaugeFunc("choreo_agent_sessions",
		"Open control-protocol sessions.",
		func() float64 { return float64(m.sessionsN.Load()) })
	r.CounterFunc("choreo_agent_echo_packets_total",
		"Datagrams reflected by the UDP echo responder.",
		func() float64 { return float64(echo.Packets()) })
	obs.RegisterRuntimeMetrics(r)
	return m
}

func (m *agentMetrics) sessionOpen()  { m.sessionsN.Add(1) }
func (m *agentMetrics) sessionClose() { m.sessionsN.Add(-1) }

func (m *agentMetrics) op(op string)             { m.ops.With(opLabel(op)).Inc() }
func (m *agentMetrics) failure(op, cause string) { m.failures.With(opLabel(op), cause).Inc() }
func (m *agentMetrics) rtt()                     { m.rttProbes.Inc() }

// opLabel bounds the op label to the protocol's op set: the op string
// comes off the network, so any other name shares the "unknown" series
// instead of minting a new one per request.
func opLabel(op string) string {
	switch op {
	case "info", "metrics", "udp-recv", "udp-send", "rtt", "tcp-recv", "tcp-send":
		return op
	}
	return "unknown"
}

func (m *agentMetrics) train(role, peer string, seconds float64) {
	m.trains.With(role).Inc()
	m.trainSeconds.With(peer).Observe(seconds)
}

func (m *agentMetrics) addBytes(dir string, n int64) {
	if n > 0 {
		m.bytes.With(dir).Add(n)
	}
}

func (m *agentMetrics) write(w io.Writer) error { return m.reg.WritePrometheus(w) }

// reqTrace is the per-request agent tracer: spans recorded while
// serving one traced request buffer in memory, then ship back to the
// coordinator as SpanJSON records on the final response. Nil when the
// request carries no trace context — every method no-ops on nil, so op
// handlers trace unconditionally.
type reqTrace struct {
	buf     bytes.Buffer
	t       *obs.Tracer
	traceID string
}

func newReqTrace(traceID string) *reqTrace {
	if traceID == "" {
		return nil
	}
	rt := &reqTrace{traceID: traceID}
	rt.t = obs.NewTracer(&rt.buf)
	return rt
}

// tracer returns the underlying tracer (nil when untraced; a nil
// *obs.Tracer no-ops, so handlers never branch).
func (rt *reqTrace) tracer() *obs.Tracer {
	if rt == nil {
		return nil
	}
	return rt.t
}

// attach flattens the recorded spans onto a response. Span IDs stay
// agent-local; the coordinator remaps them while stitching. A tracer
// error drops the spans — tracing never fails the measurement.
func (rt *reqTrace) attach(resp *Response) {
	if rt == nil {
		return
	}
	if err := rt.t.Flush(); err != nil {
		return
	}
	events, err := obs.DecodeEvents(bytes.NewReader(rt.buf.Bytes()))
	if err != nil {
		return
	}
	for _, rec := range obs.FlattenSpans(events) {
		resp.Spans = append(resp.Spans, SpanJSON{
			ID: rec.ID, Parent: rec.Parent, Name: rec.Name,
			WallNs: rec.WallNs, DurNs: rec.DurNs, Attrs: rec.Attrs,
		})
	}
	resp.TraceID = rt.traceID
}
