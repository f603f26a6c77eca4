package cluster

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"time"

	"choreo/internal/obs"
	"choreo/internal/probe"
	"choreo/internal/units"
)

// Coordinator drives a set of agents to measure the full mesh of paths
// between them — the "centralized server" the paper gathers throughput
// data on.
//
// Every operation takes a context.Context: a mesh measurement is minutes
// of wall clock on a real fleet, and long-running callers (the placement
// service's re-measurement epochs) must be able to abandon one mid-pair
// on shutdown. Cancellation is prompt even inside a blocking socket read:
// the session arms a context.AfterFunc that yanks the connection deadline
// forward, so a canceled context surfaces as ctx.Err() instead of waiting
// out the per-operation timeout. One-shot callers pass
// context.Background() and get exactly the old behaviour.
type Coordinator struct {
	agents  []string // control addresses
	timeout time.Duration
	obs     *obs.Observer   // nil until Instrument
	m       *clusterMetrics // nil until Instrument
	traceID string          // set by Instrument; scopes trace context on requests
}

// NewCoordinator takes agent control addresses.
func NewCoordinator(agents []string, timeout time.Duration) *Coordinator {
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	return &Coordinator{
		agents:  append([]string(nil), agents...),
		timeout: timeout,
	}
}

// Agents returns the configured agent count.
func (c *Coordinator) Agents() int { return len(c.agents) }

// Addr returns agent i's control address.
func (c *Coordinator) Addr(i int) string { return c.agents[i] }

// session is one control connection.
type session struct {
	conn    net.Conn
	enc     *json.Encoder
	dec     *json.Decoder
	addr    string
	timeout time.Duration
	m       *clusterMetrics // shared with the coordinator; nil when uninstrumented
	c       *Coordinator
}

func (c *Coordinator) dial(ctx context.Context, addr string) (*session, error) {
	d := net.Dialer{Timeout: c.timeout}
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		c.m.fail(addr, failureCause(ctx, err, "dial"))
		return nil, fmt.Errorf("cluster: dial agent %s: %w", addr, ctxCause(ctx, err))
	}
	return &session{
		conn:    conn,
		enc:     json.NewEncoder(conn),
		dec:     json.NewDecoder(bufio.NewReader(conn)),
		addr:    addr,
		timeout: c.timeout,
		m:       c.m,
		c:       c,
	}, nil
}

// ctxCause substitutes the context's own error for an I/O error it
// provoked: cancellation forces the connection deadline forward, so the
// raw failure is an unhelpful "i/o timeout" — the caller should see
// context.Canceled (or DeadlineExceeded) and be able to errors.Is on it.
func ctxCause(ctx context.Context, err error) error {
	if cerr := ctx.Err(); cerr != nil {
		return cerr
	}
	return err
}

// call sends one request and reads its first response.
func (s *session) call(ctx context.Context, req *Request) (*Response, error) {
	return s.callWithin(ctx, req, s.timeout)
}

// callWithin is call with an explicit reply deadline, for operations
// whose first response only lands once the remote work completes — a
// byte-bounded bulk send acknowledges after the last byte, which can
// be well past one control round-trip.
func (s *session) callWithin(ctx context.Context, req *Request, readDeadline time.Duration) (*Response, error) {
	req.V = ProtocolVersion
	// Propagate trace context: the span in ctx (the pair or bulk span
	// that issued this remote work) becomes the parent of the agent's
	// spans. No span in flight (or tracing off) sends none.
	req.TraceID, req.TraceSpan = "", 0
	if s.c.obs != nil && s.c.obs.Trace != nil {
		if p := obs.SpanFromContext(ctx); p.ID() != 0 {
			req.TraceID = s.c.traceID
			req.TraceSpan = p.ID()
		}
	}
	if err := s.conn.SetWriteDeadline(time.Now().Add(s.timeout)); err != nil {
		return nil, err
	}
	// Arm cancellation after setting the deadline, never before: AfterFunc
	// on an already-canceled context fires immediately, and a later
	// SetWriteDeadline would quietly undo its interrupt.
	stop := context.AfterFunc(ctx, func() { _ = s.conn.SetDeadline(time.Now()) })
	err := s.enc.Encode(req)
	stop()
	if err != nil {
		s.m.fail(s.addr, failureCause(ctx, err, "send"))
		return nil, fmt.Errorf("cluster: send to agent %s: %w", s.addr, ctxCause(ctx, err))
	}
	return s.readWithin(ctx, readDeadline)
}

// readWithin decodes one response with an explicit deadline (ordinary
// calls use the session timeout: a peer that accepted the connection
// but never answers — a wedged or pre-protocol process — fails with a
// deadline error instead of hanging the coordinator). Two-phase
// operations use it for the result line, whose arrival is bounded by
// the remote measurement's own timeout rather than one control
// round-trip. A canceled context interrupts the read immediately.
func (s *session) readWithin(ctx context.Context, d time.Duration) (*Response, error) {
	if err := s.conn.SetReadDeadline(time.Now().Add(d)); err != nil {
		return nil, err
	}
	stop := context.AfterFunc(ctx, func() { _ = s.conn.SetDeadline(time.Now()) })
	var resp Response
	err := s.dec.Decode(&resp)
	stop()
	if err != nil {
		s.m.fail(s.addr, failureCause(ctx, err, "io"))
		return nil, fmt.Errorf("cluster: agent %s: %w", s.addr, ctxCause(ctx, err))
	}
	// The version comes first: an agent on another version refuses
	// this build's requests, and the refusal is only actionable once it
	// names both versions.
	if v := protocolVersionOf(resp.V); v != ProtocolVersion {
		s.m.fail(s.addr, "version-mismatch")
		return nil, fmt.Errorf("cluster: agent %s speaks protocol v%d, need v%d; upgrade choreo-agent", s.addr, v, ProtocolVersion)
	}
	if resp.Error != "" {
		cause := "agent-error"
		if resp.ErrCause != "" {
			cause = "agent-" + resp.ErrCause
		}
		s.m.fail(s.addr, cause)
		return nil, fmt.Errorf("cluster: agent %s: %s", s.addr, resp.Error)
	}
	s.stitch(ctx, &resp)
	return &resp, nil
}

// stitch replays agent-side spans from a response into the
// coordinator's event log, re-parented under the span that issued the
// request (the one propagated as TraceSpan, recovered from ctx).
// Agent-local IDs are remapped to fresh tracer IDs as they are
// emitted, preserving the event schema's parent-started-first
// invariant; a span whose parent is 0 (or unknown) hangs off the
// issuing span. Spans from a different trace — a stale or foreign
// exchange — are dropped.
func (s *session) stitch(ctx context.Context, resp *Response) {
	if len(resp.Spans) == 0 || s.c.obs == nil {
		return
	}
	if resp.TraceID != s.c.traceID {
		return
	}
	parent := obs.SpanFromContext(ctx)
	if parent.ID() == 0 {
		return
	}
	local := make(map[int64]obs.Span, len(resp.Spans))
	for _, sp := range resp.Spans {
		p := parent
		if lp, ok := local[sp.Parent]; ok && sp.Parent != 0 {
			p = lp
		}
		local[sp.ID] = s.c.obs.EmitSpan(p, sp.Name, sp.WallNs, sp.DurNs, sp.Attrs)
	}
}

func (s *session) close() { _ = s.conn.Close() }

// AgentInfo is an agent's handshake self-description.
type AgentInfo struct {
	// EchoAddr is the agent's UDP echo responder address.
	EchoAddr string
	// Uptime is how long the agent process has been running.
	Uptime time.Duration
}

// Info runs the handshake against one agent: echo address and process
// uptime.
func (c *Coordinator) Info(ctx context.Context, agent int) (AgentInfo, error) {
	s, err := c.dial(ctx, c.agents[agent])
	if err != nil {
		return AgentInfo{}, err
	}
	defer s.close()
	resp, err := s.call(ctx, &Request{Op: "info"})
	if err != nil {
		return AgentInfo{}, err
	}
	host, _, err := net.SplitHostPort(c.agents[agent])
	if err != nil {
		return AgentInfo{}, err
	}
	return AgentInfo{
		EchoAddr: net.JoinHostPort(host, fmt.Sprint(resp.EchoPort)),
		Uptime:   time.Duration(resp.UptimeMs) * time.Millisecond,
	}, nil
}

// EchoAddr asks an agent for its RTT echo address.
func (c *Coordinator) EchoAddr(ctx context.Context, agent int) (string, error) {
	info, err := c.Info(ctx, agent)
	if err != nil {
		return "", err
	}
	return info.EchoAddr, nil
}

// ScrapeMetrics fetches one agent's Prometheus exposition over the
// "metrics" op.
func (c *Coordinator) ScrapeMetrics(ctx context.Context, agent int) (string, error) {
	s, err := c.dial(ctx, c.agents[agent])
	if err != nil {
		return "", err
	}
	defer s.close()
	resp, err := s.call(ctx, &Request{Op: "metrics"})
	if err != nil {
		return "", err
	}
	return resp.Metrics, nil
}

// MeasurePath runs one packet train from agent src to agent dst and
// returns the resulting observation (RTT included).
func (c *Coordinator) MeasurePath(ctx context.Context, src, dst int, cfg probe.Config) (probe.Observation, error) {
	if src == dst {
		return probe.Observation{}, fmt.Errorf("cluster: src == dst")
	}
	span := c.obs.StartSpan(obs.SpanFromContext(ctx), "cluster.pair",
		obs.Int("src", int64(src)), obs.Int("dst", int64(dst)),
		obs.String("srcAddr", c.agents[src]), obs.String("dstAddr", c.agents[dst]))
	pairStart := time.Now()
	// The pair span rides the context from here: sessions propagate it
	// to agents as trace context, and their returned spans stitch in
	// under it.
	obsn, err := c.measurePath(spanCtx(ctx, span), src, dst, cfg)
	if err != nil {
		span.End(obs.String("outcome", "error"))
		return obsn, err
	}
	c.m.pairDone(time.Since(pairStart).Seconds(), obsn.RTT.Seconds())
	span.End(obs.String("outcome", "ok"), obs.Int("rttNs", obsn.RTT.Nanoseconds()))
	return obsn, nil
}

func (c *Coordinator) measurePath(ctx context.Context, src, dst int, cfg probe.Config) (probe.Observation, error) {
	echoAddr, err := c.EchoAddr(ctx, dst)
	if err != nil {
		return probe.Observation{}, err
	}

	srcSess, err := c.dial(ctx, c.agents[src])
	if err != nil {
		return probe.Observation{}, err
	}
	defer srcSess.close()

	rttResp, err := srcSess.call(ctx, &Request{Op: "rtt", Target: echoAddr, Count: 5, TimeoutMs: 1000, Peer: c.agents[dst]})
	if err != nil {
		return probe.Observation{}, fmt.Errorf("cluster: rtt %d->%d: %w", src, dst, err)
	}

	dstSess, err := c.dial(ctx, c.agents[dst])
	if err != nil {
		return probe.Observation{}, err
	}
	defer dstSess.close()

	req := &Request{
		Op:         "udp-recv",
		Bursts:     cfg.Bursts,
		BurstLen:   cfg.BurstLength,
		PacketSize: int(cfg.PacketSize),
		GapUs:      cfg.Gap.Microseconds(),
		TimeoutMs:  c.timeout.Milliseconds(),
		RTTNs:      rttResp.RTTNs,
		Peer:       c.agents[src],
	}
	ready, err := dstSess.call(ctx, req)
	if err != nil {
		return probe.Observation{}, fmt.Errorf("cluster: arm receiver %d: %w", dst, err)
	}
	host, _, err := net.SplitHostPort(c.agents[dst])
	if err != nil {
		return probe.Observation{}, err
	}
	target := net.JoinHostPort(host, fmt.Sprint(ready.Port))

	sendReq := *req
	sendReq.Op = "udp-send"
	sendReq.Target = target
	sendReq.Peer = c.agents[dst]
	if _, err := srcSess.call(ctx, &sendReq); err != nil {
		return probe.Observation{}, fmt.Errorf("cluster: send train %d->%d: %w", src, dst, err)
	}

	// The result line lands once the receiver finishes or its own
	// timeout (TimeoutMs above) fires, so allow that plus slack.
	result, err := dstSess.readWithin(ctx, c.timeout+5*time.Second)
	if err != nil {
		return probe.Observation{}, fmt.Errorf("cluster: train result %d->%d: %w", src, dst, err)
	}
	obs := probe.Observation{Config: cfg, RTT: time.Duration(rttResp.RTTNs)}
	for _, b := range result.Bursts {
		obs.Bursts = append(obs.Bursts, probe.BurstObservation{
			Sent: b.Sent, Received: b.Received,
			HeadLost: b.HeadLost, TailLost: b.TailLost,
			Span: time.Duration(b.SpanNs),
		})
	}
	return obs, nil
}

// MeshResult is the outcome of measuring every ordered agent pair.
type MeshResult struct {
	// Rates[src][dst] is the estimated TCP throughput; zero on the
	// diagonal.
	Rates [][]units.Rate
	// Elapsed is the wall-clock cost of the whole mesh.
	Elapsed time.Duration
}

// MeasureMesh measures all ordered pairs sequentially, as Choreo does.
// A failing pair aborts the mesh with the pair's coordinates, both
// agents' addresses and how far the mesh had got — the partial-mesh
// report that tells an operator exactly which path (and which agent)
// to look at. A canceled context aborts between pairs — and interrupts
// the in-flight pair's sockets — with the same progress report.
func (c *Coordinator) MeasureMesh(ctx context.Context, cfg probe.Config) (*MeshResult, error) {
	n := len(c.agents)
	if n < 2 {
		return nil, fmt.Errorf("cluster: mesh needs at least 2 agents, got %d", n)
	}
	res := &MeshResult{Rates: make([][]units.Rate, n)}
	for i := range res.Rates {
		res.Rates[i] = make([]units.Rate, n)
	}
	start := time.Now()
	done, total := 0, n*(n-1)
	meshSpan := c.obs.StartSpan(obs.SpanFromContext(ctx), "cluster.mesh",
		obs.Int("agents", int64(n)), obs.Int("pairs", int64(total)))
	ctx = spanCtx(ctx, meshSpan)
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if src == dst {
				continue
			}
			if err := ctx.Err(); err != nil {
				meshSpan.End(obs.String("outcome", "canceled"), obs.Int("done", int64(done)))
				return nil, fmt.Errorf("cluster: mesh canceled after %d of %d pairs: %w", done, total, err)
			}
			o, err := c.MeasurePath(ctx, src, dst, cfg)
			if err != nil {
				meshSpan.End(obs.String("outcome", "error"), obs.Int("done", int64(done)))
				return nil, fmt.Errorf("cluster: mesh pair %d->%d (%s -> %s) failed after %d of %d pairs: %w",
					src, dst, c.agents[src], c.agents[dst], done, total, err)
			}
			est, err := o.EstimateThroughput()
			if err != nil {
				meshSpan.End(obs.String("outcome", "error"), obs.Int("done", int64(done)))
				return nil, fmt.Errorf("cluster: estimate %d->%d (%s -> %s): %w",
					src, dst, c.agents[src], c.agents[dst], err)
			}
			res.Rates[src][dst] = est
			done++
		}
	}
	res.Elapsed = time.Since(start)
	meshSpan.End(obs.String("outcome", "ok"), obs.Int("done", int64(done)))
	return res, nil
}

// BulkThroughput runs a netperf-style transfer from src to dst for the
// given duration and returns the receiver-measured rate.
func (c *Coordinator) BulkThroughput(ctx context.Context, src, dst int, duration time.Duration) (units.Rate, error) {
	if src == dst {
		return 0, fmt.Errorf("cluster: src == dst")
	}
	span := c.obs.StartSpan(obs.SpanFromContext(ctx), "cluster.bulk",
		obs.Int("src", int64(src)), obs.Int("dst", int64(dst)),
		obs.String("srcAddr", c.agents[src]), obs.String("dstAddr", c.agents[dst]))
	ctx = spanCtx(ctx, span)
	rate, err := c.bulkThroughput(ctx, src, dst, duration)
	if err != nil {
		span.End(obs.String("outcome", "error"))
		return 0, err
	}
	span.End(obs.String("outcome", "ok"), obs.Float("rateBits", float64(rate)))
	return rate, nil
}

func (c *Coordinator) bulkThroughput(ctx context.Context, src, dst int, duration time.Duration) (units.Rate, error) {
	dstSess, err := c.dial(ctx, c.agents[dst])
	if err != nil {
		return 0, err
	}
	defer dstSess.close()
	ready, err := dstSess.call(ctx, &Request{Op: "tcp-recv", TimeoutMs: (duration + c.timeout).Milliseconds(), Peer: c.agents[src]})
	if err != nil {
		return 0, err
	}
	host, _, err := net.SplitHostPort(c.agents[dst])
	if err != nil {
		return 0, err
	}
	target := net.JoinHostPort(host, fmt.Sprint(ready.Port))

	srcSess, err := c.dial(ctx, c.agents[src])
	if err != nil {
		return 0, err
	}
	defer srcSess.close()
	if _, err := srcSess.call(ctx, &Request{Op: "tcp-send", Target: target, DurationMs: duration.Milliseconds(), Peer: c.agents[dst]}); err != nil {
		return 0, err
	}
	result, err := dstSess.readWithin(ctx, duration+c.timeout)
	if err != nil {
		return 0, err
	}
	return units.Rate(result.RateBits), nil
}

// BulkTransfer ships exactly n bytes from src to dst — one flow of an
// executed placement — and returns the receiver-measured rate and byte
// count. budget bounds the transfer itself (the caller derives it from
// the predicted completion); control-protocol slack is added on top, so
// a stalled flow fails with a deadline error instead of wedging the
// placement.
func (c *Coordinator) BulkTransfer(ctx context.Context, src, dst int, n units.ByteSize, budget time.Duration) (units.Rate, units.ByteSize, error) {
	if src == dst {
		return 0, 0, fmt.Errorf("cluster: src == dst")
	}
	if n <= 0 {
		return 0, 0, fmt.Errorf("cluster: bulk transfer of %d bytes", n)
	}
	span := c.obs.StartSpan(obs.SpanFromContext(ctx), "cluster.bulk",
		obs.Int("src", int64(src)), obs.Int("dst", int64(dst)),
		obs.String("srcAddr", c.agents[src]), obs.String("dstAddr", c.agents[dst]),
		obs.Int("bytes", int64(n)))
	ctx = spanCtx(ctx, span)
	rate, got, err := c.bulkTransfer(ctx, src, dst, n, budget)
	if err != nil {
		span.End(obs.String("outcome", "error"))
		return 0, 0, err
	}
	span.End(obs.String("outcome", "ok"), obs.Float("rateBits", float64(rate)))
	return rate, got, nil
}

func (c *Coordinator) bulkTransfer(ctx context.Context, src, dst int, n units.ByteSize, budget time.Duration) (units.Rate, units.ByteSize, error) {
	dstSess, err := c.dial(ctx, c.agents[dst])
	if err != nil {
		return 0, 0, err
	}
	defer dstSess.close()
	ready, err := dstSess.call(ctx, &Request{Op: "tcp-recv", TimeoutMs: (budget + c.timeout).Milliseconds(), Peer: c.agents[src]})
	if err != nil {
		return 0, 0, err
	}
	host, _, err := net.SplitHostPort(c.agents[dst])
	if err != nil {
		return 0, 0, err
	}
	target := net.JoinHostPort(host, fmt.Sprint(ready.Port))

	srcSess, err := c.dial(ctx, c.agents[src])
	if err != nil {
		return 0, 0, err
	}
	defer srcSess.close()
	// The send acknowledges once the last byte is written, so its reply
	// deadline is the transfer budget plus control slack, not one
	// round-trip.
	sendReq := &Request{Op: "tcp-send", Target: target, Bytes: int64(n), TimeoutMs: budget.Milliseconds(), Peer: c.agents[dst]}
	if _, err := srcSess.callWithin(ctx, sendReq, budget+c.timeout); err != nil {
		return 0, 0, err
	}
	result, err := dstSess.readWithin(ctx, budget+c.timeout)
	if err != nil {
		return 0, 0, err
	}
	return units.Rate(result.RateBits), units.ByteSize(result.Bytes), nil
}
