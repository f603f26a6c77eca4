package cluster

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"choreo/internal/obs"
	"choreo/internal/probe"
	"choreo/internal/units"
)

// ProtocolVersion is the control-protocol revision spoken by this build
// of the coordinator and choreo-agent, and the only one either side
// accepts. Both sides stamp it on every message; any other version —
// a missing "v" field is v1 — is refused with a precise error naming
// both versions, so a coordinator and agent from different builds fail
// on the first exchange instead of half-understanding each other.
//
// History:
//
//	v1: unversioned original protocol
//	v2: added the version handshake itself
//	v3: trace context, agent spans, errCause, uptime, the "metrics" op
//	    and byte-bounded bulk sends (tcp-send with "bytes")
const ProtocolVersion = 3

// protocolVersionOf normalizes a wire version: a missing field (0) is
// the pre-handshake v1 format.
func protocolVersionOf(v int) int {
	if v == 0 {
		return 1
	}
	return v
}

// Request is one control-protocol command, sent as a JSON line.
type Request struct {
	// V is the sender's ProtocolVersion; absent means v1.
	V  int    `json:"v,omitempty"`
	Op string `json:"op"`

	// Train and bulk parameters.
	Target     string `json:"target,omitempty"`
	Bursts     int    `json:"bursts,omitempty"`
	BurstLen   int    `json:"burstLen,omitempty"`
	PacketSize int    `json:"packetSize,omitempty"`
	GapUs      int64  `json:"gapUs,omitempty"`
	TimeoutMs  int64  `json:"timeoutMs,omitempty"`
	DurationMs int64  `json:"durationMs,omitempty"`
	RTTNs      int64  `json:"rttNs,omitempty"`
	Count      int    `json:"count,omitempty"`

	// Bytes switches tcp-send from duration-bounded junk to a
	// byte-bounded payload: write exactly Bytes bytes, then close so the
	// receiver measures to EOF (executed placements).
	Bytes int64 `json:"bytes,omitempty"`

	// Trace context. TraceID scopes span IDs to one coordinator run;
	// TraceSpan is the coordinator-side span the agent's spans are
	// children of. Peer is the control address of the agent on the other
	// end of the measured path, so agent-side per-peer metrics label by
	// stable control address instead of ephemeral data ports. All
	// optional: absent means the requester is not tracing.
	TraceID   string `json:"traceId,omitempty"`
	TraceSpan int64  `json:"traceSpan,omitempty"`
	Peer      string `json:"peer,omitempty"`
}

// SpanJSON is one completed agent-side span shipped back in a
// response. IDs are agent-local (scoped to the request's TraceID);
// Parent 0 means "the coordinator span named by the request's
// TraceSpan". The coordinator re-emits these into its own event log
// with fresh local IDs — see Coordinator stitching.
type SpanJSON struct {
	ID     int64             `json:"id"`
	Parent int64             `json:"parent,omitempty"`
	Name   string            `json:"name"`
	WallNs int64             `json:"wallNs"`
	DurNs  int64             `json:"durNs"`
	Attrs  map[string]string `json:"attrs,omitempty"`
}

// BurstJSON serializes one burst observation.
type BurstJSON struct {
	Sent     int   `json:"sent"`
	Received int   `json:"received"`
	HeadLost int   `json:"headLost"`
	TailLost int   `json:"tailLost"`
	SpanNs   int64 `json:"spanNs"`
}

// Response is the agent's JSON-line reply. Two-phase operations
// (udp-recv, tcp-recv) reply twice: first with the data port, then with
// the result.
type Response struct {
	// V is the agent's ProtocolVersion; absent means v1.
	V     int    `json:"v,omitempty"`
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`

	// ErrCause is a machine-readable classification of Error:
	// "train", "rtt", "bulk" or "proto". The coordinator folds it into
	// its failure counter as "agent-<cause>", so an incident dashboard
	// separates a failed train from a refused protocol version.
	ErrCause string `json:"errCause,omitempty"`

	Port     int         `json:"port,omitempty"`
	EchoPort int         `json:"echoPort,omitempty"`
	Bursts   []BurstJSON `json:"bursts,omitempty"`
	RTTNs    int64       `json:"rttNs,omitempty"`
	RateBits float64     `json:"rateBits,omitempty"`
	Bytes    int64       `json:"bytes,omitempty"`

	// TraceID echoes the request's trace so the coordinator discards
	// spans from a stale exchange; Spans are the agent-side child spans
	// of the traced operation; UptimeMs rides the info reply; Metrics
	// carries the agent's Prometheus exposition for the "metrics" op.
	TraceID  string     `json:"traceId,omitempty"`
	Spans    []SpanJSON `json:"spans,omitempty"`
	UptimeMs int64      `json:"uptimeMs,omitempty"`
	Metrics  string     `json:"metrics,omitempty"`
}

// Agent is the per-VM measurement daemon: it answers control requests on
// a TCP socket, runs an always-on UDP echo responder, and hosts its own
// metrics registry so `choreo agents metrics` can scrape the fleet.
type Agent struct {
	ln    net.Listener
	echo  *EchoServer
	ip    string
	start time.Time
	met   *agentMetrics
	wg    sync.WaitGroup
}

// StartAgent binds the control listener on addr (e.g. "127.0.0.1:0") and
// serves until Close.
func StartAgent(addr string) (*Agent, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: bind agent control: %w", err)
	}
	host, _, err := net.SplitHostPort(ln.Addr().String())
	if err != nil {
		host = ""
	}
	echo, err := NewEchoServer(host)
	if err != nil {
		ln.Close()
		return nil, err
	}
	a := &Agent{ln: ln, echo: echo, ip: host, start: time.Now()}
	a.met = newAgentMetrics(echo)
	a.wg.Add(1)
	go a.serve()
	return a, nil
}

// Addr returns the control address to hand to a Coordinator.
func (a *Agent) Addr() string { return a.ln.Addr().String() }

// EchoPort returns the RTT echo port.
func (a *Agent) EchoPort() int { return a.echo.Port() }

// Close stops the agent.
func (a *Agent) Close() error {
	err := a.ln.Close()
	_ = a.echo.Close()
	a.wg.Wait()
	return err
}

func (a *Agent) serve() {
	defer a.wg.Done()
	for {
		conn, err := a.ln.Accept()
		if err != nil {
			return
		}
		a.wg.Add(1)
		go func() {
			defer a.wg.Done()
			a.handle(conn)
		}()
	}
}

// maxRequestLine bounds one control request. The coordinator's largest
// request is a few hundred bytes; the cap only stops a peer from
// growing an agent's buffer without limit.
const maxRequestLine = 64 << 10

func (a *Agent) handle(conn net.Conn) {
	defer conn.Close()
	a.met.sessionOpen()
	defer a.met.sessionClose()
	sc := bufio.NewScanner(conn)
	sc.Buffer(nil, maxRequestLine)
	enc := json.NewEncoder(conn)
	for sc.Scan() {
		var req Request
		if err := json.Unmarshal(sc.Bytes(), &req); err != nil {
			a.met.failure("", "proto")
			return
		}
		a.met.op(req.Op)
		if err := a.dispatch(&req, enc); err != nil {
			cause := errCauseOf(err)
			a.met.failure(req.Op, cause)
			_ = reply(enc, Response{Error: err.Error(), ErrCause: cause})
		}
	}
	if errors.Is(sc.Err(), bufio.ErrTooLong) {
		// The rest of the line is still unread, so the session cannot
		// resynchronise on the next request: it ends here.
		a.met.failure("", "proto")
	}
}

// reply stamps the protocol version on a response and encodes it; every
// response line, error responses included, carries it so the
// coordinator can verify the handshake on the very first exchange.
func reply(enc *json.Encoder, resp Response) error {
	resp.V = ProtocolVersion
	return enc.Encode(resp)
}

// acceptVersion applies the handshake: the agent speaks exactly
// ProtocolVersion.
func acceptVersion(v int) error {
	if v != ProtocolVersion {
		return opFail("proto", fmt.Errorf("cluster: choreo-agent speaks protocol v%d, coordinator speaks v%d; upgrade so both sides match", ProtocolVersion, v))
	}
	return nil
}

// opError tags a dispatch failure with its cause class ("train", "rtt",
// "bulk", "proto") — shipped to the coordinator as Response.ErrCause
// and counted agent-side in failures_total.
type opError struct {
	cause string
	err   error
}

func (e *opError) Error() string { return e.err.Error() }
func (e *opError) Unwrap() error { return e.err }

func opFail(cause string, err error) error {
	if err == nil {
		return nil
	}
	return &opError{cause: cause, err: err}
}

func errCauseOf(err error) string {
	var oe *opError
	if errors.As(err, &oe) {
		return oe.cause
	}
	return "error"
}

// peerLabel is the metrics label for the far end of a measured path:
// the peer agent's control address when the coordinator supplied it, a
// stable placeholder otherwise — never an ephemeral data port.
func peerLabel(req *Request) string {
	if req.Peer != "" {
		return req.Peer
	}
	return "unknown"
}

func (a *Agent) dispatch(req *Request, enc *json.Encoder) error {
	if err := acceptVersion(protocolVersionOf(req.V)); err != nil {
		return err
	}
	rt := newReqTrace(req.TraceID)
	switch req.Op {
	case "info":
		return reply(enc, Response{OK: true, EchoPort: a.echo.Port(),
			UptimeMs: time.Since(a.start).Milliseconds()})

	case "metrics":
		var b bytes.Buffer
		if err := a.met.write(&b); err != nil {
			return opFail("proto", err)
		}
		return reply(enc, Response{OK: true, Metrics: b.String()})

	case "udp-recv":
		cfg := reqConfig(req)
		recv, err := NewTrainReceiver(a.ip)
		if err != nil {
			return opFail("train", err)
		}
		defer recv.Close()
		if err := reply(enc, Response{OK: true, Port: recv.Port()}); err != nil {
			return err
		}
		sp := rt.tracer().Start(obs.Span{}, "agent.train",
			obs.String("role", "recv"), obs.String("peer", peerLabel(req)))
		start := time.Now()
		o, err := recv.Receive(cfg, time.Duration(req.RTTNs),
			reqTimeout(req, 10*time.Second), 500*time.Millisecond)
		if err != nil {
			sp.End(obs.String("outcome", "error"))
			return opFail("train", err)
		}
		a.met.train("recv", peerLabel(req), time.Since(start).Seconds())
		resp := Response{OK: true}
		received := 0
		for _, b := range o.Bursts {
			received += b.Received
			resp.Bursts = append(resp.Bursts, BurstJSON{
				Sent: b.Sent, Received: b.Received,
				HeadLost: b.HeadLost, TailLost: b.TailLost,
				SpanNs: int64(b.Span),
			})
		}
		a.met.addBytes("rx", int64(received)*int64(cfg.PacketSize))
		sp.End(obs.String("outcome", "ok"), obs.Int("received", int64(received)))
		rt.attach(&resp)
		return reply(enc, resp)

	case "udp-send":
		cfg := reqConfig(req)
		sp := rt.tracer().Start(obs.Span{}, "agent.train",
			obs.String("role", "send"), obs.String("peer", peerLabel(req)))
		start := time.Now()
		if err := SendTrain(req.Target, cfg); err != nil {
			sp.End(obs.String("outcome", "error"))
			return opFail("train", err)
		}
		a.met.train("send", peerLabel(req), time.Since(start).Seconds())
		sent := int64(cfg.Bursts) * int64(cfg.BurstLength) * int64(cfg.PacketSize)
		a.met.addBytes("tx", sent)
		sp.End(obs.String("outcome", "ok"), obs.Int("sent", sent))
		resp := Response{OK: true}
		rt.attach(&resp)
		return reply(enc, resp)

	case "rtt":
		sp := rt.tracer().Start(obs.Span{}, "agent.rtt",
			obs.String("peer", peerLabel(req)), obs.Int("count", int64(req.Count)))
		rtt, err := MeasureRTT(req.Target, req.Count, reqTimeout(req, time.Second))
		if err != nil {
			sp.End(obs.String("outcome", "error"))
			return opFail("rtt", err)
		}
		a.met.rtt()
		sp.End(obs.String("outcome", "ok"), obs.Int("rttNs", int64(rtt)))
		resp := Response{OK: true, RTTNs: int64(rtt)}
		rt.attach(&resp)
		return reply(enc, resp)

	case "tcp-recv":
		recv, err := NewBulkReceiver(a.ip)
		if err != nil {
			return opFail("bulk", err)
		}
		defer recv.Close()
		if err := reply(enc, Response{OK: true, Port: recv.Port()}); err != nil {
			return err
		}
		sp := rt.tracer().Start(obs.Span{}, "agent.bulk",
			obs.String("role", "recv"), obs.String("peer", peerLabel(req)))
		rate, rxBytes, err := recv.Receive(reqTimeout(req, 30*time.Second))
		if err != nil {
			sp.End(obs.String("outcome", "error"))
			return opFail("bulk", err)
		}
		a.met.addBytes("rx", int64(rxBytes))
		sp.End(obs.String("outcome", "ok"), obs.Int("bytes", int64(rxBytes)))
		resp := Response{OK: true, RateBits: float64(rate), Bytes: int64(rxBytes)}
		rt.attach(&resp)
		return reply(enc, resp)

	case "tcp-send":
		dur := time.Duration(req.DurationMs) * time.Millisecond
		if dur <= 0 {
			dur = time.Second
		}
		sp := rt.tracer().Start(obs.Span{}, "agent.bulk",
			obs.String("role", "send"), obs.String("peer", peerLabel(req)))
		var sent units.ByteSize
		var err error
		if req.Bytes > 0 {
			sent, err = BulkSendN(req.Target, units.ByteSize(req.Bytes), reqTimeout(req, 30*time.Second))
		} else {
			sent, err = BulkSend(req.Target, dur)
		}
		if err != nil {
			sp.End(obs.String("outcome", "error"))
			return opFail("bulk", err)
		}
		a.met.addBytes("tx", int64(sent))
		sp.End(obs.String("outcome", "ok"), obs.Int("bytes", int64(sent)))
		resp := Response{OK: true, Bytes: int64(sent)}
		rt.attach(&resp)
		return reply(enc, resp)
	}
	return opFail("proto", fmt.Errorf("cluster: unknown op %q", req.Op))
}

func reqConfig(req *Request) probe.Config {
	cfg := probe.DefaultEC2()
	if req.Bursts > 0 {
		cfg.Bursts = req.Bursts
	}
	if req.BurstLen > 0 {
		cfg.BurstLength = req.BurstLen
	}
	if req.PacketSize > 0 {
		cfg.PacketSize = units.ByteSize(req.PacketSize)
	}
	if req.GapUs > 0 {
		cfg.Gap = time.Duration(req.GapUs) * time.Microsecond
	}
	return cfg
}

func reqTimeout(req *Request, def time.Duration) time.Duration {
	if req.TimeoutMs > 0 {
		return time.Duration(req.TimeoutMs) * time.Millisecond
	}
	return def
}
