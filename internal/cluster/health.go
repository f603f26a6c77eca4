package cluster

import (
	"context"
	"time"
)

// AgentHealth is one agent's preflight status: whether the control
// socket answered the protocol handshake and how fast its UDP echo
// responder replies. Err is nil only for a reachable agent speaking
// ProtocolVersion — an agent on another version surfaces the
// coordinator's precise "speaks vN, need vM" error here, not a decode
// failure.
type AgentHealth struct {
	// Index is the agent's position in the fleet (the VM slot it would
	// be assigned).
	Index int
	// Addr is the agent's control address.
	Addr string
	// RTT is the median round trip to the agent's echo responder; zero
	// when the probe failed.
	RTT time.Duration
	// Uptime is the agent's self-reported process uptime; zero when the
	// handshake failed.
	Uptime time.Duration
	// Err is the first failure encountered (dial, handshake, version
	// mismatch or echo probe); nil for a healthy agent.
	Err error
}

// OK reports whether the agent passed the preflight.
func (h AgentHealth) OK() bool { return h.Err == nil }

// CheckAgent preflights one agent: dial the control socket, run the
// version handshake (every response line carries the protocol version,
// so the very first exchange catches an agent on another version) and
// RTT-probe the UDP echo responder the handshake advertised.
func (c *Coordinator) CheckAgent(ctx context.Context, agent int) AgentHealth {
	h := AgentHealth{Index: agent, Addr: c.agents[agent]}
	info, err := c.Info(ctx, agent)
	if err != nil {
		h.Err = err
		return h
	}
	h.Uptime = info.Uptime
	rtt, err := MeasureRTT(info.EchoAddr, 3, c.timeout)
	if err != nil {
		h.Err = err
		return h
	}
	h.RTT = rtt
	return h
}

// CheckFleet preflights every agent in order and reports per-agent
// status. Unlike a mesh measurement it does not stop at the first
// failure: an operator fixing a fleet wants the complete sick list in
// one pass. The second return counts healthy agents.
func (c *Coordinator) CheckFleet(ctx context.Context) ([]AgentHealth, int) {
	out := make([]AgentHealth, len(c.agents))
	healthy := 0
	for i := range c.agents {
		out[i] = c.CheckAgent(ctx, i)
		if out[i].OK() {
			healthy++
		}
	}
	return out, healthy
}
