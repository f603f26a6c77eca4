// Package livetest is the loopback live-mesh harness: it runs N real
// choreo-agents on 127.0.0.1 ephemeral ports inside the test process, so
// the whole live measurement path — coordinator dial, control protocol,
// UDP packet trains, RTT echoes, environment assembly — exercises real
// sockets hermetically in `go test` and CI, no VMs required.
package livetest

import (
	"fmt"
	"time"

	"choreo/internal/cluster"
	"choreo/internal/probe"
	"choreo/internal/units"
)

// Mesh is an in-process fleet of live choreo-agents.
type Mesh struct {
	agents []*cluster.Agent
}

// Start launches n agents on loopback ephemeral ports.
func Start(n int) (*Mesh, error) {
	if n < 2 {
		return nil, fmt.Errorf("livetest: a mesh needs at least 2 agents, got %d", n)
	}
	m := &Mesh{}
	for i := 0; i < n; i++ {
		a, err := cluster.StartAgent("127.0.0.1:0")
		if err != nil {
			m.Close()
			return nil, fmt.Errorf("livetest: starting agent %d: %w", i, err)
		}
		m.agents = append(m.agents, a)
	}
	return m, nil
}

// Addrs returns every agent's control address, in start order.
func (m *Mesh) Addrs() []string {
	addrs := make([]string, len(m.agents))
	for i, a := range m.agents {
		addrs[i] = a.Addr()
	}
	return addrs
}

// Kill stops agent i while the rest of the mesh keeps serving — the
// "agent died mid-measurement" failure injection.
func (m *Mesh) Kill(i int) error {
	return m.agents[i].Close()
}

// Close stops every agent. Safe to call twice (Close on a closed agent
// just returns its listener's error, which is ignored for agents already
// killed by Kill).
func (m *Mesh) Close() {
	for _, a := range m.agents {
		_ = a.Close()
	}
}

// QuickTrain is a train configuration small enough for loopback CI runs:
// real packets, but a few milliseconds per path instead of seconds.
func QuickTrain() probe.Config {
	return probe.Config{
		PacketSize:  units.ByteSize(512),
		Bursts:      2,
		BurstLength: 20,
		Gap:         time.Millisecond,
		MSS:         1460,
	}
}
