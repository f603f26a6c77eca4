package cluster_test

// Coordinator failure-path tests over the loopback live-mesh harness:
// a dead agent mid-mesh, a dial failure, a wedged (accepting but
// silent) agent, and protocol-version mismatches in both directions.
// External test package so the harness (which imports cluster) can be
// reused.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"choreo/internal/cluster"
	"choreo/internal/obs"
	"choreo/internal/sweep/backend/livetest"
)

// TestMeshAgentDiesMidMeasurement kills one agent of a three-agent mesh
// and checks the partial-mesh error names the failing pair, both
// addresses and how far the mesh got — not a bare decode error.
func TestMeshAgentDiesMidMeasurement(t *testing.T) {
	mesh, err := livetest.Start(3)
	if err != nil {
		t.Fatal(err)
	}
	defer mesh.Close()
	addrs := mesh.Addrs()
	// Agents 0 and 1 keep serving, so pair 0->1 completes; the next pair
	// in mesh order, 0->2, touches the dead agent and must fail with its
	// coordinates.
	if err := mesh.Kill(2); err != nil {
		t.Fatal(err)
	}

	coord := cluster.NewCoordinator(addrs, 2*time.Second)
	_, err = coord.MeasureMesh(context.Background(), livetest.QuickTrain())
	if err == nil {
		t.Fatal("MeasureMesh succeeded with a dead agent")
	}
	msg := err.Error()
	if !strings.Contains(msg, "mesh pair 0->2") {
		t.Errorf("error does not name the failing pair 0->2: %v", err)
	}
	if !strings.Contains(msg, addrs[2]) {
		t.Errorf("error does not name the dead agent's address %s: %v", addrs[2], err)
	}
	if !strings.Contains(msg, "after 1 of 6 pairs") {
		t.Errorf("error does not report partial-mesh progress (want \"after 1 of 6 pairs\"): %v", err)
	}
}

// TestMeshDialFailure points the coordinator at an address nothing
// listens on: the mesh must fail on the very first pair with a dial
// error carrying the address.
func TestMeshDialFailure(t *testing.T) {
	mesh, err := livetest.Start(2)
	if err != nil {
		t.Fatal(err)
	}
	defer mesh.Close()
	// Reserve a port and release it so the dial is refused quickly.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()

	coord := cluster.NewCoordinator([]string{mesh.Addrs()[0], dead}, 2*time.Second)
	_, err = coord.MeasureMesh(context.Background(), livetest.QuickTrain())
	if err == nil {
		t.Fatal("MeasureMesh succeeded with an unreachable agent")
	}
	if !strings.Contains(err.Error(), "dial agent "+dead) {
		t.Errorf("error does not surface the dial failure for %s: %v", dead, err)
	}
	if !strings.Contains(err.Error(), "mesh pair") {
		t.Errorf("error does not name the failing pair: %v", err)
	}
}

// TestSilentAgentTimesOut wedges the coordinator against a peer that
// accepts the connection but never answers: before the session
// deadlines this hung forever; now it must fail within the timeout.
func TestSilentAgentTimesOut(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close() // accept and say nothing
		}
	}()

	coord := cluster.NewCoordinator([]string{ln.Addr().String(), ln.Addr().String()}, 300*time.Millisecond)
	done := make(chan error, 1)
	go func() {
		_, err := coord.EchoAddr(context.Background(), 0)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("EchoAddr succeeded against a silent peer")
		}
		if !strings.Contains(err.Error(), ln.Addr().String()) {
			t.Errorf("timeout error does not name the agent: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("coordinator hung against a silent peer (missing read deadline)")
	}
}

// TestStaleAgentVersionRefused runs the coordinator against fake agents
// from other builds: a v1 agent that answers without a version field,
// and a v2 agent that refuses the v3 request with a reply stamped "v":2.
// Either way the coordinator must fail on the first exchange with an
// error naming both versions, send nothing more, and count one
// version-mismatch failure.
func TestStaleAgentVersionRefused(t *testing.T) {
	for _, tc := range []struct {
		name, reply string
		v           int
	}{
		{"v1", `{"ok":true,"echoPort":9}`, 1},
		{"v2", `{"v":2,"ok":false,"error":"cluster: choreo-agent speaks protocol v2, coordinator speaks v3; upgrade so both sides match"}`, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			// The stub answers every request line on its one connection
			// and reports how many it saw once the coordinator hangs up.
			requests := make(chan int, 1)
			go func() {
				conn, err := ln.Accept()
				if err != nil {
					requests <- -1
					return
				}
				defer conn.Close()
				n := 0
				for sc := bufio.NewScanner(conn); sc.Scan(); n++ {
					fmt.Fprintf(conn, "%s\n", tc.reply)
				}
				requests <- n
			}()

			addr := ln.Addr().String()
			o := &obs.Observer{Metrics: obs.NewRegistry()}
			coord := cluster.NewCoordinator([]string{addr, addr}, 2*time.Second).Instrument(o)
			_, err = coord.EchoAddr(context.Background(), 0)
			if err == nil {
				t.Fatalf("coordinator accepted a v%d response", tc.v)
			}
			want := fmt.Sprintf("speaks protocol v%d, need v%d", tc.v, cluster.ProtocolVersion)
			if !strings.Contains(err.Error(), want) {
				t.Errorf("error = %v, want it to contain %q", err, want)
			}
			select {
			case n := <-requests:
				if n != 1 {
					t.Errorf("coordinator sent %d requests, want exactly 1", n)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("coordinator kept the session open after the refusal")
			}
			var expo bytes.Buffer
			if err := o.Metrics.WritePrometheus(&expo); err != nil {
				t.Fatal(err)
			}
			wantMetric := `choreo_cluster_failures_total{agent="` + addr + `",cause="version-mismatch"} 1`
			if !strings.Contains(expo.String(), wantMetric) {
				t.Errorf("refusal not counted once as version-mismatch:\nwant %s\ngot:\n%s", wantMetric, expo.String())
			}
		})
	}
}

// TestStaleCoordinatorVersionRefused sends a real agent requests from
// older coordinators — v1 (no "v" field) and v2: the agent must answer
// with a proto refusal naming both versions instead of acting on a
// half-understood command.
func TestStaleCoordinatorVersionRefused(t *testing.T) {
	mesh, err := livetest.Start(2)
	if err != nil {
		t.Fatal(err)
	}
	defer mesh.Close()

	conn, err := net.Dial("tcp", mesh.Addrs()[0])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	dec := json.NewDecoder(bufio.NewReader(conn))
	for _, tc := range []struct {
		v   int
		req string
	}{{1, `{"op":"info"}`}, {2, `{"v":2,"op":"info"}`}} {
		if _, err := fmt.Fprintf(conn, "%s\n", tc.req); err != nil {
			t.Fatal(err)
		}
		var resp cluster.Response
		if err := dec.Decode(&resp); err != nil {
			t.Fatal(err)
		}
		if resp.Error == "" {
			t.Fatalf("agent accepted a v%d request", tc.v)
		}
		want := fmt.Sprintf("speaks protocol v%d, coordinator speaks v%d", cluster.ProtocolVersion, tc.v)
		if !strings.Contains(resp.Error, want) {
			t.Errorf("agent error = %q, want it to contain %q", resp.Error, want)
		}
		if resp.ErrCause != "proto" {
			t.Errorf("v%d refusal cause = %q, want proto", tc.v, resp.ErrCause)
		}
		if resp.V != cluster.ProtocolVersion {
			t.Errorf("agent error response carries v%d, want v%d", resp.V, cluster.ProtocolVersion)
		}
	}
}

// TestMeasureMeshCanceled cancels a mesh measurement mid-flight: the
// coordinator must return promptly (well before the pairs remaining
// would take), surface context.Canceled through errors.Is, and report
// partial-mesh progress — the shutdown path `choreo serve` relies on.
func TestMeasureMeshCanceled(t *testing.T) {
	mesh, err := livetest.Start(3)
	if err != nil {
		t.Fatal(err)
	}
	defer mesh.Close()

	// A slow train: 40 bursts with a 50 ms gap is ~2 s per pair, 6 pairs
	// ~12 s per mesh — cancellation after 100 ms must cut all of it.
	slow := livetest.QuickTrain()
	slow.Bursts = 40
	slow.Gap = 50 * time.Millisecond

	coord := cluster.NewCoordinator(mesh.Addrs(), 30*time.Second)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = coord.MeasureMesh(ctx, slow)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("MeasureMesh succeeded despite cancellation")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error does not wrap context.Canceled: %v", err)
	}
	if !strings.Contains(err.Error(), "of 6 pairs") {
		t.Errorf("error does not report partial-mesh progress: %v", err)
	}
	if elapsed > 5*time.Second {
		t.Errorf("cancellation took %v; the in-flight pair was not interrupted", elapsed)
	}
}

// TestMeasureMeshAlreadyCanceled pins the fast path: a context canceled
// before the first pair must fail before touching any socket.
func TestMeasureMeshAlreadyCanceled(t *testing.T) {
	coord := cluster.NewCoordinator([]string{"127.0.0.1:1", "127.0.0.1:2"}, time.Second)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := coord.MeasureMesh(ctx, livetest.QuickTrain())
	if !errors.Is(err, context.Canceled) {
		t.Errorf("MeasureMesh on a canceled context = %v, want context.Canceled", err)
	}
	if !strings.Contains(err.Error(), "after 0 of 2 pairs") {
		t.Errorf("error does not report zero progress: %v", err)
	}
}
