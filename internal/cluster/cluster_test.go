package cluster

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"choreo/internal/probe"
	"choreo/internal/units"
)

// tinyTrain keeps loopback tests fast and robust.
func tinyTrain() probe.Config {
	return probe.Config{
		PacketSize:  512,
		Bursts:      4,
		BurstLength: 50,
		Gap:         2 * time.Millisecond,
		MSS:         1460,
	}
}

func TestTrainSendReceiveLoopback(t *testing.T) {
	recv, err := NewTrainReceiver("127.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()

	cfg := tinyTrain()
	errCh := make(chan error, 1)
	go func() {
		errCh <- SendTrain("127.0.0.1:"+itoa(recv.Port()), cfg)
	}()
	obs, err := recv.Receive(cfg, 100*time.Microsecond, 5*time.Second, 300*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	if len(obs.Bursts) != cfg.Bursts {
		t.Fatalf("got %d bursts", len(obs.Bursts))
	}
	total := 0
	for _, b := range obs.Bursts {
		total += b.Received
		if b.Received > b.Sent {
			t.Errorf("burst received %d > sent %d", b.Received, b.Sent)
		}
	}
	// Loopback should deliver nearly everything.
	if total < cfg.Bursts*cfg.BurstLength*8/10 {
		t.Fatalf("only %d/%d packets arrived", total, cfg.Bursts*cfg.BurstLength)
	}
	est, err := obs.EstimateThroughput()
	if err != nil {
		t.Fatal(err)
	}
	// Loopback is fast: anything above 50 Mbit/s is plausible across CI
	// environments; the point is the plumbing, not the absolute value.
	if est < units.Mbps(50) {
		t.Errorf("loopback estimate %v suspiciously low", est)
	}
}

func TestSendTrainValidation(t *testing.T) {
	bad := tinyTrain()
	bad.PacketSize = 4 // below header size
	if err := SendTrain("127.0.0.1:1", bad); err == nil {
		t.Error("tiny packets should fail")
	}
	if err := SendTrain("127.0.0.1:1", probe.Config{}); err == nil {
		t.Error("zero config should fail")
	}
}

func TestEchoAndRTT(t *testing.T) {
	echo, err := NewEchoServer("127.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	defer echo.Close()
	rtt, err := MeasureRTT("127.0.0.1:"+itoa(echo.Port()), 5, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if rtt <= 0 || rtt > 500*time.Millisecond {
		t.Errorf("loopback RTT = %v", rtt)
	}
	if _, err := MeasureRTT("127.0.0.1:1", 2, 50*time.Millisecond); err == nil {
		t.Error("dead echo target should fail")
	}
}

func TestBulkTransferLoopback(t *testing.T) {
	recv, err := NewBulkReceiver("127.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	go func() {
		_, _ = BulkSend("127.0.0.1:"+itoa(recv.Port()), 300*time.Millisecond)
	}()
	rate, bytes, err := recv.Receive(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if bytes <= 0 {
		t.Fatal("no bytes received")
	}
	if rate < units.Mbps(10) {
		t.Errorf("loopback bulk rate %v suspiciously low", rate)
	}
}

func TestAgentCoordinatorMesh(t *testing.T) {
	var agents []*Agent
	var addrs []string
	for i := 0; i < 3; i++ {
		a, err := StartAgent("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer a.Close()
		agents = append(agents, a)
		addrs = append(addrs, a.Addr())
	}
	coord := NewCoordinator(addrs, 10*time.Second)
	if len(coord.agents) != 3 {
		t.Fatalf("agents = %d", len(coord.agents))
	}

	res, err := coord.MeasureMesh(context.Background(), tinyTrain())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if i == j {
				if res.Rates[i][j] != 0 {
					t.Errorf("diagonal rate %v", res.Rates[i][j])
				}
				continue
			}
			if res.Rates[i][j] <= 0 {
				t.Errorf("pair %d->%d rate %v", i, j, res.Rates[i][j])
			}
		}
	}
	if res.Elapsed <= 0 {
		t.Error("elapsed not recorded")
	}
}

func TestAgentBulkThroughput(t *testing.T) {
	a1, err := StartAgent("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a1.Close()
	a2, err := StartAgent("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a2.Close()
	coord := NewCoordinator([]string{a1.Addr(), a2.Addr()}, 10*time.Second)
	rate, err := coord.BulkThroughput(context.Background(), 0, 1, 200*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if rate < units.Mbps(10) {
		t.Errorf("bulk throughput %v suspiciously low", rate)
	}
	if _, err := coord.BulkThroughput(context.Background(), 0, 0, time.Second); err == nil {
		t.Error("self bulk should fail")
	}
}

func TestCoordinatorErrors(t *testing.T) {
	coord := NewCoordinator([]string{"127.0.0.1:1"}, time.Second)
	if _, err := coord.MeasureMesh(context.Background(), tinyTrain()); err == nil {
		t.Error("single agent mesh should fail")
	}
	coord2 := NewCoordinator([]string{"127.0.0.1:1", "127.0.0.1:2"}, 500*time.Millisecond)
	if _, err := coord2.MeasureMesh(context.Background(), tinyTrain()); err == nil {
		t.Error("unreachable agents should fail")
	}
}

func TestAgentUnknownOp(t *testing.T) {
	a, err := StartAgent("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	c := NewCoordinator([]string{a.Addr()}, time.Second)
	s, err := c.dial(context.Background(), a.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	// Ops come off the network: 100 distinct bogus names must share one
	// metric series rather than mint 100.
	for i := 0; i < 100; i++ {
		if _, err := s.call(context.Background(), &Request{Op: "bogus-" + itoa(i)}); err == nil {
			t.Fatal("unknown op should return an error response")
		}
	}
	var expo bytes.Buffer
	if err := a.met.write(&expo); err != nil {
		t.Fatal(err)
	}
	text := expo.String()
	for _, want := range []string{
		`choreo_agent_ops_total{op="unknown"} 100`,
		`choreo_agent_failures_total{op="unknown",cause="proto"} 100`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition lacks %s:\n%s", want, text)
		}
	}
	if strings.Contains(text, "bogus") || strings.Count(text, `op="unknown"`) != 2 {
		t.Errorf("bogus ops leaked into metric labels:\n%s", text)
	}
}

// TestAgentRefusesOverlongRequest feeds the agent 1 MiB with no newline:
// the session must end with one proto failure instead of buffering it,
// and a fresh session to the same agent must still work.
func TestAgentRefusesOverlongRequest(t *testing.T) {
	a, err := StartAgent("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	conn, err := net.Dial("tcp", a.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// An unterminated JSON string, so only the line bound can stop the
	// read. The agent hangs up mid-write, so the write's error is
	// expected.
	line := append([]byte(`{"v":3,"op":"info","target":"`), bytes.Repeat([]byte{'x'}, 1<<20)...)
	go func() { _, _ = conn.Write(line) }()
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadAll(conn); err != nil {
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			t.Fatal("agent kept reading an over-long request line")
		}
	}
	var expo bytes.Buffer
	if err := a.met.write(&expo); err != nil {
		t.Fatal(err)
	}
	if want := `choreo_agent_failures_total{op="unknown",cause="proto"} 1`; !strings.Contains(expo.String(), want) {
		t.Errorf("over-long request not counted as %s:\n%s", want, expo.String())
	}

	c := NewCoordinator([]string{a.Addr()}, time.Second)
	if _, err := c.Info(context.Background(), 0); err != nil {
		t.Errorf("normal session after the refused one: %v", err)
	}
}

// TestAgentClosesIdleSession holds two sessions open without a
// request: one silent from the start, one silent after its first
// request. The agent must hang up on each once the idle deadline
// passes, count each as one proto failure, and keep serving.
func TestAgentClosesIdleSession(t *testing.T) {
	a, err := startAgent("127.0.0.1:0", 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	for _, first := range []string{"", `{"v":3,"op":"info"}` + "\n"} {
		conn, err := net.Dial("tcp", a.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := io.WriteString(conn, first); err != nil {
			t.Fatal(err)
		}
		if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
			t.Fatal(err)
		}
		// The reply to the first request, if any, then EOF.
		if _, err := io.ReadAll(conn); err != nil {
			t.Fatalf("agent kept an idle session open: %v", err)
		}
	}
	var expo bytes.Buffer
	if err := a.met.write(&expo); err != nil {
		t.Fatal(err)
	}
	if want := `choreo_agent_failures_total{op="unknown",cause="proto"} 2`; !strings.Contains(expo.String(), want) {
		t.Errorf("idle sessions not counted as %s:\n%s", want, expo.String())
	}

	c := NewCoordinator([]string{a.Addr()}, time.Second)
	if _, err := c.Info(context.Background(), 0); err != nil {
		t.Errorf("session after the idle ones: %v", err)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var digits []byte
	for n > 0 {
		digits = append([]byte{byte('0' + n%10)}, digits...)
		n /= 10
	}
	return string(digits)
}
