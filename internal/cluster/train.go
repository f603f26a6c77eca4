// Package cluster implements Choreo's live measurement tools over real
// sockets: UDP packet-train sender and receiver, a netperf-style TCP bulk
// transfer, a UDP echo responder for RTT probes, and an agent/coordinator
// pair that measures every path of an N-VM mesh (paper §3.1: "the
// overhead of setting up and tearing down tenants/servers for
// measurement, and transferring throughput data to a centralized
// server").
//
// Receive timestamps use time.Now at ReadFrom, the portable stand-in for
// the paper's SO_TIMESTAMPNS kernel timestamps; on datacenter-scale paths
// the extra noise is microseconds and is amortized over burst length
// exactly like kernel timestamp noise.
package cluster

import (
	"encoding/binary"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"choreo/internal/probe"
	"choreo/internal/units"
)

// trainMagic marks Choreo train packets.
const trainMagic uint32 = 0x43545231 // "CTR1"

// headerSize is the per-packet header: magic, burst index, sequence.
const headerSize = 12

// SendTrain transmits one packet train to target per cfg. Packets within
// a burst go back-to-back; bursts are separated by cfg.Gap.
func SendTrain(target string, cfg probe.Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if cfg.PacketSize < headerSize {
		return fmt.Errorf("cluster: packet size %d below header size %d", cfg.PacketSize, headerSize)
	}
	conn, err := net.Dial("udp", target)
	if err != nil {
		return fmt.Errorf("cluster: dial train target: %w", err)
	}
	defer conn.Close()
	buf := make([]byte, cfg.PacketSize)
	binary.BigEndian.PutUint32(buf[0:], trainMagic)
	for b := 0; b < cfg.Bursts; b++ {
		binary.BigEndian.PutUint32(buf[4:], uint32(b))
		for s := 0; s < cfg.BurstLength; s++ {
			binary.BigEndian.PutUint32(buf[8:], uint32(s))
			if _, err := conn.Write(buf); err != nil {
				return fmt.Errorf("cluster: send burst %d packet %d: %w", b, s, err)
			}
		}
		if b+1 < cfg.Bursts && cfg.Gap > 0 {
			time.Sleep(cfg.Gap)
		}
	}
	return nil
}

// TrainReceiver listens for one train on a UDP socket.
type TrainReceiver struct {
	conn *net.UDPConn
}

// NewTrainReceiver binds an ephemeral UDP port on the given IP ("" means
// all interfaces).
func NewTrainReceiver(ip string) (*TrainReceiver, error) {
	addr := &net.UDPAddr{IP: net.ParseIP(ip)}
	conn, err := net.ListenUDP("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: bind train receiver: %w", err)
	}
	return &TrainReceiver{conn: conn}, nil
}

// Port returns the bound UDP port.
func (r *TrainReceiver) Port() int {
	return r.conn.LocalAddr().(*net.UDPAddr).Port
}

// Close releases the socket.
func (r *TrainReceiver) Close() error { return r.conn.Close() }

// burstState tracks one burst at the receiver.
type burstState struct {
	received       int
	minSeq, maxSeq int
	first, last    time.Time
	sawAny         bool
}

// Receive collects the train described by cfg, returning when the final
// packet of the final burst arrives, when the idle gap after traffic
// exceeds idleTimeout, or when the overall deadline passes.
func (r *TrainReceiver) Receive(cfg probe.Config, rtt time.Duration, deadline time.Duration, idleTimeout time.Duration) (probe.Observation, error) {
	if err := cfg.Validate(); err != nil {
		return probe.Observation{}, err
	}
	if idleTimeout <= 0 {
		idleTimeout = 500 * time.Millisecond
	}
	obs := probe.Observation{Config: cfg, RTT: rtt}
	bursts := make([]burstState, cfg.Bursts)
	buf := make([]byte, int(cfg.PacketSize)+64)
	end := time.Now().Add(deadline)
	gotAny := false

	for {
		wait := time.Until(end)
		if gotAny && wait > idleTimeout {
			wait = idleTimeout
		}
		if wait <= 0 {
			break
		}
		if err := r.conn.SetReadDeadline(time.Now().Add(wait)); err != nil {
			return probe.Observation{}, err
		}
		n, _, err := r.conn.ReadFromUDP(buf)
		now := time.Now() // SO_TIMESTAMPNS substitution
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				break
			}
			return probe.Observation{}, fmt.Errorf("cluster: train read: %w", err)
		}
		if n < headerSize || binary.BigEndian.Uint32(buf[0:]) != trainMagic {
			continue
		}
		b := int(binary.BigEndian.Uint32(buf[4:]))
		s := int(binary.BigEndian.Uint32(buf[8:]))
		if b < 0 || b >= cfg.Bursts || s < 0 || s >= cfg.BurstLength {
			continue
		}
		st := &bursts[b]
		if !st.sawAny {
			st.sawAny = true
			st.minSeq, st.maxSeq = s, s
			st.first, st.last = now, now
		} else {
			if s < st.minSeq {
				st.minSeq = s
			}
			if s > st.maxSeq {
				st.maxSeq = s
			}
			if now.After(st.last) {
				st.last = now
			}
		}
		st.received++
		gotAny = true
		if b == cfg.Bursts-1 && s == cfg.BurstLength-1 {
			break // final packet of the train
		}
	}
	if !gotAny {
		return probe.Observation{}, fmt.Errorf("cluster: no train packets received")
	}
	for _, st := range bursts {
		bo := probe.BurstObservation{Sent: cfg.BurstLength}
		if st.sawAny {
			bo.Received = st.received
			bo.HeadLost = st.minSeq
			bo.TailLost = cfg.BurstLength - 1 - st.maxSeq
			bo.Span = st.last.Sub(st.first)
		}
		obs.Bursts = append(obs.Bursts, bo)
	}
	return obs, nil
}

// EchoServer responds to UDP RTT probes by reflecting each datagram.
type EchoServer struct {
	conn *net.UDPConn
	done chan struct{}
	pkts atomic.Int64
}

// NewEchoServer starts an echo responder on an ephemeral port.
func NewEchoServer(ip string) (*EchoServer, error) {
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.ParseIP(ip)})
	if err != nil {
		return nil, fmt.Errorf("cluster: bind echo server: %w", err)
	}
	e := &EchoServer{conn: conn, done: make(chan struct{})}
	go e.loop()
	return e, nil
}

func (e *EchoServer) loop() {
	defer close(e.done)
	buf := make([]byte, 2048)
	for {
		n, addr, err := e.conn.ReadFromUDP(buf)
		if err != nil {
			return // closed
		}
		e.pkts.Add(1)
		_, _ = e.conn.WriteToUDP(buf[:n], addr)
	}
}

// Packets reports how many datagrams the responder has reflected —
// feeds the agent's echo-packet counter.
func (e *EchoServer) Packets() int64 { return e.pkts.Load() }

// Port returns the echo port.
func (e *EchoServer) Port() int { return e.conn.LocalAddr().(*net.UDPAddr).Port }

// Close stops the server.
func (e *EchoServer) Close() error {
	err := e.conn.Close()
	<-e.done
	return err
}

// MeasureRTT ping-pongs count datagrams off an echo server and returns
// the minimum round-trip time (minimum filters queueing noise).
func MeasureRTT(target string, count int, timeout time.Duration) (time.Duration, error) {
	if count <= 0 {
		count = 5
	}
	conn, err := net.Dial("udp", target)
	if err != nil {
		return 0, fmt.Errorf("cluster: dial echo: %w", err)
	}
	defer conn.Close()
	buf := make([]byte, 64)
	reply := make([]byte, 128)
	best := time.Duration(-1)
	for i := 0; i < count; i++ {
		binary.BigEndian.PutUint64(buf, uint64(i))
		start := time.Now()
		if _, err := conn.Write(buf); err != nil {
			return 0, err
		}
		if err := conn.SetReadDeadline(time.Now().Add(timeout)); err != nil {
			return 0, err
		}
		if _, err := conn.Read(reply); err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				continue
			}
			return 0, err
		}
		rtt := time.Since(start)
		if best < 0 || rtt < best {
			best = rtt
		}
	}
	if best < 0 {
		return 0, fmt.Errorf("cluster: no echo replies from %s", target)
	}
	return best, nil
}

// BulkReceiver accepts one TCP connection and drains it, reporting the
// received byte count and elapsed time — the measuring half of netperf.
type BulkReceiver struct {
	ln net.Listener
}

// NewBulkReceiver listens on an ephemeral TCP port.
func NewBulkReceiver(ip string) (*BulkReceiver, error) {
	ln, err := net.Listen("tcp", ip+":0")
	if err != nil {
		return nil, fmt.Errorf("cluster: bind bulk receiver: %w", err)
	}
	return &BulkReceiver{ln: ln}, nil
}

// Port returns the listening port.
func (b *BulkReceiver) Port() int { return b.ln.Addr().(*net.TCPAddr).Port }

// Close stops listening.
func (b *BulkReceiver) Close() error { return b.ln.Close() }

// Receive accepts one sender and drains until EOF or deadline, returning
// the measured throughput.
func (b *BulkReceiver) Receive(deadline time.Duration) (units.Rate, units.ByteSize, error) {
	if tl, ok := b.ln.(*net.TCPListener); ok {
		_ = tl.SetDeadline(time.Now().Add(deadline))
	}
	conn, err := b.ln.Accept()
	if err != nil {
		return 0, 0, fmt.Errorf("cluster: bulk accept: %w", err)
	}
	defer conn.Close()
	_ = conn.SetReadDeadline(time.Now().Add(deadline))
	var total units.ByteSize
	buf := make([]byte, 256*1024)
	start := time.Now()
	var first time.Time
	for {
		n, err := conn.Read(buf)
		if n > 0 {
			if first.IsZero() {
				first = time.Now()
				start = first
			}
			total += units.ByteSize(n)
		}
		if err != nil {
			break // EOF or deadline ends the measurement
		}
	}
	elapsed := time.Since(start)
	if total == 0 || elapsed <= 0 {
		return 0, 0, fmt.Errorf("cluster: bulk transfer delivered no data")
	}
	return units.Rate(total.Bits() / elapsed.Seconds()), total, nil
}

// BulkSend connects to target and writes junk for the given duration —
// the sending half of netperf.
func BulkSend(target string, duration time.Duration) (units.ByteSize, error) {
	conn, err := net.Dial("tcp", target)
	if err != nil {
		return 0, fmt.Errorf("cluster: dial bulk target: %w", err)
	}
	defer conn.Close()
	buf := make([]byte, 256*1024)
	var sent units.ByteSize
	end := time.Now().Add(duration)
	for time.Now().Before(end) {
		_ = conn.SetWriteDeadline(time.Now().Add(duration + time.Second))
		n, err := conn.Write(buf)
		sent += units.ByteSize(n)
		if err != nil {
			return sent, fmt.Errorf("cluster: bulk write: %w", err)
		}
	}
	return sent, nil
}

// BulkSendN connects to target and writes exactly n bytes, then closes
// the connection so the receiver sees EOF — the byte-bounded sending
// half an executed placement uses: the flow carries the traffic
// matrix's payload, not a fixed duration of junk. timeout bounds each
// write; a stalled receiver surfaces as a deadline error rather than a
// wedged flow.
func BulkSendN(target string, n units.ByteSize, timeout time.Duration) (units.ByteSize, error) {
	if n <= 0 {
		return 0, fmt.Errorf("cluster: bulk send of %d bytes", n)
	}
	conn, err := net.Dial("tcp", target)
	if err != nil {
		return 0, fmt.Errorf("cluster: dial bulk target: %w", err)
	}
	defer conn.Close()
	buf := make([]byte, 256*1024)
	var sent units.ByteSize
	for sent < n {
		chunk := buf
		if rem := n - sent; rem < units.ByteSize(len(buf)) {
			chunk = buf[:rem]
		}
		_ = conn.SetWriteDeadline(time.Now().Add(timeout))
		w, err := conn.Write(chunk)
		sent += units.ByteSize(w)
		if err != nil {
			return sent, fmt.Errorf("cluster: bulk write: %w", err)
		}
	}
	return sent, nil
}
