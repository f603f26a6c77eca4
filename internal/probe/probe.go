// Package probe implements Choreo's packet-train throughput estimation
// (paper §3.1): a train is K bursts of B back-to-back P-byte UDP packets,
// bursts separated by δ to avoid persistent congestion. The receiver
// records kernel-level timestamps of the first and last packet of each
// burst and counts arrivals; the sender inserts sequence numbers so head
// and tail losses are detectable.
//
// The TCP throughput estimate is the paper's combined estimator
//
//	min{ P·(N−1)·(1−ℓ)/T , MSS·C/(RTT·√ℓ) }
//
// where the first term is the train dispersion estimate and the second is
// the Mathis et al. upper bound with C ≈ √(3/2).
package probe

import (
	"errors"
	"fmt"
	"math"
	"time"

	"choreo/internal/units"
)

// MathisC is the constant of proportionality in the Mathis throughput
// formula, √(3/2).
var MathisC = math.Sqrt(3.0 / 2.0)

// Config parameterizes one packet train.
type Config struct {
	PacketSize  units.ByteSize // P: UDP datagram payload bytes on the wire
	Bursts      int            // K: number of bursts in the train
	BurstLength int            // B: packets per burst
	Gap         time.Duration  // δ: pause between bursts
	MSS         units.ByteSize // TCP MSS used by the Mathis bound
}

// DefaultEC2 is the configuration the paper found effective on EC2:
// 10 bursts of 200 packets of 1472 bytes with 1 ms gaps (§4.1).
func DefaultEC2() Config {
	return Config{PacketSize: 1472, Bursts: 10, BurstLength: 200, Gap: time.Millisecond, MSS: 1460}
}

// DefaultRackspace is the configuration that works on Rackspace (and also
// on EC2): 10 bursts of 2000 packets (§4.1).
func DefaultRackspace() Config {
	return Config{PacketSize: 1472, Bursts: 10, BurstLength: 2000, Gap: time.Millisecond, MSS: 1460}
}

// Validate reports a descriptive error for nonsensical configurations.
func (c Config) Validate() error {
	if c.PacketSize <= 0 {
		return fmt.Errorf("probe: packet size %d must be positive", c.PacketSize)
	}
	if c.Bursts <= 0 {
		return fmt.Errorf("probe: burst count %d must be positive", c.Bursts)
	}
	if c.BurstLength < 2 {
		return fmt.Errorf("probe: burst length %d must be at least 2", c.BurstLength)
	}
	if c.Gap < 0 {
		return fmt.Errorf("probe: negative gap %v", c.Gap)
	}
	if c.MSS <= 0 {
		return fmt.Errorf("probe: MSS %d must be positive", c.MSS)
	}
	return nil
}

// BurstObservation is what the receiver saw for one burst.
type BurstObservation struct {
	Sent     int           // packets the sender emitted (B)
	Received int           // packets that arrived
	HeadLost int           // missing packets at the front (by sequence number)
	TailLost int           // missing packets at the end
	Span     time.Duration // first-to-last received packet timestamps
}

// Observation is the receiver-side record of one full train.
type Observation struct {
	Config Config
	Bursts []BurstObservation
	RTT    time.Duration // separately measured path RTT (for the Mathis bound)
}

// ErrNoData indicates a train where no burst delivered two or more packets.
var ErrNoData = errors.New("probe: no usable bursts (all packets lost?)")

// LossRate returns the train's overall packet loss fraction ℓ.
func (o Observation) LossRate() float64 {
	sent, recv := 0, 0
	for _, b := range o.Bursts {
		sent += b.Sent
		recv += b.Received
	}
	if sent == 0 {
		return 0
	}
	return 1 - float64(recv)/float64(sent)
}

// DispersionEstimate computes the paper's packet-train estimate
// P·Σnᵢ/Σtᵢ, where tᵢ is the measured burst span adjusted for lost head
// or tail packets: the span is stretched by the burst's average
// per-packet time for each missing edge packet, recovering "what the time
// difference should have been" (§3.1).
func (o Observation) DispersionEstimate() (units.Rate, error) {
	var bytes, seconds float64
	for _, b := range o.Bursts {
		if b.Received < 2 || b.Span <= 0 {
			continue
		}
		span := b.Span.Seconds()
		if edge := b.HeadLost + b.TailLost; edge > 0 {
			perPacket := span / float64(b.Received-1)
			span += perPacket * float64(edge)
		}
		bytes += float64(o.Config.PacketSize) * float64(b.Received)
		seconds += span
	}
	if seconds == 0 {
		return 0, ErrNoData
	}
	return units.Rate(bytes * 8 / seconds), nil
}

// MathisEstimate computes MSS·C/(RTT·√ℓ). With zero loss or an unknown
// RTT the bound is vacuous and +Inf is returned.
func (o Observation) MathisEstimate() units.Rate {
	l := o.LossRate()
	if l <= 0 || o.RTT <= 0 {
		return units.Rate(math.Inf(1))
	}
	bits := o.Config.MSS.Bits()
	return units.Rate(bits * MathisC / (o.RTT.Seconds() * math.Sqrt(l)))
}

// EstimateThroughput is the combined estimator: the minimum of the
// dispersion estimate and the Mathis bound. It folds the loss-rate and
// dispersion accumulations into a single pass over the bursts — each
// accumulator sees the same additions in the same order as the
// standalone estimators, so the result is bit-identical to combining
// DispersionEstimate and MathisEstimate (this sits on the mesh
// measurement hot path, once per train).
func (o Observation) EstimateThroughput() (units.Rate, error) {
	sent, recv := 0, 0
	var bytes, seconds float64
	for _, b := range o.Bursts {
		sent += b.Sent
		recv += b.Received
		if b.Received < 2 || b.Span <= 0 {
			continue
		}
		span := b.Span.Seconds()
		if edge := b.HeadLost + b.TailLost; edge > 0 {
			perPacket := span / float64(b.Received-1)
			span += perPacket * float64(edge)
		}
		bytes += float64(o.Config.PacketSize) * float64(b.Received)
		seconds += span
	}
	if seconds == 0 {
		return 0, ErrNoData
	}
	disp := units.Rate(bytes * 8 / seconds)

	l := 0.0
	if sent != 0 {
		l = 1 - float64(recv)/float64(sent)
	}
	if l > 0 && o.RTT > 0 {
		bits := o.Config.MSS.Bits()
		if mathis := units.Rate(bits * MathisC / (o.RTT.Seconds() * math.Sqrt(l))); mathis < disp {
			return mathis, nil
		}
	}
	return disp, nil
}

// Duration returns roughly how long the train occupies the sender: burst
// transmit times are dominated by spans; gaps separate the bursts.
func (o Observation) Duration() time.Duration {
	var total time.Duration
	for i, b := range o.Bursts {
		total += b.Span
		if i > 0 {
			total += o.Config.Gap
		}
	}
	return total
}
