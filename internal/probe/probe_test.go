package probe

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"choreo/internal/units"
)

func TestConfigValidate(t *testing.T) {
	good := DefaultEC2()
	if err := good.Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"zero packet size", func(c *Config) { c.PacketSize = 0 }},
		{"zero bursts", func(c *Config) { c.Bursts = 0 }},
		{"one-packet burst", func(c *Config) { c.BurstLength = 1 }},
		{"negative gap", func(c *Config) { c.Gap = -time.Millisecond }},
		{"zero mss", func(c *Config) { c.MSS = 0 }},
	}
	for _, tc := range cases {
		c := DefaultEC2()
		tc.mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

func TestDispersionEstimateCleanBurst(t *testing.T) {
	// 200 packets of 1472 bytes received over 2.3552 ms = 1 Gbit/s.
	cfg := Config{PacketSize: 1472, Bursts: 1, BurstLength: 200, MSS: 1460}
	obs := Observation{
		Config: cfg,
		Bursts: []BurstObservation{{Sent: 200, Received: 200, Span: 2355200 * time.Nanosecond}},
	}
	rate, err := obs.DispersionEstimate()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rate.Gbps()-1) > 1e-6 {
		t.Errorf("dispersion = %v, want 1 Gbit/s", rate)
	}
}

func TestDispersionAveragesAcrossBursts(t *testing.T) {
	cfg := Config{PacketSize: 1000, Bursts: 2, BurstLength: 100, MSS: 1460}
	obs := Observation{
		Config: cfg,
		Bursts: []BurstObservation{
			{Sent: 100, Received: 100, Span: time.Millisecond},     // 800 Mbit/s
			{Sent: 100, Received: 100, Span: 2 * time.Millisecond}, // 400 Mbit/s
		},
	}
	rate, err := obs.DispersionEstimate()
	if err != nil {
		t.Fatal(err)
	}
	// Combined: 200 kB over 3 ms = 533.3 Mbit/s (time-weighted, not the
	// mean of the per-burst rates).
	if math.Abs(rate.Mbps()-533.333) > 0.01 {
		t.Errorf("combined dispersion = %v", rate)
	}
}

func TestDispersionEdgeLossAdjustment(t *testing.T) {
	// 10 packets sent; the last 2 were lost. 8 received over 7 "gaps";
	// the span is stretched by 2 more per-packet times: the estimate must
	// equal P*8 / (span * 9/7).
	cfg := Config{PacketSize: 1000, Bursts: 1, BurstLength: 10, MSS: 1460}
	span := 7 * time.Millisecond
	obs := Observation{
		Config: cfg,
		Bursts: []BurstObservation{{Sent: 10, Received: 8, TailLost: 2, Span: span}},
	}
	rate, err := obs.DispersionEstimate()
	if err != nil {
		t.Fatal(err)
	}
	want := 8000.0 * 8 / (0.007 * 9.0 / 7.0)
	if math.Abs(float64(rate)-want) > 1 {
		t.Errorf("adjusted dispersion = %v, want %v", float64(rate), want)
	}
	// Head losses adjust identically.
	obs.Bursts[0].TailLost = 0
	obs.Bursts[0].HeadLost = 2
	rate2, err := obs.DispersionEstimate()
	if err != nil {
		t.Fatal(err)
	}
	if rate2 != rate {
		t.Errorf("head and tail adjustments differ: %v vs %v", rate2, rate)
	}
}

func TestDispersionSkipsUnusableBursts(t *testing.T) {
	cfg := Config{PacketSize: 1000, Bursts: 3, BurstLength: 10, MSS: 1460}
	obs := Observation{
		Config: cfg,
		Bursts: []BurstObservation{
			{Sent: 10, Received: 1, Span: time.Millisecond},  // too few
			{Sent: 10, Received: 10, Span: 0},                // no span
			{Sent: 10, Received: 10, Span: time.Millisecond}, // usable: 80 Mbit/s
		},
	}
	rate, err := obs.DispersionEstimate()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rate.Mbps()-80) > 1e-9 {
		t.Errorf("rate = %v, want 80 Mbit/s", rate)
	}
}

func TestDispersionNoData(t *testing.T) {
	cfg := Config{PacketSize: 1000, Bursts: 1, BurstLength: 10, MSS: 1460}
	obs := Observation{
		Config: cfg,
		Bursts: []BurstObservation{{Sent: 10, Received: 0}},
	}
	if _, err := obs.DispersionEstimate(); err != ErrNoData {
		t.Errorf("error = %v, want ErrNoData", err)
	}
	if _, err := obs.EstimateThroughput(); err != ErrNoData {
		t.Errorf("combined error = %v, want ErrNoData", err)
	}
}

func TestLossRate(t *testing.T) {
	cfg := Config{PacketSize: 1000, Bursts: 2, BurstLength: 10, MSS: 1460}
	obs := Observation{
		Config: cfg,
		Bursts: []BurstObservation{
			{Sent: 10, Received: 9},
			{Sent: 10, Received: 7},
		},
	}
	if got := obs.LossRate(); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("loss = %v, want 0.2", got)
	}
	empty := Observation{Config: cfg}
	if got := empty.LossRate(); got != 0 {
		t.Errorf("empty loss = %v", got)
	}
}

func TestMathisEstimate(t *testing.T) {
	cfg := Config{PacketSize: 1472, Bursts: 1, BurstLength: 100, MSS: 1460}
	obs := Observation{
		Config: cfg,
		RTT:    time.Millisecond,
		Bursts: []BurstObservation{{Sent: 100, Received: 99}},
	}
	// MSS*C/(RTT*sqrt(l)) with l=0.01: 1460*8*1.2247/(0.001*0.1).
	want := 1460 * 8 * MathisC / (0.001 * 0.1)
	if got := obs.MathisEstimate(); math.Abs(float64(got)-want)/want > 1e-9 {
		t.Errorf("mathis = %v, want %v", float64(got), want)
	}
	// Zero loss => +Inf.
	obs.Bursts[0].Received = 100
	if got := obs.MathisEstimate(); !math.IsInf(float64(got), 1) {
		t.Errorf("zero-loss mathis = %v, want +Inf", got)
	}
	// Unknown RTT => +Inf.
	obs.Bursts[0].Received = 99
	obs.RTT = 0
	if got := obs.MathisEstimate(); !math.IsInf(float64(got), 1) {
		t.Errorf("no-RTT mathis = %v, want +Inf", got)
	}
}

func TestCombinedEstimatorTakesMin(t *testing.T) {
	// Craft an observation where dispersion says ~800 Mbit/s but heavy
	// loss and a long RTT pull the Mathis bound below it.
	cfg := Config{PacketSize: 1000, Bursts: 1, BurstLength: 100, MSS: 1460}
	obs := Observation{
		Config: cfg,
		RTT:    10 * time.Millisecond,
		Bursts: []BurstObservation{{Sent: 100, Received: 80, Span: time.Millisecond}},
	}
	disp, err := obs.DispersionEstimate()
	if err != nil {
		t.Fatal(err)
	}
	mathis := obs.MathisEstimate()
	if mathis >= disp {
		t.Fatalf("test setup wrong: mathis %v >= dispersion %v", mathis, disp)
	}
	got, err := obs.EstimateThroughput()
	if err != nil {
		t.Fatal(err)
	}
	if got != mathis {
		t.Errorf("combined = %v, want mathis %v", got, mathis)
	}
}

func TestDurationSumsSpansAndGaps(t *testing.T) {
	cfg := Config{PacketSize: 1000, Bursts: 3, BurstLength: 10, Gap: time.Millisecond, MSS: 1460}
	obs := Observation{
		Config: cfg,
		Bursts: []BurstObservation{
			{Sent: 10, Received: 10, Span: 2 * time.Millisecond},
			{Sent: 10, Received: 10, Span: 2 * time.Millisecond},
			{Sent: 10, Received: 10, Span: 2 * time.Millisecond},
		},
	}
	if got := obs.Duration(); got != 8*time.Millisecond {
		t.Errorf("duration = %v, want 8ms", got)
	}
}

// Property: for loss-free observations the dispersion estimate equals
// total bytes / total span regardless of how bytes are split into bursts.
func TestDispersionSplitInvariantProperty(t *testing.T) {
	f := func(spans []uint16) bool {
		var bursts []BurstObservation
		var totalBytes, totalSec float64
		for _, s := range spans {
			ms := float64(s%50) + 1
			bursts = append(bursts, BurstObservation{
				Sent: 100, Received: 100,
				Span: time.Duration(ms * float64(time.Millisecond)),
			})
			totalBytes += 100 * 1000
			totalSec += ms / 1000
		}
		if len(bursts) == 0 {
			return true
		}
		cfg := Config{PacketSize: 1000, Bursts: len(bursts), BurstLength: 100, MSS: 1460}
		obs := Observation{Config: cfg, Bursts: bursts}
		rate, err := obs.DispersionEstimate()
		if err != nil {
			return false
		}
		want := units.Rate(totalBytes * 8 / totalSec)
		return math.Abs(float64(rate-want))/float64(want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: the combined estimator never exceeds the dispersion estimate.
func TestCombinedNeverExceedsDispersionProperty(t *testing.T) {
	f := func(recvPct, rttMs uint8) bool {
		received := int(recvPct%100) + 1
		if received < 2 {
			received = 2
		}
		cfg := Config{PacketSize: 1000, Bursts: 1, BurstLength: 100, MSS: 1460}
		obs := Observation{
			Config: cfg,
			RTT:    time.Duration(int(rttMs%20)+1) * time.Millisecond,
			Bursts: []BurstObservation{{Sent: 100, Received: received, Span: time.Millisecond}},
		}
		disp, err := obs.DispersionEstimate()
		if err != nil {
			return true
		}
		combined, err := obs.EstimateThroughput()
		if err != nil {
			return true
		}
		return combined <= disp
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
