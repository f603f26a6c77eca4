package crosstraffic

import (
	"math"
	"testing"
	"time"

	"choreo/internal/bulk"
	"choreo/internal/netsim"
	"choreo/internal/topology"
	"choreo/internal/units"
)

func TestEstimateBasics(t *testing.T) {
	// The paper's worked example: 250 Mbit/s on a 1 Gbit/s path means
	// three other connections.
	c, err := Estimate(units.Gbps(1), units.Mbps(250))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(c-3) > 1e-9 {
		t.Errorf("c = %v, want 3", c)
	}
	// Full rate => no cross traffic.
	c, err = Estimate(units.Gbps(1), units.Gbps(1))
	if err != nil {
		t.Fatal(err)
	}
	if c != 0 {
		t.Errorf("c = %v, want 0", c)
	}
	// Foreground above path rate clamps to zero rather than going negative.
	c, err = Estimate(units.Gbps(1), units.Mbps(1100))
	if err != nil {
		t.Fatal(err)
	}
	if c != 0 {
		t.Errorf("overfast foreground: c = %v, want 0", c)
	}
}

func TestEstimateErrors(t *testing.T) {
	if _, err := Estimate(0, units.Mbps(100)); err == nil {
		t.Error("zero path rate should fail")
	}
	if _, err := Estimate(units.Gbps(1), 0); err == nil {
		t.Error("zero foreground should fail")
	}
}

func TestSeriesFromSimulatedForeground(t *testing.T) {
	// Reproduce the Figure 4(a) mechanics in miniature: a foreground bulk
	// flow on a shared 1 Gbit/s dumbbell with 4 backlogged background
	// flows; the estimator should read c=4.
	prov, err := topology.NewProvider(topology.Dumbbell(10, units.Gbps(10), units.Gbps(1)), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prov.AllocateVMs(20); err != nil {
		t.Fatal(err)
	}
	net := netsim.New(prov)
	for i := 1; i <= 4; i++ {
		if _, err := net.StartFlow(topology.VMID(i), topology.VMID(i+10), netsim.Backlogged, "bg", nil); err != nil {
			t.Fatal(err)
		}
	}
	res, err := bulk.Measure(net, 0, 10, bulk.Options{Duration: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	pts, err := Series(res.Samples, units.Gbps(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) == 0 {
		t.Fatal("no points")
	}
	for _, p := range pts {
		if math.Round(p.C) != 4 {
			t.Errorf("at %v estimated c=%v, want 4", p.At, p.C)
		}
	}
}

func TestSeriesSkipsZeroSamples(t *testing.T) {
	samples := []bulk.Sample{
		{At: 0, Rate: 0},
		{At: time.Millisecond, Rate: units.Mbps(500)},
	}
	pts, err := Series(samples, units.Gbps(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 1 || math.Abs(pts[0].C-1) > 1e-9 {
		t.Errorf("pts = %+v", pts)
	}
	if _, err := Series(samples, 0); err == nil {
		t.Error("zero path rate should fail")
	}
}

func TestNonBackloggedBackgroundUnderestimates(t *testing.T) {
	// Paper §3.2 third assumption: a 100 Mbit/s offered-load background
	// flow on a 1 Gbit/s path leaves 900 for the foreground, so Choreo
	// sees c≈0.11 — nearly "no cross traffic" — which is fine for
	// predictions until many connections land on the path.
	// netsim models backlogged flows only, so emulate the offered load
	// with a second path: here we just verify the arithmetic.
	c, err := Estimate(units.Gbps(1), units.Mbps(900))
	if err != nil {
		t.Fatal(err)
	}
	if c > 0.2 {
		t.Errorf("c = %v, want ~0.11", c)
	}
	// Two new connections on the path would each get 1000/(c+2) Mbit/s.
	if share := 1000 / (c + 2); share < 450 || share > 500 {
		t.Errorf("predicted 2-connection share = %v Mbit/s, want ~473", share)
	}
}
