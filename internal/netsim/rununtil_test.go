package netsim

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"choreo/internal/topology"
	"choreo/internal/units"
)

func TestRunUntilPredicate(t *testing.T) {
	net, _ := dumbbellNet(t, 2, units.Gbps(1), units.Gbps(1))
	done := 0
	// Two staggered finite flows; stop once the first finishes.
	if _, err := net.StartFlow(0, 2, 125*units.Megabyte, "a", func(*Flow) { done++ }); err != nil {
		t.Fatal(err)
	}
	if _, err := net.StartFlow(1, 3, 250*units.Megabyte, "b", func(*Flow) { done++ }); err != nil {
		t.Fatal(err)
	}
	// Both flows share the 1 Gbit/s core: 500 Mbit/s each, so the 125 MB
	// flow finishes at t=2s; the 250 MB flow then runs alone and finishes
	// its remaining 125 MB at t=3s.
	at := net.RunUntil(func() bool { return done >= 1 }, time.Minute)
	if done != 1 {
		t.Fatalf("done = %d, want 1", done)
	}
	if math.Abs(at.Seconds()-2.0) > 1e-6 {
		t.Errorf("stopped at %v, want 2s", at)
	}
	at = net.RunUntil(func() bool { return done >= 2 }, time.Minute)
	if done != 2 {
		t.Fatalf("done = %d, want 2", done)
	}
	if math.Abs(at.Seconds()-3.0) > 1e-6 {
		t.Errorf("second stop at %v, want 3s", at)
	}
}

func TestRunUntilRespectsMaxTime(t *testing.T) {
	net, _ := dumbbellNet(t, 2, units.Gbps(1), units.Gbps(1))
	if _, err := net.StartFlow(0, 2, Backlogged, "bg", nil); err != nil {
		t.Fatal(err)
	}
	at := net.RunUntil(func() bool { return false }, 3*time.Second)
	if at != 3*time.Second {
		t.Errorf("stopped at %v, want maxTime 3s", at)
	}
	if net.Now() != 3*time.Second {
		t.Errorf("clock at %v", net.Now())
	}
}

func TestRunUntilImmediatelyTrue(t *testing.T) {
	net, _ := dumbbellNet(t, 2, units.Gbps(1), units.Gbps(1))
	at := net.RunUntil(func() bool { return true }, time.Minute)
	if at != 0 {
		t.Errorf("stopped at %v, want 0", at)
	}
}

func TestRunUntilFiresTimersAtNow(t *testing.T) {
	net, _ := dumbbellNet(t, 2, units.Gbps(1), units.Gbps(1))
	fired := false
	net.Schedule(net.Now(), func() { fired = true })
	net.RunUntil(func() bool { return fired }, time.Second)
	if !fired {
		t.Error("due timer never fired")
	}
}

func TestRunUntilWithOnOffChurn(t *testing.T) {
	// RunUntil must terminate at maxTime even with self-rearming timers.
	net, vms := dumbbellNet(t, 4, units.Gbps(10), units.Gbps(1))
	_ = vms
	count := 0
	net.ScheduleEvery(100*time.Millisecond, func() bool {
		count++
		return true // rearm forever
	})
	at := net.RunUntil(func() bool { return false }, 2*time.Second)
	if at != 2*time.Second {
		t.Errorf("stopped at %v", at)
	}
	if count < 19 || count > 21 {
		t.Errorf("periodic fired %d times, want ~20", count)
	}
}

func TestAvailabilityDecomposition(t *testing.T) {
	prov, err := topology.NewProvider(topology.EC22013(), 51)
	if err != nil {
		t.Fatal(err)
	}
	vms, err := prov.AllocateVMs(6)
	if err != nil {
		t.Fatal(err)
	}
	net := New(prov)
	var a, b topology.VM
	found := false
	for _, x := range vms {
		for _, y := range vms {
			if x.ID != y.ID && x.Host != y.Host {
				a, b = x, y
				found = true
				break
			}
		}
		if found {
			break
		}
	}
	if !found {
		t.Skip("no cross-host pair")
	}
	av, err := net.Availability(a.ID, b.ID)
	if err != nil {
		t.Fatal(err)
	}
	// Share includes the hose; physical share ignores it; line rate is
	// the raw link capacity. They must be ordered.
	if av.Share > av.PhysicalShare {
		t.Errorf("share %v exceeds physical share %v", av.Share, av.PhysicalShare)
	}
	if av.PhysicalShare > av.LineRate {
		t.Errorf("physical share %v exceeds line rate %v", av.PhysicalShare, av.LineRate)
	}
	if av.Share != a.EgressRate && av.Share >= av.PhysicalShare {
		t.Errorf("share %v should be hose-limited (%v) or fabric-limited", av.Share, a.EgressRate)
	}
	// Probing must not leak flows.
	if net.ActiveFlows() != 0 {
		t.Errorf("availability probe leaked %d flows", net.ActiveFlows())
	}
}

// Property: on random fabrics with random flow sets, the max-min
// allocation never oversubscribes a constraint and every flow crosses a
// saturated one (the defining max-min property).
func TestMaxMinPropertyRandomFabrics(t *testing.T) {
	profiles := []func() topology.Profile{
		topology.EC22013,
		topology.Rackspace,
		topology.PrivateCloud,
	}
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 12; trial++ {
		prof := profiles[trial%len(profiles)]()
		prov, err := topology.NewProvider(prof, int64(trial)+1)
		if err != nil {
			t.Fatal(err)
		}
		vms, err := prov.AllocateVMs(8 + rng.Intn(6))
		if err != nil {
			t.Fatal(err)
		}
		net := New(prov)
		nFlows := 5 + rng.Intn(40)
		for k := 0; k < nFlows; k++ {
			a := topology.VMID(rng.Intn(len(vms)))
			b := topology.VMID(rng.Intn(len(vms)))
			if a == b {
				continue
			}
			if _, err := net.StartFlow(a, b, Backlogged, "p", nil); err != nil {
				t.Fatal(err)
			}
		}
		net.Rates()
		caps := prov.Capacities()
		usage := map[int32]float64{}
		for _, f := range net.active {
			if f.Rate <= 0 {
				t.Fatalf("trial %d: flow %d has rate %v", trial, f.ID, f.Rate)
			}
			for _, k := range f.Path.Resources {
				usage[k] += float64(f.Rate)
			}
		}
		for k, used := range usage {
			if capacity := caps[k]; used > capacity*(1+1e-9) {
				t.Fatalf("trial %d: resource %d oversubscribed: %v > %v", trial, k, used, capacity)
			}
		}
		for _, f := range net.active {
			saturated := false
			for _, k := range f.Path.Resources {
				if usage[k] >= caps[k]*(1-1e-6) {
					saturated = true
					break
				}
			}
			if !saturated {
				t.Fatalf("trial %d: flow %d not bottlenecked anywhere", trial, f.ID)
			}
		}
	}
}
