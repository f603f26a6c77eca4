package netsim_test

import (
	"math"
	"reflect"
	"testing"
	"time"

	"choreo/internal/netsim"
	"choreo/internal/sweep"
	"choreo/internal/topology"
	"choreo/internal/units"
)

// resetCloud builds a grid topology's cloud with vms VMs.
func resetCloud(t *testing.T, name string, seed int64, vms int) *topology.Provider {
	t.Helper()
	tp, err := sweep.TopologyByName(name)
	if err != nil {
		t.Fatal(err)
	}
	prov, err := topology.NewProvider(tp.Profile, seed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prov.AllocateVMs(vms); err != nil {
		t.Fatal(err)
	}
	return prov
}

// workout drives n through flows and timers on its cloud and records,
// as float bits, every rate, availability, flow ID and finish time it
// sees: the mesh's availabilities under load, the rates after each
// timer, and each flow's finish time in FlowID order.
func workout(t *testing.T, n *netsim.Network) []uint64 {
	t.Helper()
	vms := n.Provider().VMs()
	var trace []uint64
	record := func(vs ...float64) {
		for _, v := range vs {
			trace = append(trace, math.Float64bits(v))
		}
	}
	if _, err := n.CurrentRate(0); err == nil || n.ActiveFlows() != 0 || n.Now() != 0 {
		t.Fatal("network does not start empty")
	}
	var flows []*netsim.Flow
	start := func(a, b int, size units.ByteSize) *netsim.Flow {
		f, err := n.StartFlow(vms[a].ID, vms[b].ID, size, "w", func(f *netsim.Flow) {
			record(f.Finished().Seconds())
		})
		if err != nil {
			t.Fatal(err)
		}
		flows = append(flows, f)
		record(float64(f.ID))
		return f
	}
	for i := range vms {
		start(i, (i+1)%len(vms), units.ByteSize(40+10*i)*units.Megabyte)
	}
	bg := start(0, len(vms)-1, netsim.Backlogged)
	var refs []netsim.PairRef
	for _, a := range vms {
		for _, b := range vms {
			if a.ID != b.ID {
				ref, err := n.PairRefFor(a.ID, b.ID)
				if err != nil {
					t.Fatal(err)
				}
				refs = append(refs, ref)
			}
		}
	}
	out := make([]netsim.PathAvailability, len(refs))
	n.BatchAvailabilityRefs(refs, out)
	for _, av := range out {
		record(float64(av.Share), float64(av.PhysicalShare), float64(av.LineRate))
	}
	n.Schedule(300*time.Millisecond, func() {
		n.StopFlow(bg.ID)
		start(1, 0, 100*units.Megabyte)
	})
	ticks := 0
	n.ScheduleEvery(250*time.Millisecond, func() bool {
		for _, f := range flows {
			r, err := n.CurrentRate(f.ID)
			if err == nil {
				record(float64(r))
			}
		}
		ticks++
		return ticks < 4
	})
	record(n.RunUntilIdle(time.Hour).Seconds())
	for _, f := range flows {
		record(f.Finished().Seconds(), netsim.FlowStarted(f).Seconds())
	}
	n.BatchAvailabilityRefs(refs, out)
	for _, av := range out {
		record(float64(av.Share), float64(av.PhysicalShare))
	}
	return trace
}

// TestResetMatchesNew resets one network from a jellyfish-12 cloud onto
// an ec2-2013 cloud with more VMs, then back and forth again, each time
// in the middle of a run (flows active, a timer pending, slots
// stamped). The run after each reset must be bit-identical to the same
// run on a new Network, so nothing a run leaves in the kept scratch
// (slots, flow slab, lists, maps) reaches the next one.
func TestResetMatchesNew(t *testing.T) {
	jelly := resetCloud(t, "jellyfish-12", 3, 6)
	ec2 := resetCloud(t, "ec2-2013", 4, 10)
	n := netsim.New(jelly)
	for i, cloud := range []*topology.Provider{ec2, jelly, ec2} {
		vms := n.Provider().VMs()
		for j := range vms {
			if _, err := n.StartFlow(vms[j].ID, vms[(j+1)%len(vms)].ID, netsim.Backlogged, "left", nil); err != nil {
				t.Fatal(err)
			}
		}
		n.Schedule(time.Millisecond, func() { t.Error("a timer outlived its network's reset") })
		n.Rates()
		n.Reset(cloud)
		got := workout(t, n)
		want := workout(t, netsim.New(cloud))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d on %s: reset network's trace differs from a new network's", i, cloud.Profile.Name)
		}
		if n.Now() == 0 || n.ActiveFlows() != 0 {
			t.Fatalf("run %d: now %v, %d active flows after the workout", i, n.Now(), n.ActiveFlows())
		}
	}
}
