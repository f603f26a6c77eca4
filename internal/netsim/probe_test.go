package netsim

import (
	"math/rand"
	"testing"
	"time"

	"choreo/internal/topology"
	"choreo/internal/units"
)

// availabilityReference is the probe-flow measurement the what-if kernel
// replaced, kept as the kernel's specification: start a real backlogged
// flow, allocate, read its rate, stop it and re-allocate — then the same
// with the hose slot dropped for the physical share.
func availabilityReference(n *Network, src, dst topology.VMID) (PathAvailability, error) {
	path, err := n.pathFor(src, dst)
	if err != nil {
		return PathAvailability{}, err
	}
	f, err := n.StartFlow(src, dst, Backlogged, "probe", nil)
	if err != nil {
		return PathAvailability{}, err
	}
	n.allocate()
	av := PathAvailability{Share: f.Rate}
	n.StopFlow(f.ID)
	n.allocate()
	if path.SameHost {
		av.PhysicalShare = av.Share
		av.LineRate = n.prov.Profile.MemBusRate
		return av, nil
	}
	line := units.Rate(0)
	for i, l := range path.Links {
		if c := n.prov.Topo.Links[l].Capacity; i == 0 || c < line {
			line = c
		}
	}
	av.LineRate = line

	f, err = n.StartFlow(src, dst, Backlogged, "probe-phys", nil)
	if err != nil {
		return PathAvailability{}, err
	}
	f.slots = f.slots[1:] // drop the hose constraint (always first)
	n.allocate()
	av.PhysicalShare = f.Rate
	n.StopFlow(f.ID)
	n.allocate()
	return av, nil
}

// probeFabrics are the fabrics probe instances draw from: two cluster
// fabrics with multipath routing, a measured VM-pair cloud with ambient
// load, and a two-rack tree with an oversubscribed core.
var probeFabrics = []func() topology.Profile{
	func() topology.Profile { return topology.FatTree(4) },
	func() topology.Profile { return topology.Jellyfish(12, 6, 7) },
	topology.EC22013,
	func() topology.Profile { return topology.TwoRack(8, units.Gbps(1), units.Gbps(10)) },
}

// probeInstance decodes a network with cross traffic from data: byte 0
// picks the fabric, byte 1 the VM count (2–10), byte 2 the provider seed,
// byte 3 the entry state (bit 0: colocate half the VMs, bit 1: allocate
// before probing rather than arriving dirty, bit 2: run 50 ms first so
// some finite flows drain), and every later 3-byte group one active flow:
// source, destination and size (0: backlogged, k: (k-1)·100 kB, so 1 is a
// drained zero-byte flow). It returns the VMs and a builder of identical
// networks over one provider, or nil when data names no instance.
func probeInstance(data []byte) ([]topology.VM, func() *Network) {
	if len(data) < 4 {
		return nil, nil
	}
	prof := probeFabrics[int(data[0])%len(probeFabrics)]()
	if data[3]&1 != 0 {
		prof.SameHostProb = 0.5
	}
	prov, err := topology.NewProvider(prof, int64(data[2]))
	if err != nil {
		return nil, nil
	}
	vms, err := prov.AllocateVMs(2 + int(data[1])%9)
	if err != nil {
		return nil, nil
	}
	return vms, func() *Network {
		n := New(prov)
		flows := data[4:]
		for i := 0; i+3 <= len(flows) && i < 3*16; i += 3 {
			src, dst := vms[int(flows[i])%len(vms)].ID, vms[int(flows[i+1])%len(vms)].ID
			if src == dst {
				continue
			}
			size := Backlogged
			if k := flows[i+2]; k > 0 {
				size = units.ByteSize(k-1) * 100_000
			}
			if _, err := n.StartFlow(src, dst, size, "bg", nil); err != nil {
				panic(err)
			}
		}
		if data[3]&4 != 0 {
			n.Run(50 * time.Millisecond)
		}
		if data[3]&2 != 0 {
			n.Rates()
		}
		return n
	}
}

// batchAvailability resolves pairs with PairRefFor and reads them all in
// one BatchAvailabilityRefs call, as packetsim's mesh snapshots do.
func batchAvailability(t testing.TB, n *Network, pairs [][2]topology.VMID) []PathAvailability {
	t.Helper()
	refs := make([]PairRef, len(pairs))
	for i, pr := range pairs {
		ref, err := n.PairRefFor(pr[0], pr[1])
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = ref
	}
	out := make([]PathAvailability, len(pairs))
	n.BatchAvailabilityRefs(refs, out)
	return out
}

// meshPairs lists every ordered pair of vms.
func meshPairs(vms []topology.VM) [][2]topology.VMID {
	var pairs [][2]topology.VMID
	for _, a := range vms {
		for _, b := range vms {
			if a.ID != b.ID {
				pairs = append(pairs, [2]topology.VMID{a.ID, b.ID})
			}
		}
	}
	return pairs
}

// checkProbes builds the network data describes four times: once for the
// reference probes and once per kernel entry point, each entering in the
// instance's own (possibly dirty) state. Every availability must equal
// the reference bit for bit, no entry point may start a flow, and each
// must leave the active flows on the reference's rates.
func checkProbes(t *testing.T, data []byte) (contended int) {
	t.Helper()
	vms, build := probeInstance(data)
	if build == nil {
		return 0
	}
	ref := build()
	pairs := meshPairs(vms)
	want := make([]PathAvailability, len(pairs))
	for i, pr := range pairs {
		av, err := availabilityReference(ref, pr[0], pr[1])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = av
		path, err := ref.prov.Path(pr[0], pr[1])
		if err != nil {
			t.Fatal(err)
		}
		if av != idle(path) {
			contended++
		}
	}
	wantRates := ref.Rates()

	entries := []struct {
		name string
		run  func(n *Network) []PathAvailability
	}{
		{"BatchAvailabilityRefs", func(n *Network) []PathAvailability {
			return batchAvailability(t, n, pairs)
		}},
		{"Availability", func(n *Network) []PathAvailability {
			got := make([]PathAvailability, len(pairs))
			for i, pr := range pairs {
				av, err := n.Availability(pr[0], pr[1])
				if err != nil {
					t.Fatal(err)
				}
				if n.dirty {
					t.Fatalf("Availability(%v) left the network dirty", pr)
				}
				got[i] = av
			}
			return got
		}},
		{"AvailableRate", func(n *Network) []PathAvailability {
			got := make([]PathAvailability, len(pairs))
			for i, pr := range pairs {
				r, err := n.AvailableRate(pr[0], pr[1])
				if err != nil {
					t.Fatal(err)
				}
				if n.dirty {
					t.Fatalf("AvailableRate(%v) left the network dirty", pr)
				}
				got[i] = want[i]
				got[i].Share = r
			}
			return got
		}},
	}
	for _, e := range entries {
		n := build()
		nextID, active := n.nextID, n.ActiveFlows()
		got := e.run(n)
		for i, pr := range pairs {
			if got[i] != want[i] {
				t.Fatalf("%x: %s(%v->%v) = %+v, reference %+v", data, e.name, pr[0], pr[1], got[i], want[i])
			}
		}
		if n.nextID != nextID || n.ActiveFlows() != active {
			t.Fatalf("%x: %s started a flow: next ID %d -> %d, active %d -> %d", data, e.name, nextID, n.nextID, active, n.ActiveFlows())
		}
		for id, r := range n.Rates() {
			if wantRates[id] != r {
				t.Fatalf("%x: %s left flow %d at %v, reference %v", data, e.name, id, r, wantRates[id])
			}
		}
	}
	return contended
}

// TestProbeMatchesReference pins the what-if kernel to the probe-flow
// reference with ==, not a tolerance, over seeded random instances:
// every fabric, colocated pairs, finite, backlogged and drained flows,
// probes no active flow touches, and networks clean or dirty on entry.
func TestProbeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	instances := 3000
	if testing.Short() {
		instances = 300
	}
	contended := 0
	for i := 0; i < instances; i++ {
		data := make([]byte, 4+3*rng.Intn(17))
		rng.Read(data)
		// Byte 1 picks the VM count and the flow bytes pick endpoints
		// modulo it; biasing sizes toward backlogged keeps contention
		// high enough to be the common case.
		for j := 6; j < len(data); j += 3 {
			if rng.Intn(3) == 0 {
				data[j] = 0
			}
		}
		contended += checkProbes(t, data)
	}
	if contended == 0 {
		t.Fatal("no probe was contended; the test lost its subject")
	}
}

// FuzzProbeShare explores instances beyond the seeded sweep; its seed
// corpus under testdata/fuzz/FuzzProbeShare runs with every go test.
func FuzzProbeShare(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4+3*16 {
			return
		}
		checkProbes(t, data)
	})
}

// BenchmarkBatchAvailabilityContended times one mesh snapshot of the
// sequence sweep's kind: a 10-VM ec2-2013 tenant probed over all 90
// ordered pairs while seven earlier transfers are still running.
func BenchmarkBatchAvailabilityContended(b *testing.B) {
	prov, err := topology.NewProvider(topology.EC22013(), 1)
	if err != nil {
		b.Fatal(err)
	}
	vms, err := prov.AllocateVMs(10)
	if err != nil {
		b.Fatal(err)
	}
	n := New(prov)
	for _, pr := range [][2]int{{0, 1}, {1, 2}, {2, 5}, {7, 3}, {4, 6}, {5, 0}, {8, 9}} {
		if _, err := n.StartFlow(vms[pr[0]].ID, vms[pr[1]].ID, units.ByteSize(400<<20), "bg", nil); err != nil {
			b.Fatal(err)
		}
	}
	pairs := meshPairs(vms)
	refs := make([]PairRef, len(pairs))
	for i, pr := range pairs {
		if refs[i], err = n.PairRefFor(pr[0], pr[1]); err != nil {
			b.Fatal(err)
		}
	}
	out := make([]PathAvailability, len(pairs))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.BatchAvailabilityRefs(refs, out)
	}
}
