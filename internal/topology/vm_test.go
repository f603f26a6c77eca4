package topology

import (
	"math/rand"
	"testing"
	"time"

	"choreo/internal/units"
)

func newEC2Provider(t *testing.T, seed int64) *Provider {
	t.Helper()
	p, err := NewProvider(EC22013(), seed)
	if err != nil {
		t.Fatalf("NewProvider: %v", err)
	}
	return p
}

func TestAllocateVMsBasics(t *testing.T) {
	p := newEC2Provider(t, 1)
	vms, err := p.AllocateVMs(10)
	if err != nil {
		t.Fatal(err)
	}
	if len(vms) != 10 {
		t.Fatalf("got %d VMs", len(vms))
	}
	for i, vm := range vms {
		if vm.ID != VMID(i) {
			t.Errorf("vm %d has ID %d", i, vm.ID)
		}
		if vm.EgressRate <= 0 {
			t.Errorf("vm %d has non-positive hose rate", i)
		}
		if p.Topo.Nodes[vm.Host].Kind != KindHost {
			t.Errorf("vm %d placed on a %v", i, p.Topo.Nodes[vm.Host].Kind)
		}
	}
	// Second allocation continues the ID sequence.
	more, err := p.AllocateVMs(3)
	if err != nil {
		t.Fatal(err)
	}
	if more[0].ID != 10 {
		t.Errorf("second batch starts at %d, want 10", more[0].ID)
	}
	if got := len(p.VMs()); got != 13 {
		t.Errorf("provider has %d VMs, want 13", got)
	}
}

// TestAllocateVMsDeterministicForSeed guards fixed-seed reproducibility:
// allocation must depend only on the seed, never on map iteration order.
// (Regression test: pickHost used to range over the hostVMs map when
// building colocation candidates, which made EC2-profile allocations —
// and everything downstream, including sweep reports — vary run to run.)
func TestAllocateVMsDeterministicForSeed(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		ref := newEC2Provider(t, seed)
		refVMs, err := ref.AllocateVMs(24)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 5; trial++ {
			p := newEC2Provider(t, seed)
			vms, err := p.AllocateVMs(24)
			if err != nil {
				t.Fatal(err)
			}
			for i := range vms {
				if vms[i].Host != refVMs[i].Host {
					t.Fatalf("seed %d trial %d: VM %d on host %d, want %d",
						seed, trial, i, vms[i].Host, refVMs[i].Host)
				}
			}
		}
	}
}

func TestAllocateRespectsHostCapacity(t *testing.T) {
	profile := EC22013()
	profile.SameHostProb = 1.0 // always try to colocate
	p, err := NewProvider(profile, 3)
	if err != nil {
		t.Fatal(err)
	}
	vms, err := p.AllocateVMs(20)
	if err != nil {
		t.Fatal(err)
	}
	perHost := map[NodeID]int{}
	for _, vm := range vms {
		perHost[vm.Host]++
		if perHost[vm.Host] > profile.MaxVMsPerHost {
			t.Fatalf("host %d has %d VMs, max %d", vm.Host, perHost[vm.Host], profile.MaxVMsPerHost)
		}
	}
}

func TestAllocationExhaustion(t *testing.T) {
	profile := Dumbbell(2, units.Gbps(1), units.Gbps(1)) // 4 hosts, 1 VM each
	p, err := NewProvider(profile, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.AllocateVMs(4); err != nil {
		t.Fatal(err)
	}
	if _, err := p.AllocateVMs(1); err == nil {
		t.Error("allocating beyond host capacity should fail")
	}
}

func TestSequentialPlacementForScenarios(t *testing.T) {
	profile := Dumbbell(5, units.Gbps(1), units.Gbps(1))
	if !profile.SequentialPlacement() {
		t.Fatal("Dumbbell should be sequential")
	}
	p, err := NewProvider(profile, 1)
	if err != nil {
		t.Fatal(err)
	}
	vms, err := p.AllocateVMs(10)
	if err != nil {
		t.Fatal(err)
	}
	hosts := p.Topo.Hosts()
	for i, vm := range vms {
		if vm.Host != hosts[i] {
			t.Errorf("vm %d on host %d, want %d", i, vm.Host, hosts[i])
		}
	}
	// Senders (first 5) and receivers (last 5) are on different ToRs.
	for i := 0; i < 5; i++ {
		if p.SameRack(vms[i].ID, vms[i+5].ID) {
			t.Errorf("sender %d and receiver %d share a rack", i, i)
		}
	}
}

func TestPathProperties(t *testing.T) {
	p := newEC2Provider(t, 2)
	vms, err := p.AllocateVMs(10)
	if err != nil {
		t.Fatal(err)
	}
	paths, err := p.AllPaths(vms)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 90 {
		t.Fatalf("10 VMs should give 90 directed paths, got %d", len(paths))
	}
	for _, path := range paths {
		if path.SameHost {
			if path.Hops != 1 || len(path.Links) != 0 {
				t.Errorf("same-host path has hops=%d links=%d", path.Hops, len(path.Links))
			}
			continue
		}
		switch path.Hops {
		case 2, 4, 6, 8:
		default:
			t.Errorf("path %d->%d has unexpected hop count %d", path.Src, path.Dst, path.Hops)
		}
		if path.RTT <= 0 {
			t.Errorf("path %d->%d has non-positive RTT", path.Src, path.Dst)
		}
	}
}

func TestPathSymmetricCables(t *testing.T) {
	p := newEC2Provider(t, 4)
	vms, err := p.AllocateVMs(6)
	if err != nil {
		t.Fatal(err)
	}
	_ = vms
	ab, err := p.Path(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	ba, err := p.Path(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ab.Links) != len(ba.Links) {
		t.Fatalf("asymmetric path lengths %d vs %d", len(ab.Links), len(ba.Links))
	}
	// The reverse path must traverse the same cables in reverse order.
	topo := p.Topo
	n := len(ab.Links)
	for i, id := range ab.Links {
		rev := ba.Links[n-1-i]
		if topo.Links[id].From != topo.Links[rev].To || topo.Links[id].To != topo.Links[rev].From {
			t.Errorf("hop %d not mirrored", i)
		}
	}
}

func TestPathCachingAndSelfPath(t *testing.T) {
	p := newEC2Provider(t, 5)
	if _, err := p.AllocateVMs(2); err != nil {
		t.Fatal(err)
	}
	p1, err := p.Path(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := p.Path(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Error("path not cached")
	}
	if _, err := p.Path(0, 0); err == nil {
		t.Error("self path should error")
	}
}

func TestTracerouteMaskRackspace(t *testing.T) {
	p, err := NewProvider(Rackspace(), 7)
	if err != nil {
		t.Fatal(err)
	}
	vms, err := p.AllocateVMs(10)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range vms {
		for _, b := range vms {
			if a.ID == b.ID {
				continue
			}
			hops, err := p.TracerouteHops(a.ID, b.ID)
			if err != nil {
				t.Fatal(err)
			}
			if hops != 1 && hops != 4 {
				t.Errorf("rackspace traceroute shows %d hops, want 1 or 4", hops)
			}
		}
	}
}

func TestTracerouteUnmaskedEC2(t *testing.T) {
	p := newEC2Provider(t, 8)
	vms, err := p.AllocateVMs(10)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range vms[:3] {
		for _, b := range vms {
			if a.ID == b.ID {
				continue
			}
			hops, err := p.TracerouteHops(a.ID, b.ID)
			if err != nil {
				t.Fatal(err)
			}
			path, _ := p.Path(a.ID, b.ID)
			if hops != path.Hops {
				t.Errorf("EC2 traceroute %d != real %d", hops, path.Hops)
			}
		}
	}
}

func TestAmbientUtilizationBounds(t *testing.T) {
	p, err := NewProvider(EC22012(0), 11)
	if err != nil {
		t.Fatal(err)
	}
	nonZero := 0
	for i := range p.Topo.Links {
		u := p.AmbientUtilization(LinkID(i))
		if u < 0 || u > 0.95 {
			t.Fatalf("ambient utilization %v out of range", u)
		}
		if u > 0 {
			nonZero++
		}
	}
	if nonZero == 0 {
		t.Error("EC2-2012 should have some congested links")
	}
}

func TestProfileValidation(t *testing.T) {
	bad := EC22013()
	bad.HoseRate = nil
	if _, err := NewProvider(bad, 1); err == nil {
		t.Error("nil HoseRate should fail validation")
	}
	bad2 := EC22013()
	bad2.MaxVMsPerHost = 0
	if _, err := NewProvider(bad2, 1); err == nil {
		t.Error("zero MaxVMsPerHost should fail validation")
	}
	bad3 := EC22013()
	bad3.Cores = 0
	if _, err := NewProvider(bad3, 1); err == nil {
		t.Error("zero cores should fail validation")
	}
}

func TestEC2HoseDistributionShape(t *testing.T) {
	profile := EC22013()
	rng := newTestRand(13)
	inBand, high := 0, 0
	for i := 0; i < 3000; i++ {
		m := profile.HoseRate(rng).Mbps()
		if m >= 870 && m <= 1180 {
			inBand++
		}
		if m > 2000 {
			high++
		}
	}
	if frac := float64(inBand) / 3000; frac < 0.7 {
		t.Errorf("only %.2f of hoses in the 900-1100 band", frac)
	}
	if high == 0 {
		t.Error("expected a few unthrottled (~4 Gbit/s) instances")
	}
	if frac := float64(high) / 3000; frac > 0.06 {
		t.Errorf("too many unthrottled instances: %.2f", frac)
	}
}

func TestRackspaceHoseTight(t *testing.T) {
	profile := Rackspace()
	rng := newTestRand(17)
	for i := 0; i < 100; i++ {
		m := profile.HoseRate(rng).Mbps()
		if m < 290 || m > 310 {
			t.Errorf("rackspace hose %v Mbit/s outside 300±10", m)
		}
	}
}

func TestPathRTTSameHostVsCrossCore(t *testing.T) {
	profile := EC22013()
	profile.SameHostProb = 1.0
	p, err := NewProvider(profile, 19)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.AllocateVMs(4); err != nil {
		t.Fatal(err)
	}
	// At least one pair should be same-host given the forced bias.
	var same *Path
	for a := VMID(0); a < 4 && same == nil; a++ {
		for b := VMID(0); b < 4; b++ {
			if a == b {
				continue
			}
			path, err := p.Path(a, b)
			if err != nil {
				t.Fatal(err)
			}
			if path.SameHost {
				same = path
				break
			}
		}
	}
	if same == nil {
		t.Skip("no same-host pair materialized with this seed")
	}
	if same.RTT <= 0 || same.RTT > 500*time.Microsecond {
		t.Errorf("same-host RTT = %v", same.RTT)
	}
}

func newTestRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
