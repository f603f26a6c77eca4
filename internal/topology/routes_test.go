package topology_test

import (
	"math"
	"reflect"
	"testing"

	"choreo/internal/sweep"
	"choreo/internal/topology"
	"choreo/internal/units"
)

// gridCloud builds a cloud of a grid topology (one `choreo sweep -list`
// names) with vms VMs; even seeds force colocation up so memory-bus
// pairs are common.
func gridCloud(t *testing.T, name string, seed int64, vms int) *topology.Provider {
	t.Helper()
	tp, err := sweep.TopologyByName(name)
	if err != nil {
		t.Fatal(err)
	}
	prof := tp.Profile
	if seed%2 == 0 {
		prof.SameHostProb = 0.5
	}
	prov, err := topology.NewProvider(prof, seed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prov.AllocateVMs(vms); err != nil {
		t.Fatal(err)
	}
	return prov
}

// checkCapacities derives every capacity a flow can draw on from the
// fabric, the ambient load and the VMs, and compares the table with ==.
func checkCapacities(t *testing.T, p *topology.Provider) {
	t.Helper()
	L, N := len(p.Topo.Links), len(p.Topo.Nodes)
	caps := p.Capacities()
	if len(caps) != L+N+len(p.VMs()) {
		t.Fatalf("%s: %d capacities, want %d links + %d nodes + %d VMs", p.Profile.Name, len(caps), L, N, len(p.VMs()))
	}
	for l, link := range p.Topo.Links {
		if want := float64(link.Capacity) * (1 - p.AmbientUtilization(topology.LinkID(l))); caps[l] != want {
			t.Fatalf("%s: link %d capacity %v, want %v", p.Profile.Name, l, caps[l], want)
		}
	}
	for _, h := range p.Topo.Hosts() {
		if want := float64(p.Profile.MemBusRate); caps[L+int(h)] != want {
			t.Fatalf("%s: host %d bus %v, want %v", p.Profile.Name, h, caps[L+int(h)], want)
		}
	}
	for _, vm := range p.VMs() {
		if want := float64(vm.EgressRate); caps[L+N+int(vm.ID)] != want {
			t.Fatalf("%s: %v hose %v, want %v", p.Profile.Name, vm.ID, caps[L+N+int(vm.ID)], want)
		}
	}
}

// wantPath derives the route from a to b from scratch: one HostRoute
// call in that direction with the unordered pair's key, and the
// resources and idle rates of a lone flow on it.
func wantPath(t *testing.T, p *topology.Provider, a, b topology.VM) topology.Path {
	t.Helper()
	L, N := len(p.Topo.Links), len(p.Topo.Nodes)
	want := topology.Path{Src: a.ID, Dst: b.ID}
	if a.Host == b.Host {
		want.SameHost, want.Hops, want.RTT = true, 1, p.Profile.MemBusRTT
		want.Resources = []int32{int32(L) + int32(a.Host)}
		want.IdleShare, want.IdlePhysicalShare = p.Profile.MemBusRate, p.Profile.MemBusRate
		want.LineRate = p.Profile.MemBusRate
		return want
	}
	lo, hi := min(a.ID, b.ID), max(a.ID, b.ID)
	links, err := p.Topo.HostRoute(a.Host, b.Host, uint64(lo)<<32|uint64(uint32(hi)))
	if err != nil {
		t.Fatal(err)
	}
	want.Links, want.Hops = links, len(links)
	want.RTT = 2*p.Topo.RouteLatency(links) + p.Profile.StackRTT
	want.Resources = []int32{int32(L+N) + int32(a.ID)}
	phys, line := math.Inf(1), math.Inf(1)
	for _, l := range links {
		want.Resources = append(want.Resources, int32(l))
		phys = min(phys, float64(p.Topo.Links[l].Capacity)*(1-p.AmbientUtilization(l)))
		line = min(line, float64(p.Topo.Links[l].Capacity))
	}
	want.IdleShare = units.Rate(min(float64(a.EgressRate), phys))
	want.IdlePhysicalShare, want.LineRate = units.Rate(phys), units.Rate(line)
	return want
}

// checkRoutes compares every ordered pair's Path with wantPath.
func checkRoutes(t *testing.T, p *topology.Provider) {
	t.Helper()
	for _, a := range p.VMs() {
		for _, b := range p.VMs() {
			if a.ID == b.ID {
				continue
			}
			got, err := p.Path(a.ID, b.ID)
			if err != nil {
				t.Fatal(err)
			}
			if want := wantPath(t, p, a, b); !reflect.DeepEqual(*got, want) {
				t.Fatalf("%s: Path(%v,%v) = %+v, from scratch %+v", p.Profile.Name, a.ID, b.ID, *got, want)
			}
		}
	}
}

// TestRoutesMatchHostRoute: on every grid topology and many seeds, each
// pair's route — built once per unordered pair on up/down fabrics, the
// way back reversed — equals a from-scratch HostRoute in its own
// direction, with the resources and idle rates of a lone flow.
func TestRoutesMatchHostRoute(t *testing.T) {
	seeds := int64(24)
	if testing.Short() {
		seeds = 4
	}
	for _, name := range sweep.TopologyNames() {
		for seed := int64(1); seed <= seeds; seed++ {
			p := gridCloud(t, name, seed, 10)
			checkCapacities(t, p)
			checkRoutes(t, p)
		}
	}
}

// TestSecondAllocationKeepsPairs: growing a cloud keeps every routed
// pair's Path (the same pointer, unchanged) and every capacity, and
// routes the new pairs as a cloud allocated in one go would.
func TestSecondAllocationKeepsPairs(t *testing.T) {
	for _, name := range sweep.TopologyNames() {
		for seed := int64(1); seed <= 4; seed++ {
			p := gridCloud(t, name, seed, 5)
			old := p.VMs()
			type kept struct {
				ptr *topology.Path
				val topology.Path
			}
			before := map[[2]topology.VMID]kept{}
			for _, a := range old {
				for _, b := range old {
					if a.ID != b.ID {
						path, err := p.Path(a.ID, b.ID)
						if err != nil {
							t.Fatal(err)
						}
						before[[2]topology.VMID{a.ID, b.ID}] = kept{path, *path}
					}
				}
			}
			oldCaps := append([]float64(nil), p.Capacities()...)
			if _, err := p.AllocateVMs(5); err != nil {
				t.Fatal(err)
			}
			for pr, k := range before {
				path, err := p.Path(pr[0], pr[1])
				if err != nil {
					t.Fatal(err)
				}
				if path != k.ptr || !reflect.DeepEqual(*path, k.val) {
					t.Fatalf("%s seed %d: Path(%v,%v) changed by a second allocation", name, seed, pr[0], pr[1])
				}
			}
			if !reflect.DeepEqual(p.Capacities()[:len(oldCaps)], oldCaps) {
				t.Fatalf("%s seed %d: a second allocation changed earlier capacities", name, seed)
			}
			checkCapacities(t, p)
			checkRoutes(t, p)
			if _, err := p.Path(0, topology.VMID(len(p.VMs()))); err == nil {
				t.Fatalf("%s: a route to an unallocated VM", name)
			}
		}
	}
}
