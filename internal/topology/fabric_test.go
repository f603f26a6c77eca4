package topology

import (
	"fmt"
	"testing"
	"time"

	"choreo/internal/units"
)

func routeOrFatal(t *testing.T, topo *Topology, a, b NodeID, key uint64) []LinkID {
	t.Helper()
	links, err := topo.HostRoute(a, b, key)
	if err != nil {
		t.Fatalf("HostRoute(%v,%v,%d): %v", a, b, key, err)
	}
	return links
}

// checkRoute asserts a route is connected and spans src to dst.
func checkRoute(t *testing.T, topo *Topology, src, dst NodeID, links []LinkID) {
	t.Helper()
	if len(links) == 0 {
		t.Fatalf("empty route %v -> %v", src, dst)
	}
	if topo.Links[links[0]].From != src {
		t.Errorf("route does not start at source")
	}
	if topo.Links[links[len(links)-1]].To != dst {
		t.Errorf("route does not end at destination")
	}
	for i := 1; i < len(links); i++ {
		if topo.Links[links[i]].From != topo.Links[links[i-1]].To {
			t.Errorf("route disconnected at hop %d", i)
		}
	}
}

func TestBuildFatTreeShape(t *testing.T) {
	k := 4
	topo, err := BuildFatTree(k, units.Gbps(1), 20*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(topo.Hosts()), k*k*k/4; got != want {
		t.Fatalf("fat tree k=%d has %d hosts, want %d", k, got, want)
	}
	var cores, aggs, edges int
	for _, n := range topo.Nodes {
		switch n.Kind {
		case KindCore:
			cores++
		case KindAgg:
			aggs++
			if len(n.Up) != k/2 {
				t.Errorf("agg %s has %d core uplinks, want %d", n.Name, len(n.Up), k/2)
			}
		case KindToR:
			edges++
			if len(n.Up) != k/2 {
				t.Errorf("edge %s has %d agg uplinks, want %d", n.Name, len(n.Up), k/2)
			}
		}
	}
	if cores != k*k/4 || aggs != k*k/2 || edges != k*k/2 {
		t.Errorf("fat tree k=%d has %d cores / %d aggs / %d edges, want %d / %d / %d",
			k, cores, aggs, edges, k*k/4, k*k/2, k*k/2)
	}

	// Hop counts: same edge switch 2, same pod 4, cross pod 6.
	hosts := topo.Hosts()
	cases := []struct{ a, b, want int }{
		{0, 1, 2},
		{0, 2, 4},
		{0, 4, 6},
		{0, 15, 6},
	}
	for _, c := range cases {
		links := routeOrFatal(t, topo, hosts[c.a], hosts[c.b], 9)
		if len(links) != c.want {
			t.Errorf("route host%d -> host%d has %d hops, want %d", c.a, c.b, len(links), c.want)
		}
		checkRoute(t, topo, hosts[c.a], hosts[c.b], links)
	}
}

// TestFatTreeECMPDiversity checks the pair key actually spreads cross-pod
// routes over multiple cores, and that a fixed key picks the same core.
func TestFatTreeECMPDiversity(t *testing.T) {
	topo, err := BuildFatTree(4, units.Gbps(1), 20*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	hosts := topo.Hosts()
	a, b := hosts[0], hosts[12] // different pods
	distinct := map[string]bool{}
	for key := uint64(0); key < 16; key++ {
		links := routeOrFatal(t, topo, a, b, key)
		checkRoute(t, topo, a, b, links)
		distinct[fmt.Sprint(links)] = true
	}
	if len(distinct) < 2 {
		t.Errorf("16 pair keys produced %d distinct cross-pod routes, want >= 2", len(distinct))
	}
}

func TestBuildFatTreeErrors(t *testing.T) {
	for _, k := range []int{0, 1, 3, -2} {
		if _, err := BuildFatTree(k, units.Gbps(1), time.Microsecond); err == nil {
			t.Errorf("BuildFatTree(k=%d) should fail", k)
		}
	}
}

func TestBuildJellyfishShapeAndRoutes(t *testing.T) {
	const switches, netPorts, hostPorts = 12, 3, 3
	topo, err := BuildJellyfish(switches, netPorts, hostPorts, units.Gbps(1), 20*time.Microsecond, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !topo.Mesh() {
		t.Fatal("jellyfish should be a mesh topology")
	}
	if got, want := len(topo.Hosts()), switches*hostPorts; got != want {
		t.Fatalf("jellyfish has %d hosts, want %d", got, want)
	}
	// Peer degree: every switch within its port budget, and the graph is
	// (nearly) regular — the fix-up absorbs all even port surpluses.
	peerDeg := make(map[NodeID]int)
	for _, l := range topo.Links {
		if topo.Nodes[l.From].Kind == KindToR && topo.Nodes[l.To].Kind == KindToR {
			peerDeg[l.From]++
		}
	}
	for sw, d := range peerDeg {
		if d > netPorts {
			t.Errorf("switch %s has %d peer links, budget %d", topo.Nodes[sw].Name, d, netPorts)
		}
	}

	// Every host pair routes, and routes are valid.
	hosts := topo.Hosts()
	for i := 0; i < len(hosts); i += 5 {
		for j := 0; j < len(hosts); j += 7 {
			if i == j {
				continue
			}
			links := routeOrFatal(t, topo, hosts[i], hosts[j], uint64(i*31+j))
			checkRoute(t, topo, hosts[i], hosts[j], links)
		}
	}
}

func TestBuildJellyfishErrors(t *testing.T) {
	cases := []struct{ switches, netPorts, hostPorts int }{
		{1, 1, 1},  // too few switches
		{4, 0, 1},  // no network ports
		{4, 4, 1},  // degree >= switches
		{4, 2, 0},  // no host ports
		{4, 2, -1}, // negative host ports
	}
	for _, c := range cases {
		if _, err := BuildJellyfish(c.switches, c.netPorts, c.hostPorts, units.Gbps(1), time.Microsecond, 1); err == nil {
			t.Errorf("BuildJellyfish(%d,%d,%d) should fail", c.switches, c.netPorts, c.hostPorts)
		}
	}
}

// TestRoutesDeterministicAcrossRebuilds is the ECMP determinism guarantee
// cell sharing rests on: rebuilding the identical fabric and asking for
// the same pair key must return the identical link sequence — across all
// three fabric families.
func TestRoutesDeterministicAcrossRebuilds(t *testing.T) {
	builders := map[string]func() (*Topology, error){
		"tree": func() (*Topology, error) {
			p := EC22013()
			return BuildTree(p.Cores, p.Stages)
		},
		"fattree": func() (*Topology, error) {
			return BuildFatTree(4, units.Gbps(1), 20*time.Microsecond)
		},
		"jellyfish": func() (*Topology, error) {
			return BuildJellyfish(10, 3, 2, units.Gbps(1), 20*time.Microsecond, 3)
		},
	}
	for name, build := range builders {
		t1, err := build()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		t2, err := build()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(t1.Links) != len(t2.Links) {
			t.Fatalf("%s: rebuild changed link count (%d vs %d)", name, len(t1.Links), len(t2.Links))
		}
		hosts := t1.Hosts()
		for _, key := range []uint64{0, 1, 42, 1 << 40} {
			for hi := 0; hi < len(hosts); hi += 3 {
				a, b := hosts[0], hosts[hi]
				if a == b {
					continue
				}
				r1 := routeOrFatal(t, t1, a, b, key)
				r2 := routeOrFatal(t, t2, a, b, key)
				if fmt.Sprint(r1) != fmt.Sprint(r2) {
					t.Fatalf("%s: key %d pair (%v,%v): route differs across rebuilds\n%v\n%v",
						name, key, a, b, r1, r2)
				}
			}
		}
	}
}

// TestJellyfishSeedChangesWiring: different fabric seeds should give
// different graphs (overwhelmingly likely for this size).
func TestJellyfishSeedChangesWiring(t *testing.T) {
	edges := func(seed int64) string {
		topo, err := BuildJellyfish(12, 3, 2, units.Gbps(1), time.Microsecond, seed)
		if err != nil {
			t.Fatal(err)
		}
		var s string
		for _, l := range topo.Links {
			if topo.Nodes[l.From].Kind == KindToR && topo.Nodes[l.To].Kind == KindToR {
				s += fmt.Sprintf("%d-%d ", l.From, l.To)
			}
		}
		return s
	}
	if edges(1) == edges(2) {
		t.Error("seeds 1 and 2 produced identical jellyfish wirings")
	}
	if edges(5) != edges(5) {
		t.Error("same seed produced different wirings")
	}
}

// TestProviderOnNewFabrics exercises VM allocation and full-mesh pathing
// on the fat-tree and jellyfish profiles, as the sweep engine will.
func TestProviderOnNewFabrics(t *testing.T) {
	for _, profile := range []Profile{FatTree(4), Jellyfish(10, 6, 7)} {
		prov, err := NewProvider(profile, 11)
		if err != nil {
			t.Fatalf("%s: %v", profile.Name, err)
		}
		vms, err := prov.AllocateVMs(8)
		if err != nil {
			t.Fatalf("%s: %v", profile.Name, err)
		}
		paths, err := prov.AllPaths(vms)
		if err != nil {
			t.Fatalf("%s: %v", profile.Name, err)
		}
		if want := 8 * 7; len(paths) != want {
			t.Fatalf("%s: %d paths, want %d", profile.Name, len(paths), want)
		}
		for _, p := range paths {
			if p.RTT <= 0 {
				t.Errorf("%s: path %v->%v has RTT %v", profile.Name, p.Src, p.Dst, p.RTT)
			}
			if !p.SameHost && p.Hops < 2 {
				t.Errorf("%s: networked path %v->%v has %d hops", profile.Name, p.Src, p.Dst, p.Hops)
			}
		}
	}
}
