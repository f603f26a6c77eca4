package topology

import (
	"testing"
	"time"

	"choreo/internal/units"
)

func mustTree(t *testing.T, cores int, stages []TreeSpec) *Topology {
	t.Helper()
	topo, err := BuildTree(cores, stages)
	if err != nil {
		t.Fatalf("BuildTree: %v", err)
	}
	return topo
}

// fourTier builds the EC2-like shape: 2 cores, 4 spines, 8 aggs, 16 ToRs,
// 64 hosts.
func fourTier(t *testing.T) *Topology {
	return mustTree(t, 2, []TreeSpec{
		{Kind: KindSpine, Fanout: 4, Capacity: units.Gbps(40), Latency: 50 * time.Microsecond},
		{Kind: KindAgg, Fanout: 2, Capacity: units.Gbps(20), Latency: 40 * time.Microsecond},
		{Kind: KindToR, Fanout: 2, Capacity: units.Gbps(10), Latency: 20 * time.Microsecond},
		{Kind: KindHost, Fanout: 4, Capacity: units.Gbps(10), Latency: 10 * time.Microsecond},
	})
}

func TestBuildTreeShape(t *testing.T) {
	topo := fourTier(t)
	counts := map[Kind]int{}
	for _, n := range topo.Nodes {
		counts[n.Kind]++
	}
	want := map[Kind]int{KindCore: 2, KindSpine: 4, KindAgg: 8, KindToR: 16, KindHost: 64}
	for k, w := range want {
		if counts[k] != w {
			t.Errorf("%v count = %d, want %d", k, counts[k], w)
		}
	}
	if got := len(topo.Hosts()); got != 64 {
		t.Errorf("Hosts() = %d, want 64", got)
	}
	if topo.levels != 5 {
		t.Errorf("levels = %d, want 5", topo.levels)
	}
	// Spines connect to both cores; everything else has one parent.
	for _, n := range topo.Nodes {
		switch n.Kind {
		case KindCore:
			if len(n.Up) != 0 {
				t.Errorf("core %s has parents", n.Name)
			}
		case KindSpine:
			if len(n.Up) != 2 {
				t.Errorf("spine %s has %d parents, want 2", n.Name, len(n.Up))
			}
		default:
			if len(n.Up) != 1 {
				t.Errorf("%s %s has %d parents, want 1", n.Kind, n.Name, len(n.Up))
			}
		}
	}
}

func TestBuildTreeErrors(t *testing.T) {
	if _, err := BuildTree(0, []TreeSpec{{Kind: KindHost, Fanout: 2}}); err == nil {
		t.Error("no cores should fail")
	}
	if _, err := BuildTree(1, nil); err == nil {
		t.Error("no stages should fail")
	}
	if _, err := BuildTree(1, []TreeSpec{{Kind: KindToR, Fanout: 2}}); err == nil {
		t.Error("non-host bottom stage should fail")
	}
	if _, err := BuildTree(1, []TreeSpec{{Kind: KindHost, Fanout: 0}}); err == nil {
		t.Error("zero fanout should fail")
	}
}

func hostsUnder(topo *Topology) []NodeID { return topo.Hosts() }

func TestHostRouteHopCounts(t *testing.T) {
	topo := fourTier(t)
	hosts := hostsUnder(topo)
	// Host layout: 4 hosts per ToR, 2 ToRs per agg, 2 aggs per spine,
	// 4 spines. Host indices: [spine][agg][tor][host].
	cases := []struct {
		a, b     int
		wantHops int
	}{
		{0, 1, 2},  // same ToR
		{0, 4, 4},  // same agg, different ToR
		{0, 8, 6},  // same spine, different agg
		{0, 16, 8}, // different spine => via core
		{63, 0, 8}, // far corner
		{5, 6, 2},  // same ToR again
		{12, 3, 6}, // same spine? host12 is tor3, host3 is tor0 => aggs 1 and 0, same spine 0 => 6
	}
	for _, c := range cases {
		links, err := topo.HostRoute(hosts[c.a], hosts[c.b], 7)
		if err != nil {
			t.Fatalf("HostRoute(%d,%d): %v", c.a, c.b, err)
		}
		if len(links) != c.wantHops {
			t.Errorf("HostRoute(%d,%d) hops = %d, want %d", c.a, c.b, len(links), c.wantHops)
		}
		// The route must be connected: each link starts where the last ended.
		for i := 1; i < len(links); i++ {
			if topo.Links[links[i]].From != topo.Links[links[i-1]].To {
				t.Errorf("route %d->%d disconnected at hop %d", c.a, c.b, i)
			}
		}
		if len(links) > 0 {
			if topo.Links[links[0]].From != hosts[c.a] {
				t.Errorf("route does not start at source")
			}
			if topo.Links[links[len(links)-1]].To != hosts[c.b] {
				t.Errorf("route does not end at destination")
			}
		}
	}
}

func TestHostRouteSelf(t *testing.T) {
	topo := fourTier(t)
	links, err := topo.HostRoute(topo.Hosts()[0], topo.Hosts()[0], 0)
	if err != nil || links != nil {
		t.Errorf("self route = %v, %v; want nil, nil", links, err)
	}
}

func TestHostRouteRejectsNonHosts(t *testing.T) {
	topo := fourTier(t)
	var tor NodeID = -1
	for _, n := range topo.Nodes {
		if n.Kind == KindToR {
			tor = n.ID
			break
		}
	}
	if _, err := topo.HostRoute(tor, topo.Hosts()[0], 0); err == nil {
		t.Error("routing from a ToR should fail")
	}
}

func TestHostRouteECMPDeterministic(t *testing.T) {
	topo := fourTier(t)
	hosts := topo.Hosts()
	a, b := hosts[0], hosts[16] // cross-core pair
	r1, err := topo.HostRoute(a, b, 42)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := topo.HostRoute(a, b, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1) != len(r2) {
		t.Fatalf("same key gave different route lengths")
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatalf("same key gave different routes")
		}
	}
	// Different keys may pick different cores but the hop count holds.
	r3, err := topo.HostRoute(a, b, 43)
	if err != nil {
		t.Fatal(err)
	}
	if len(r3) != len(r1) {
		t.Errorf("ECMP changed hop count: %d vs %d", len(r3), len(r1))
	}
}

func TestRouteLatency(t *testing.T) {
	topo := fourTier(t)
	hosts := topo.Hosts()
	links, err := topo.HostRoute(hosts[0], hosts[1], 0)
	if err != nil {
		t.Fatal(err)
	}
	// Same-ToR: two host links at 10µs each.
	if got := topo.RouteLatency(links); got != 20*time.Microsecond {
		t.Errorf("RouteLatency = %v, want 20µs", got)
	}
}

func TestLinkBetween(t *testing.T) {
	topo := fourTier(t)
	h := topo.Hosts()[0]
	tor := topo.Nodes[h].Up[0]
	if _, ok := topo.LinkBetween(h, tor); !ok {
		t.Error("host->tor link missing")
	}
	if _, ok := topo.LinkBetween(tor, h); !ok {
		t.Error("tor->host link missing")
	}
	if _, ok := topo.LinkBetween(h, h); ok {
		t.Error("self link should not exist")
	}
}

func TestKindString(t *testing.T) {
	if KindHost.String() != "host" || KindCore.String() != "core" {
		t.Error("kind names wrong")
	}
	if Kind(99).String() != "kind(99)" {
		t.Errorf("unknown kind = %q", Kind(99).String())
	}
}

func TestThreeTierHopCounts(t *testing.T) {
	// Rackspace-like: 2 cores, 4 aggs, 16 ToRs, 64 hosts. Max hops 6.
	topo := mustTree(t, 2, []TreeSpec{
		{Kind: KindAgg, Fanout: 4, Capacity: units.Gbps(20), Latency: 40 * time.Microsecond},
		{Kind: KindToR, Fanout: 4, Capacity: units.Gbps(10), Latency: 20 * time.Microsecond},
		{Kind: KindHost, Fanout: 4, Capacity: units.Gbps(1), Latency: 10 * time.Microsecond},
	})
	hosts := topo.Hosts()
	seen := map[int]bool{}
	for _, b := range hosts[1:] {
		links, err := topo.HostRoute(hosts[0], b, 1)
		if err != nil {
			t.Fatal(err)
		}
		seen[len(links)] = true
	}
	for hops := range seen {
		switch hops {
		case 2, 4, 6:
		default:
			t.Errorf("unexpected hop count %d in three-tier fabric", hops)
		}
	}
	if !seen[2] || !seen[4] || !seen[6] {
		t.Errorf("missing hop counts, saw %v", seen)
	}
}
