package topology

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"choreo/internal/units"
)

// BuildFatTree constructs the classic k-ary fat tree (Al-Fares et al.):
// (k/2)² cores, k pods of k/2 aggregation and k/2 edge (ToR) switches,
// and k/2 hosts per edge switch — k³/4 hosts in total. Aggregation
// switch j of every pod uplinks to core plane j (cores j·k/2 …
// (j+1)·k/2−1), and every edge switch uplinks to all k/2 aggregation
// switches of its pod, so hosts in different pods have (k/2)² equal-cost
// paths. Every link has the same capacity — full bisection bandwidth is
// the point of the fabric.
func BuildFatTree(k int, capacity units.Rate, latency time.Duration) (*Topology, error) {
	if k < 2 || k%2 != 0 {
		return nil, fmt.Errorf("topology: fat tree needs an even k >= 2, got %d", k)
	}
	t := New()
	half := k / 2
	cores := make([]NodeID, half*half)
	for i := range cores {
		cores[i] = t.AddNode(KindCore, 3, fmt.Sprintf("core%d", i))
	}
	for pod := 0; pod < k; pod++ {
		aggs := make([]NodeID, half)
		for j := range aggs {
			aggs[j] = t.AddNode(KindAgg, 2, fmt.Sprintf("pod%d-agg%d", pod, j))
			for i := 0; i < half; i++ {
				t.AddDuplex(aggs[j], cores[j*half+i], capacity, latency)
			}
		}
		for e := 0; e < half; e++ {
			edge := t.AddNode(KindToR, 1, fmt.Sprintf("pod%d-edge%d", pod, e))
			for _, agg := range aggs {
				t.AddDuplex(edge, agg, capacity, latency)
			}
			for h := 0; h < half; h++ {
				host := t.AddNode(KindHost, 0, fmt.Sprintf("pod%d-host%d", pod, e*half+h))
				t.AddDuplex(host, edge, capacity, latency)
			}
		}
	}
	t.index()
	return t, nil
}

// BuildJellyfish constructs a jellyfish fabric (Singla et al.): switches
// wired into a seeded random regular graph, each with netPorts peer links
// and hostPorts directly attached hosts. The graph is grown by joining
// random non-adjacent switch pairs with free ports; when that gets stuck
// with free ports left, an existing link is broken to absorb them — the
// paper's incremental construction. The same seed always yields the same
// wiring.
func BuildJellyfish(switches, netPorts, hostPorts int, capacity units.Rate, latency time.Duration, seed int64) (*Topology, error) {
	if switches < 2 {
		return nil, fmt.Errorf("topology: jellyfish needs >= 2 switches, got %d", switches)
	}
	if netPorts < 1 || netPorts >= switches {
		return nil, fmt.Errorf("topology: jellyfish network degree %d must be in [1, %d]", netPorts, switches-1)
	}
	if hostPorts < 1 {
		return nil, fmt.Errorf("topology: jellyfish needs >= 1 host port per switch, got %d", hostPorts)
	}

	rng := rand.New(rand.NewSource(seed))
	degree := make([]int, switches)
	adjacent := make(map[[2]int]bool)
	var edges [][2]int
	edgeKey := func(a, b int) [2]int {
		if a > b {
			a, b = b, a
		}
		return [2]int{a, b}
	}
	addEdge := func(a, b int) {
		edges = append(edges, edgeKey(a, b))
		adjacent[edgeKey(a, b)] = true
		degree[a]++
		degree[b]++
	}
	removeEdge := func(i int) (int, int) {
		e := edges[i]
		edges = append(edges[:i], edges[i+1:]...)
		delete(adjacent, e)
		degree[e[0]]--
		degree[e[1]]--
		return e[0], e[1]
	}

	for {
		// All joinable pairs: both ends with free ports, not yet adjacent.
		var pairs [][2]int
		for a := 0; a < switches; a++ {
			if degree[a] >= netPorts {
				continue
			}
			for b := a + 1; b < switches; b++ {
				if degree[b] < netPorts && !adjacent[edgeKey(a, b)] {
					pairs = append(pairs, [2]int{a, b})
				}
			}
		}
		if len(pairs) > 0 {
			p := pairs[rng.Intn(len(pairs))]
			addEdge(p[0], p[1])
			continue
		}
		// Stuck with free ports left: pick a switch still missing >= 2
		// links and break an existing link (x,y) away from it, rewiring
		// to (s,x) and (s,y) — the paper's fix-up. A single dangling port
		// (odd total) cannot be absorbed and is left free.
		var free []int
		for s, d := range degree {
			if netPorts-d >= 2 {
				free = append(free, s)
			}
		}
		if len(free) == 0 {
			break
		}
		s := free[rng.Intn(len(free))]
		var breakable []int
		for i, e := range edges {
			if e[0] != s && e[1] != s && !adjacent[edgeKey(s, e[0])] && !adjacent[edgeKey(s, e[1])] {
				breakable = append(breakable, i)
			}
		}
		if len(breakable) == 0 {
			break // degenerate tiny graph: accept the port deficit
		}
		x, y := removeEdge(breakable[rng.Intn(len(breakable))])
		addEdge(s, x)
		addEdge(s, y)
	}

	t := New()
	sws := make([]NodeID, switches)
	for i := range sws {
		sws[i] = t.AddNode(KindToR, 1, fmt.Sprintf("sw%d", i))
	}
	for i, s := range sws {
		for h := 0; h < hostPorts; h++ {
			host := t.AddNode(KindHost, 0, fmt.Sprintf("sw%d-host%d", i, h))
			t.AddDuplex(host, s, capacity, latency)
		}
	}
	// Wire peer links in sorted order so link IDs do not depend on the
	// construction history, only on the final edge set.
	sort.Slice(edges, func(i, j int) bool {
		if edges[i][0] != edges[j][0] {
			return edges[i][0] < edges[j][0]
		}
		return edges[i][1] < edges[j][1]
	})
	for _, e := range edges {
		t.AddPeerDuplex(sws[e[0]], sws[e[1]], capacity, latency)
	}
	t.index()
	return t, nil
}

// FatTree is a provider profile over the k-ary fat tree: an un-hosed
// enterprise-style fabric (like PrivateCloud) where contention comes from
// the fabric and its tenants, with full path diversity for Choreo to
// exploit.
func FatTree(k int) Profile {
	return Profile{
		Name: fmt.Sprintf("fattree-%d", k),
		Build: func() (*Topology, error) {
			return BuildFatTree(k, units.Gbps(1), 20*time.Microsecond)
		},
		MemBusRate:    units.Gbps(8),
		MemBusRTT:     30 * time.Microsecond,
		StackRTT:      100 * time.Microsecond,
		MaxVMsPerHost: 2,
		SameHostProb:  0.02,
		SameRackProb:  0.25,
		HoseRate: func(rng *rand.Rand) units.Rate {
			return units.Gbps(10) // effectively un-hosed; the fabric is the limit
		},
		HoseBurst: 1 * units.Megabyte,
		AmbientUtilization: func(rng *rand.Rand, l Link, t *Topology) float64 {
			from := t.Nodes[l.From]
			to := t.Nodes[l.To]
			if from.Kind == KindHost || to.Kind == KindHost {
				return 0
			}
			if rng.Float64() < 0.2 {
				return 0.3 + 0.4*rng.Float64()
			}
			return 0.08 * rng.Float64()
		},
		EpochNoiseStd:  0.05,
		BurstJitter:    50 * time.Microsecond,
		SampleNoiseStd: 0.01,
		QueueCapacity:  256 * units.Kilobyte,
	}
}

// Jellyfish is a provider profile over a random regular switch graph:
// `switches` ToR switches with `ports` ports each, the upper half used
// for peer links and the rest for hosts. The fabric seed fixes the wiring
// so the profile names a single reproducible cloud; per-cell randomness
// (VM placement, hoses, congestion) still comes from the provider seed.
func Jellyfish(switches, ports int, seed int64) Profile {
	netPorts := (ports + 1) / 2
	hostPorts := ports - netPorts
	return Profile{
		Name: fmt.Sprintf("jellyfish-%dx%d", switches, ports),
		Build: func() (*Topology, error) {
			return BuildJellyfish(switches, netPorts, hostPorts, units.Gbps(1), 20*time.Microsecond, seed)
		},
		MemBusRate:    units.Gbps(8),
		MemBusRTT:     30 * time.Microsecond,
		StackRTT:      100 * time.Microsecond,
		MaxVMsPerHost: 2,
		SameHostProb:  0.02,
		SameRackProb:  0.2,
		HoseRate: func(rng *rand.Rand) units.Rate {
			return units.Gbps(10) // un-hosed, like the enterprise fabrics
		},
		HoseBurst: 1 * units.Megabyte,
		AmbientUtilization: func(rng *rand.Rand, l Link, t *Topology) float64 {
			from := t.Nodes[l.From]
			to := t.Nodes[l.To]
			if from.Kind == KindHost || to.Kind == KindHost {
				return 0
			}
			if rng.Float64() < 0.15 {
				return 0.3 + 0.4*rng.Float64()
			}
			return 0.08 * rng.Float64()
		},
		EpochNoiseStd:  0.05,
		BurstJitter:    50 * time.Microsecond,
		SampleNoiseStd: 0.01,
		QueueCapacity:  256 * units.Kilobyte,
	}
}
