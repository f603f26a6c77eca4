// Package topology models multi-rooted-tree datacenter fabrics of the kind
// Choreo infers (paper §3.3.1, Figure 5): virtual machines on physical
// hosts, hosts under top-of-rack switches, and one or more aggregation
// tiers capped by a set of core switches. It provides deterministic
// up/down routing, traceroute-style hop counting, and the per-provider
// profiles (EC2 May 2012, EC2 May 2013, Rackspace) used throughout the
// reproduction.
//
// Fabrics come in two flavours. Hierarchical fabrics (the provider trees,
// fat trees) are layered: links only run between adjacent tiers, but a
// node may have several parents (a fat-tree ToR uplinks to every pod
// aggregation switch). Routing goes up to the lowest tier where the two
// hosts share an ancestor and back down, choosing among equal-cost
// ancestors and links by a deterministic hash of the communicating pair —
// which mirrors ECMP flow hashing closely enough for Choreo's purposes
// (the paper's bottleneck rules already note that two subtree-crossing
// paths "may not interfere" because ECMP can split them). Mesh fabrics
// (jellyfish) additionally wire switches to peers in the same tier; they
// route on shortest paths with the same deterministic tie-break.
package topology

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"choreo/internal/units"
)

// Kind identifies the role of a node in the fabric.
type Kind uint8

// Node kinds, bottom of the tree first.
const (
	KindHost Kind = iota
	KindToR
	KindAgg
	KindSpine
	KindCore
)

var kindNames = map[Kind]string{
	KindHost:  "host",
	KindToR:   "tor",
	KindAgg:   "agg",
	KindSpine: "spine",
	KindCore:  "core",
}

// String returns the lower-case kind name.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// NodeID indexes Topology.Nodes.
type NodeID int32

// LinkID indexes Topology.Links.
type LinkID int32

// Node is a switch or physical host in the fabric.
type Node struct {
	ID    NodeID
	Kind  Kind
	Name  string
	Level int      // 0 = host tier, increasing toward the cores
	Up    []NodeID // parents; len>1 only directly below the top tier
	Down  []NodeID // children
}

// Link is one direction of a cable. Duplex cables are two Links.
type Link struct {
	ID       LinkID
	From, To NodeID
	Capacity units.Rate
	Latency  time.Duration
}

// Topology is an immutable fabric once built. A built fabric is safe
// for concurrent readers: the routing indexes below are filled once, by
// index, before the first route is derived, and nothing writes to the
// fabric afterwards — so many clouds (and goroutines) can share one.
type Topology struct {
	Nodes []Node
	Links []Link

	linkIndex map[[2]NodeID]LinkID
	hosts     []NodeID
	levels    int

	// mesh is set once a peer (same-tier) link exists; such fabrics route
	// on shortest paths instead of up/down tiers.
	mesh bool

	// Routing indexes, filled by index. adj holds the per-node neighbour
	// lists for mesh routing. For up/down routing, reach holds each
	// host's per-tier ancestor sets (nil for non-hosts) and down each
	// node's children, ID-sorted; both are nil on mesh fabrics.
	indexOnce sync.Once
	indexed   bool
	adj       [][]NodeID
	reach     [][][]NodeID
	down      [][]NodeID
	reverse   []LinkID // each link's cable in the other direction; every cable is duplex
}

// New returns an empty topology.
func New() *Topology {
	return &Topology{linkIndex: make(map[[2]NodeID]LinkID)}
}

// AddNode appends a node and returns its ID.
func (t *Topology) AddNode(kind Kind, level int, name string) NodeID {
	t.mustBeOpen()
	id := NodeID(len(t.Nodes))
	t.Nodes = append(t.Nodes, Node{ID: id, Kind: kind, Name: name, Level: level})
	if kind == KindHost {
		t.hosts = append(t.hosts, id)
	}
	if level+1 > t.levels {
		t.levels = level + 1
	}
	return id
}

// AddDuplex wires child to parent with a duplex cable of the given capacity
// and one-way latency, recording the parent/child relationship.
func (t *Topology) AddDuplex(child, parent NodeID, capacity units.Rate, latency time.Duration) {
	t.addLink(child, parent, capacity, latency)
	t.addLink(parent, child, capacity, latency)
	t.Nodes[child].Up = append(t.Nodes[child].Up, parent)
	t.Nodes[parent].Down = append(t.Nodes[parent].Down, child)
}

// AddPeerDuplex wires two same-tier nodes with a duplex cable, as jellyfish
// fabrics do between their switches. Peer links carry no parent/child
// relationship and switch the whole topology to mesh (shortest-path)
// routing.
func (t *Topology) AddPeerDuplex(a, b NodeID, capacity units.Rate, latency time.Duration) {
	t.addLink(a, b, capacity, latency)
	t.addLink(b, a, capacity, latency)
	t.mesh = true
}

// Mesh reports whether the fabric contains peer links and therefore routes
// on shortest paths rather than up/down tiers.
func (t *Topology) Mesh() bool { return t.mesh }

func (t *Topology) addLink(from, to NodeID, capacity units.Rate, latency time.Duration) LinkID {
	t.mustBeOpen()
	id := LinkID(len(t.Links))
	t.Links = append(t.Links, Link{ID: id, From: from, To: to, Capacity: capacity, Latency: latency})
	t.linkIndex[[2]NodeID{from, to}] = id
	return id
}

// mustBeOpen panics on a change to an indexed fabric: its routing
// indexes would go stale, and other goroutines may be reading it.
func (t *Topology) mustBeOpen() {
	if t.indexed {
		panic("topology: fabric changed after it was indexed for routing")
	}
}

// index fills the routing indexes, once; afterwards the fabric is
// read-only. The builders call it as their last step, NewProvider calls
// it on whatever fabric a profile built, and hostRoute calls it for a
// fabric assembled by hand. sync.Once makes the first call visible to
// every later reader, so concurrent callers on a shared fabric are safe.
func (t *Topology) index() {
	t.indexOnce.Do(func() {
		adj := make([][]NodeID, len(t.Nodes))
		for _, l := range t.Links {
			adj[l.From] = append(adj[l.From], l.To)
		}
		for i := range adj {
			sort.Slice(adj[i], func(a, b int) bool { return adj[i][a] < adj[i][b] })
		}
		t.adj = adj
		t.reverse = make([]LinkID, len(t.Links))
		for i, l := range t.Links {
			t.reverse[i] = t.linkIndex[[2]NodeID{l.To, l.From}]
		}
		if !t.mesh {
			t.reach = make([][][]NodeID, len(t.Nodes))
			for _, h := range t.hosts {
				t.reach[h] = t.reachUp(h)
			}
			t.down = make([][]NodeID, len(t.Nodes))
			for i, n := range t.Nodes {
				t.down[i] = slices.Sorted(slices.Values(n.Down))
			}
		}
		t.indexed = true
	})
}

// LinkBetween returns the directed link from one node to another.
func (t *Topology) LinkBetween(from, to NodeID) (LinkID, bool) {
	id, ok := t.linkIndex[[2]NodeID{from, to}]
	return id, ok
}

// Hosts returns the IDs of all physical hosts.
func (t *Topology) Hosts() []NodeID { return t.hosts }

// meshSearch is a breadth-first search's hop counts to one destination
// of a mesh fabric. They depend on the destination alone, so the routes
// of every source to it share one search. A search is scratch of one
// caller: SharedFabric shares a Topology between goroutines.
type meshSearch struct {
	dst   NodeID
	dist  []int32 // nil before the first search
	queue []NodeID
}

// hostRoute computes the directed links from one host to another. The
// pairKey selects deterministically among equal-cost choices (cores in a
// provider tree, aggregation planes in a fat tree, shortest paths in a
// jellyfish mesh). It returns nil for a host routed to itself.
//
// Hierarchical fabrics route up/down: climb to the lowest tier where the
// two hosts share an ancestor, cross there, and descend. Because a node
// may have several parents (fat-tree ToRs uplink to every pod aggregation
// switch), ancestors are tracked as per-tier sets rather than a single
// chain; within a tier, candidates are ordered by node ID so the pairKey
// pick is stable across rebuilds of the same fabric. ms is mesh routing's
// search scratch, which hostRoute reuses while the destination stays the
// same.
func (t *Topology) hostRoute(ms *meshSearch, src, dst NodeID, pairKey uint64) ([]LinkID, error) {
	if src == dst {
		return nil, nil
	}
	if t.Nodes[src].Kind != KindHost || t.Nodes[dst].Kind != KindHost {
		return nil, fmt.Errorf("topology: route endpoints must be hosts, got %v and %v",
			t.Nodes[src].Kind, t.Nodes[dst].Kind)
	}
	t.index()
	if t.mesh {
		return t.meshRoute(ms, src, dst, pairKey)
	}

	upSrc := t.reach[src]
	upDst := t.reach[dst]

	// Pick among the ancestors the two share at the lowest tier where
	// they share any.
	var meet NodeID
	n := 0
	for l := 0; l < t.levels && n == 0; l++ {
		if n, _ = common(upSrc[l], upDst[l], -1); n > 0 {
			_, meet = common(upSrc[l], upDst[l], int(pairKey%uint64(n)))
		}
	}
	if n == 0 {
		return nil, fmt.Errorf("topology: hosts %s and %s share no ancestor",
			t.Nodes[src].Name, t.Nodes[dst].Name)
	}

	// The meet-to-endpoint walks stay inside each endpoint's ancestor
	// sets, so every step has at least one candidate child. The climb
	// from src is the descent to src walked backwards.
	path, err := t.descend(make([]LinkID, 0, 2*t.levels), meet, src, upSrc, pairKey)
	if err != nil {
		return nil, err
	}
	return t.descend(t.reverseRoute(path), meet, dst, upDst, pairKey)
}

// reverseRoute turns route, in place, into the route walked backwards:
// each cable's other direction, last hop first.
func (t *Topology) reverseRoute(route []LinkID) []LinkID {
	slices.Reverse(route)
	for i, l := range route {
		route[i] = t.reverse[l]
	}
	return route
}

// reachUp returns, per tier, the sorted set of nodes reachable from n by
// climbing Up links; index precomputes it for every host. Tier l of the
// result holds n's ancestors at level l (level levels-1 being the top).
// Builders keep parent levels exactly one above their children's, which
// this walk relies on.
func (t *Topology) reachUp(n NodeID) [][]NodeID {
	out := make([][]NodeID, t.levels)
	frontier := []NodeID{n}
	level := t.Nodes[n].Level
	out[level] = frontier
	for level+1 < t.levels && len(frontier) > 0 {
		seen := make(map[NodeID]bool)
		var next []NodeID
		for _, id := range frontier {
			for _, up := range t.Nodes[id].Up {
				if !seen[up] {
					seen[up] = true
					next = append(next, up)
				}
			}
		}
		sort.Slice(next, func(i, j int) bool { return next[i] < next[j] })
		level++
		out[level] = next
		frontier = next
	}
	return out
}

// descend appends to path the links of the walk from top down to
// bottom, at each tier choosing by pairKey among top's children, in ID
// order, that are also ancestors of bottom (members of reach, bottom's
// per-tier ancestor sets).
func (t *Topology) descend(path []LinkID, top, bottom NodeID, reach [][]NodeID, pairKey uint64) ([]LinkID, error) {
	cur := top
	for cur != bottom {
		level := t.Nodes[cur].Level
		n := 0
		if level > 0 {
			n, _ = common(t.down[cur], reach[level-1], -1)
		}
		if n == 0 {
			return nil, fmt.Errorf("topology: no downward path from %s to %s",
				t.Nodes[top].Name, t.Nodes[bottom].Name)
		}
		_, next := common(t.down[cur], reach[level-1], int(pairKey%uint64(n)))
		id, ok := t.LinkBetween(cur, next)
		if !ok {
			return nil, fmt.Errorf("topology: no link %s -> %s",
				t.Nodes[cur].Name, t.Nodes[next].Name)
		}
		path = append(path, id)
		cur = next
	}
	return path, nil
}

// meshRoute routes src to dst on a shortest path of the (undirected) link
// graph, breaking ties among equal-cost next hops by pairKey over
// ID-sorted candidates — deterministic ECMP for jellyfish-class fabrics.
// ms holds the hop counts to dst, searched again only when its
// destination differs.
func (t *Topology) meshRoute(ms *meshSearch, src, dst NodeID, pairKey uint64) ([]LinkID, error) {
	adj := t.adj
	if ms.dist == nil || ms.dst != dst {
		// Distance-to-dst by BFS; duplex cables make the graph symmetric.
		const unreached = -1
		ms.dst = dst
		ms.dist = slices.Grow(ms.dist[:0], len(t.Nodes))[:len(t.Nodes)]
		for i := range ms.dist {
			ms.dist[i] = unreached
		}
		ms.dist[dst] = 0
		queue := append(ms.queue[:0], dst)
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for _, w := range adj[cur] {
				if ms.dist[w] == unreached {
					ms.dist[w] = ms.dist[cur] + 1
					queue = append(queue, w)
				}
			}
		}
		ms.queue = queue
	}
	dist := ms.dist
	if dist[src] < 0 {
		return nil, fmt.Errorf("topology: hosts %s and %s are disconnected",
			t.Nodes[src].Name, t.Nodes[dst].Name)
	}

	path := make([]LinkID, 0, dist[src])
	cur := src
	for cur != dst {
		n := 0
		for _, w := range adj[cur] {
			if dist[w] == dist[cur]-1 {
				n++
			}
		}
		k := int(pairKey % uint64(n))
		var next NodeID
		for _, w := range adj[cur] {
			if dist[w] == dist[cur]-1 {
				if k == 0 {
					next = w
					break
				}
				k--
			}
		}
		id, ok := t.LinkBetween(cur, next)
		if !ok {
			return nil, fmt.Errorf("topology: no link %s -> %s",
				t.Nodes[cur].Name, t.Nodes[next].Name)
		}
		path = append(path, id)
		cur = next
	}
	return path, nil
}

// common walks the elements two ascending slices share, in order: it
// returns how many there are and the k-th of them (zero-based; valid
// when k < n).
func common(a, b []NodeID, k int) (n int, kth NodeID) {
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			if n == k {
				kth = a[i]
			}
			n++
			i++
			j++
		}
	}
	return n, kth
}

// RouteLatency sums the one-way latency of the links.
func (t *Topology) RouteLatency(links []LinkID) time.Duration {
	var total time.Duration
	for _, id := range links {
		total += t.Links[id].Latency
	}
	return total
}

// TreeSpec describes one tier-to-tier stage of a regular multi-rooted tree,
// bottom-up. Fanout is the number of children each upper node has.
type TreeSpec struct {
	Kind     Kind
	Fanout   int
	Capacity units.Rate
	Latency  time.Duration
}

// BuildTree constructs a regular tree: `cores` top switches, then each
// stage multiplies the node count by its fanout going down. The last spec
// stage must produce hosts. Every tier-below-top node has one parent,
// except the tier directly below the cores, which connects to all cores.
func BuildTree(cores int, stages []TreeSpec) (*Topology, error) {
	if cores < 1 {
		return nil, fmt.Errorf("topology: need at least one core, got %d", cores)
	}
	if len(stages) == 0 {
		return nil, fmt.Errorf("topology: need at least one stage")
	}
	if stages[len(stages)-1].Kind != KindHost {
		return nil, fmt.Errorf("topology: bottom stage must be hosts, got %v",
			stages[len(stages)-1].Kind)
	}
	t := New()
	level := len(stages)
	top := make([]NodeID, cores)
	for i := range top {
		top[i] = t.AddNode(KindCore, level, fmt.Sprintf("core%d", i))
	}
	parents := top
	firstBelowTop := true
	for s, spec := range stages {
		if spec.Fanout < 1 {
			return nil, fmt.Errorf("topology: stage %d fanout %d < 1", s, spec.Fanout)
		}
		level--
		var tier []NodeID
		if firstBelowTop {
			// The tier below the cores connects to every core (multi-rooted).
			n := spec.Fanout
			for i := 0; i < n; i++ {
				id := t.AddNode(spec.Kind, level, fmt.Sprintf("%s%d", spec.Kind, i))
				for _, c := range parents {
					t.AddDuplex(id, c, spec.Capacity, spec.Latency)
				}
				tier = append(tier, id)
			}
			firstBelowTop = false
		} else {
			for pi, p := range parents {
				for i := 0; i < spec.Fanout; i++ {
					id := t.AddNode(spec.Kind, level,
						fmt.Sprintf("%s%d", spec.Kind, pi*spec.Fanout+i))
					t.AddDuplex(id, p, spec.Capacity, spec.Latency)
					tier = append(tier, id)
				}
			}
		}
		parents = tier
	}
	t.index()
	return t, nil
}
