package topology

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"

	"choreo/internal/units"
)

// VMID indexes the virtual machines allocated from a Provider.
type VMID int32

// VM is one tenant virtual machine. EgressRate/EgressBurst describe the
// provider's hose-model rate limiter on the VM's outgoing traffic (paper
// §2.2, §4.3): a token bucket refilled at EgressRate with capacity
// EgressBurst. The burst capacity is what makes short packet trains
// overestimate sustained throughput on Rackspace (Figure 6(b)).
type VM struct {
	ID          VMID
	Name        string
	Host        NodeID
	EgressRate  units.Rate
	EgressBurst units.ByteSize
}

// Path describes the route between two VMs and the capacities a flow on
// it draws on. It is built once, by the AllocateVMs call that allocated
// the pair, and is read-only afterwards: simulators on the cloud share it.
type Path struct {
	Src, Dst VMID
	SameHost bool
	Links    []LinkID // physical host-to-host links; nil when SameHost
	Hops     int      // real hop count: 1 for same host, else len(Links)
	RTT      time.Duration

	// Resources are the IDs of the capacities (see Provider.Capacities)
	// a flow from Src to Dst crosses: Src's hose first, then Links in
	// order; for a colocated pair, the host's memory bus alone.
	Resources []int32
	// IdleShare is the rate a lone backlogged flow gets on the path, the
	// smallest capacity among Resources; IdlePhysicalShare leaves out the
	// hose (for a colocated pair it is IdleShare). LineRate is the
	// smallest raw link capacity, or the memory-bus rate.
	IdleShare         units.Rate
	IdlePhysicalShare units.Rate
	LineRate          units.Rate
}

// Provider owns a fabric built from a Profile, allocates tenant VMs onto
// it, and answers routing/traceroute queries. It corresponds to "the cloud
// provider" in the paper: the tenant cannot see inside it, only measure.
//
// Every capacity a flow can draw on has a resource ID: link l is l, host
// h's memory bus is len(Links)+h and VM v's hose is len(Links)+len(Nodes)+v
// (see Capacities). AllocateVMs is the only method that changes a
// Provider: it records each new VM's hose and builds the Path of every
// ordered pair of allocated VMs, resources and idle rates included,
// before it returns, so between allocations every query is a read. A
// Provider that is no longer allocated on is therefore safe for
// concurrent readers — the sweep runs each cell's measurement and all its
// executions on one.
type Provider struct {
	Profile Profile
	Topo    *Topology

	rng     *rand.Rand
	vms     []VM
	hostVMs map[NodeID][]VMID
	ambient []float64 // per-link fraction of capacity consumed by other tenants
	caps    []float64 // capacity per resource ID: links, memory buses, hoses
	routed  int       // VMs routes covers
	routes  []*Path   // routes[a*routed+b]; nil when a == b
}

// NewProvider prepares VM allocation on the profile's fabric. The seed
// fixes VM placement, hose draws and ambient congestion. The fabric is
// built by the profile; a profile from SharedFabric builds it once and
// every provider of that profile shares it.
func NewProvider(profile Profile, seed int64) (*Provider, error) {
	if err := profile.validate(); err != nil {
		return nil, err
	}
	topo, err := profile.buildFabric()
	if err != nil {
		return nil, err
	}
	topo.index()
	p := &Provider{
		Profile: profile,
		Topo:    topo,
		rng:     rand.New(rand.NewSource(seed)),
		hostVMs: make(map[NodeID][]VMID),
	}
	p.ambient = make([]float64, len(topo.Links))
	if profile.AmbientUtilization != nil {
		for i := range topo.Links {
			u := profile.AmbientUtilization(p.rng, topo.Links[i], topo)
			if u < 0 {
				u = 0
			}
			if u > 0.95 {
				u = 0.95
			}
			p.ambient[i] = u
		}
	}
	p.caps = make([]float64, len(topo.Links)+len(topo.Nodes))
	for i, l := range topo.Links {
		p.caps[i] = float64(l.Capacity) * (1 - p.ambient[i])
	}
	for h := range topo.Nodes {
		p.caps[len(topo.Links)+h] = float64(profile.MemBusRate)
	}
	return p, nil
}

// Capacities returns the capacity of every resource a flow can draw on,
// indexed by resource ID (see Provider): each link's capacity less its
// ambient load, each node's memory-bus rate (used for hosts only) and
// each allocated VM's hose rate. The table grows with AllocateVMs; the
// caller must not modify it.
func (p *Provider) Capacities() []float64 { return p.caps }

// VMs returns all allocated VMs.
func (p *Provider) VMs() []VM { return p.vms }

// VM returns a VM by ID.
func (p *Provider) VM(id VMID) VM { return p.vms[id] }

// AllocateVMs places n new VMs on hosts according to the profile's
// locality biases and returns them, with the routes between every pair
// of allocated VMs derived. It may be called repeatedly; later calls see
// earlier VMs' host occupancy.
func (p *Provider) AllocateVMs(n int) ([]VM, error) {
	hosts := p.Topo.Hosts()
	if len(hosts) == 0 {
		return nil, fmt.Errorf("topology: profile %q has no hosts", p.Profile.Name)
	}
	out := make([]VM, 0, n)
	for i := 0; i < n; i++ {
		host, err := p.pickHost()
		if err != nil {
			return nil, err
		}
		id := VMID(len(p.vms))
		vm := VM{
			ID:          id,
			Name:        fmt.Sprintf("vm%d", id),
			Host:        host,
			EgressRate:  p.Profile.HoseRate(p.rng),
			EgressBurst: p.Profile.HoseBurst,
		}
		p.vms = append(p.vms, vm)
		p.caps = append(p.caps, float64(vm.EgressRate))
		p.hostVMs[host] = append(p.hostVMs[host], id)
		out = append(out, vm)
	}
	if err := p.routeAll(); err != nil {
		return nil, err
	}
	return out, nil
}

// routeAll builds the routes of the allocated VM pairs not routed yet,
// keeping the routed ones, into a table laid out for every allocated VM.
// It routes destination by destination, so on a mesh fabric one search
// from each destination serves every source; the search is local to the
// call because the fabric may be shared between goroutines.
func (p *Provider) routeAll() error {
	n, old := len(p.vms), p.routed
	routes := make([]*Path, n*n)
	for a := 0; a < old; a++ {
		copy(routes[a*n:a*n+old], p.routes[a*old:(a+1)*old])
	}
	var ms meshSearch
	for b := 0; b < n; b++ {
		for a := 0; a < n; a++ {
			if a == b || routes[a*n+b] != nil {
				continue
			}
			ab, ba, err := p.route(&ms, VMID(a), VMID(b))
			if err != nil {
				return err
			}
			routes[a*n+b] = ab
			if ba != nil {
				routes[b*n+a] = ba
			}
		}
	}
	p.routes, p.routed = routes, n
	return nil
}

// route derives the route from a to b, and on up/down fabrics the route
// back too (nil on mesh fabrics, whose shortest-path walk is directed).
// Both directions use the unordered pair's ECMP key, so an up/down route
// back meets at the same switch and takes the same descents: it is the
// forward route's cables in reverse order. ms is the caller's mesh
// search scratch.
func (p *Provider) route(ms *meshSearch, a, b VMID) (ab, ba *Path, err error) {
	va, vb := p.vms[a], p.vms[b]
	if va.Host == vb.Host {
		return p.newPath(a, b, nil), p.newPath(b, a, nil), nil
	}
	lo, hi := a, b
	if lo > hi {
		lo, hi = hi, lo
	}
	pairKey := uint64(lo)<<32 | uint64(uint32(hi))
	links, err := p.Topo.hostRoute(ms, va.Host, vb.Host, pairKey)
	if err != nil {
		return nil, nil, err
	}
	if p.Topo.Mesh() {
		return p.newPath(a, b, links), nil, nil
	}
	return p.newPath(a, b, links), p.newPath(b, a, p.Topo.reverseRoute(slices.Clone(links))), nil
}

// newPath assembles the Path from a to b over links (nil for colocated
// VMs): its resources and idle rates come from the capacity table.
func (p *Provider) newPath(a, b VMID, links []LinkID) *Path {
	path := &Path{Src: a, Dst: b, Links: links, Hops: len(links)}
	if links == nil {
		bus := int32(len(p.Topo.Links)) + int32(p.vms[a].Host)
		path.SameHost = true
		path.Hops = 1
		path.RTT = p.Profile.MemBusRTT
		path.Resources = []int32{bus}
		path.IdleShare = units.Rate(p.caps[bus])
		path.IdlePhysicalShare = path.IdleShare
		path.LineRate = p.Profile.MemBusRate
		return path
	}
	path.RTT = 2*p.Topo.RouteLatency(links) + p.Profile.StackRTT
	hose := int32(len(p.Topo.Links)+len(p.Topo.Nodes)) + int32(a)
	path.Resources = append(make([]int32, 0, len(links)+1), hose)
	phys, line := math.Inf(1), math.Inf(1)
	for _, l := range links {
		path.Resources = append(path.Resources, int32(l))
		phys = min(phys, p.caps[l])
		line = min(line, float64(p.Topo.Links[l].Capacity))
	}
	path.IdleShare = units.Rate(min(p.caps[hose], phys))
	path.IdlePhysicalShare = units.Rate(phys)
	path.LineRate = units.Rate(line)
	return path
}

func (p *Provider) pickHost() (NodeID, error) {
	hosts := p.Topo.Hosts()
	free := func(h NodeID) bool {
		return len(p.hostVMs[h]) < p.Profile.MaxVMsPerHost
	}

	// Scenario profiles (the ns-2 reproductions) pin VM i to host i so
	// that "sender k" and "receiver k" mean what the figure means.
	if p.Profile.SequentialPlacement() {
		idx := len(p.vms)
		if idx >= len(hosts) {
			return 0, fmt.Errorf("topology: profile %q is out of hosts (%d)", p.Profile.Name, len(hosts))
		}
		return hosts[idx], nil
	}

	// Candidate lists below must be built in topology order, never by
	// ranging over the hostVMs map: map iteration order would leak into
	// rng.Intn picks and break fixed-seed reproducibility.

	// Colocate on an already-occupied host with the profile's probability.
	if len(p.hostVMs) > 0 && p.rng.Float64() < p.Profile.SameHostProb {
		occupied := make([]NodeID, 0, len(p.hostVMs))
		for _, h := range hosts {
			if len(p.hostVMs[h]) > 0 && free(h) {
				occupied = append(occupied, h)
			}
		}
		if len(occupied) > 0 {
			return occupied[p.rng.Intn(len(occupied))], nil
		}
	}

	// Otherwise maybe reuse a rack that already has one of our VMs.
	if len(p.hostVMs) > 0 && p.rng.Float64() < p.Profile.SameRackProb {
		var candidates []NodeID
		seen := map[NodeID]bool{}
		for _, h := range hosts {
			if len(p.hostVMs[h]) == 0 {
				continue
			}
			tor := p.Topo.Nodes[h].Up[0]
			if seen[tor] {
				continue
			}
			seen[tor] = true
			for _, sib := range p.Topo.Nodes[tor].Down {
				if p.Topo.Nodes[sib].Kind == KindHost && free(sib) {
					candidates = append(candidates, sib)
				}
			}
		}
		if len(candidates) > 0 {
			return candidates[p.rng.Intn(len(candidates))], nil
		}
	}

	// Fall back to a uniformly random host with space.
	for attempts := 0; attempts < 4*len(hosts); attempts++ {
		h := hosts[p.rng.Intn(len(hosts))]
		if free(h) {
			return h, nil
		}
	}
	return 0, fmt.Errorf("topology: no host has capacity for another VM (max %d/host)",
		p.Profile.MaxVMsPerHost)
}

// Path returns the route between two distinct VMs, derived by the
// AllocateVMs call that allocated them. Routes are symmetric: Path(a,b)
// and Path(b,a) traverse the same cables in opposite directions.
func (p *Provider) Path(a, b VMID) (*Path, error) {
	if a == b {
		return nil, fmt.Errorf("topology: path from %v to itself", a)
	}
	if a < 0 || b < 0 || int(a) >= p.routed || int(b) >= p.routed {
		return nil, fmt.Errorf("topology: no route %v -> %v: not an allocated pair", a, b)
	}
	return p.routes[int(a)*p.routed+int(b)], nil
}

// AllPaths returns the directed paths between every ordered pair of the
// given VMs — the "90 VM pairs" mesh for ten VMs in the paper.
func (p *Provider) AllPaths(vms []VM) ([]*Path, error) {
	var out []*Path
	for _, a := range vms {
		for _, b := range vms {
			if a.ID == b.ID {
				continue
			}
			path, err := p.Path(a.ID, b.ID)
			if err != nil {
				return nil, err
			}
			out = append(out, path)
		}
	}
	return out, nil
}

// TracerouteHops reports the hop count a tenant traceroute would observe
// between two VMs, after the provider's visibility mask (Rackspace hides
// tiers; paper §4.2 saw only {1,4} there).
func (p *Provider) TracerouteHops(a, b VMID) (int, error) {
	path, err := p.Path(a, b)
	if err != nil {
		return 0, err
	}
	if p.Profile.TracerouteMask != nil {
		return p.Profile.TracerouteMask(path.Hops), nil
	}
	return path.Hops, nil
}

// SameRack reports whether two VMs sit under the same top-of-rack switch.
func (p *Provider) SameRack(a, b VMID) bool {
	ha, hb := p.vms[a].Host, p.vms[b].Host
	return p.Topo.Nodes[ha].Up[0] == p.Topo.Nodes[hb].Up[0]
}
