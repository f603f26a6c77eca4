package topology

import (
	"fmt"
	"math/rand"
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

// Path describes the route between two VMs.
type Path struct {
	Src, Dst VMID
	SameHost bool
	Links    []LinkID // physical host-to-host links; nil when SameHost
	Hops     int      // real hop count: 1 for same host, else len(Links)
	RTT      time.Duration
}

// Provider owns a fabric built from a Profile, allocates tenant VMs onto
// it, and answers routing/traceroute queries. It corresponds to "the cloud
// provider" in the paper: the tenant cannot see inside it, only measure.
//
// AllocateVMs is the only method that changes a Provider: it derives the
// route of every ordered pair of allocated VMs before it returns, so
// between allocations every query is a read. A Provider that is no longer
// allocated on is therefore safe for concurrent readers — the sweep runs
// each cell's measurement and all its executions on one.
type Provider struct {
	Profile Profile
	Topo    *Topology

	rng     *rand.Rand
	vms     []VM
	hostVMs map[NodeID][]VMID
	ambient []float64         // per-link fraction of capacity consumed by other tenants
	paths   map[[2]VMID]*Path // every ordered pair of allocated VMs
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
		paths:   make(map[[2]VMID]*Path),
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
	return p, nil
}

// AmbientUtilization reports the static other-tenant load on a link as a
// fraction of its capacity.
func (p *Provider) AmbientUtilization(l LinkID) float64 { return p.ambient[l] }

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
		p.hostVMs[host] = append(p.hostVMs[host], id)
		out = append(out, vm)
	}
	if err := p.routeAll(); err != nil {
		return nil, err
	}
	return out, nil
}

// routeAll derives the routes of the allocated VM pairs not routed yet.
func (p *Provider) routeAll() error {
	for a := range p.vms {
		for b := range p.vms {
			key := [2]VMID{VMID(a), VMID(b)}
			if _, ok := p.paths[key]; ok || a == b {
				continue
			}
			path, err := p.route(key[0], key[1])
			if err != nil {
				return err
			}
			p.paths[key] = path
		}
	}
	return nil
}

// route derives the route between two distinct VMs.
func (p *Provider) route(a, b VMID) (*Path, error) {
	va, vb := p.vms[a], p.vms[b]
	path := &Path{Src: a, Dst: b}
	if va.Host == vb.Host {
		path.SameHost = true
		path.Hops = 1
		path.RTT = p.Profile.MemBusRTT
		return path, nil
	}
	lo, hi := a, b
	if lo > hi {
		lo, hi = hi, lo
	}
	pairKey := uint64(lo)<<32 | uint64(uint32(hi))
	links, err := p.Topo.HostRoute(va.Host, vb.Host, pairKey)
	if err != nil {
		return nil, err
	}
	path.Links = links
	path.Hops = len(links)
	path.RTT = 2*p.Topo.RouteLatency(links) + p.Profile.StackRTT
	return path, nil
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
	path, ok := p.paths[[2]VMID{a, b}]
	if !ok {
		return nil, fmt.Errorf("topology: no route %v -> %v: not an allocated pair", a, b)
	}
	return path, nil
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

// SameSubtree reports whether two VMs share an ancestor at the given level
// (level 1 = ToR, 2 = first aggregation tier, ...).
func (p *Provider) SameSubtree(a, b VMID, level int) bool {
	ca := p.Topo.ancestors(p.vms[a].Host)
	cb := p.Topo.ancestors(p.vms[b].Host)
	if level >= len(ca) || level >= len(cb) {
		return false
	}
	return ca[level] == cb[level]
}
