package topology

// HostRoute is hostRoute with fresh mesh search scratch: the route tests,
// internal and external, pin routes and route tables to it.
func (t *Topology) HostRoute(src, dst NodeID, pairKey uint64) ([]LinkID, error) {
	return t.hostRoute(new(meshSearch), src, dst, pairKey)
}

// AmbientUtilization reports the static other-tenant load on a link as a
// fraction of its capacity.
func (p *Provider) AmbientUtilization(l LinkID) float64 { return p.ambient[l] }
