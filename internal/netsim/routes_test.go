package netsim_test

import (
	"testing"

	"choreo/internal/netsim"
	"choreo/internal/sweep"
	"choreo/internal/topology"
)

// TestIdleRatesMatchLoneFlow: on every grid topology (`choreo sweep
// -list`) and many seeds, each route's idle rates are what a lone
// backlogged flow gets on an empty network — with its hose, and with the
// hose dropped for the physical share — and what Availability reports.
func TestIdleRatesMatchLoneFlow(t *testing.T) {
	seeds := int64(12)
	if testing.Short() {
		seeds = 2
	}
	for _, name := range sweep.TopologyNames() {
		tp, err := sweep.TopologyByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(1); seed <= seeds; seed++ {
			prof := tp.Profile
			if seed%2 == 0 {
				prof.SameHostProb = 0.5
			}
			prov, err := topology.NewProvider(prof, seed)
			if err != nil {
				t.Fatal(err)
			}
			vms, err := prov.AllocateVMs(8)
			if err != nil {
				t.Fatal(err)
			}
			n := netsim.New(prov)
			for _, a := range vms {
				for _, b := range vms {
					if a.ID == b.ID {
						continue
					}
					path, err := prov.Path(a.ID, b.ID)
					if err != nil {
						t.Fatal(err)
					}
					idle := netsim.PathAvailability{Share: path.IdleShare, PhysicalShare: path.IdlePhysicalShare, LineRate: path.LineRate}
					lone, err := netsim.AvailabilityReference(n, a.ID, b.ID)
					if err != nil {
						t.Fatal(err)
					}
					if lone != idle {
						t.Fatalf("%s seed %d: %v->%v idle %+v, lone flow %+v", name, seed, a.ID, b.ID, idle, lone)
					}
					if av, err := n.Availability(a.ID, b.ID); err != nil || av != idle {
						t.Fatalf("%s seed %d: %v->%v Availability %+v (%v), idle %+v", name, seed, a.ID, b.ID, av, err, idle)
					}
				}
			}
			if n.ActiveFlows() != 0 {
				t.Fatalf("%s: probes left %d flows", name, n.ActiveFlows())
			}
		}
	}
}
