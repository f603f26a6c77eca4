package netsim

import (
	"testing"

	"choreo/internal/topology"
	"choreo/internal/units"
)

// TestBatchAvailabilityContendedMatchesPerPair pins the contended path
// under live cross-traffic, where most mesh pairs share constraints with
// active flows and BatchAvailabilityRefs resolves their share and physical
// probes in the what-if kernel's one filling pass: every pair's
// availability must be bit-identical to availabilityReference, the
// probe-flow measurement the kernel replaced, and the active flows must
// end on exactly the rates they held before the batch.
func TestBatchAvailabilityContendedMatchesPerPair(t *testing.T) {
	cases := []struct {
		name  string
		prov  func(t *testing.T) *topology.Provider
		vms   int
		flows [][2]int
	}{
		{
			// Heavy mesh cross-traffic: most pairs contend, and probes
			// freeze at different iterations of the filling pass.
			name: "ec2-heavy",
			prov: func(t *testing.T) *topology.Provider {
				p, err := topology.NewProvider(topology.EC22013(), 7)
				if err != nil {
					t.Fatal(err)
				}
				return p
			},
			vms:   8,
			flows: [][2]int{{0, 1}, {1, 2}, {2, 5}, {7, 3}, {4, 6}, {5, 0}},
		},
		{
			// Two racks with traffic pinned inside each: contended and
			// uncontended probes mix in one batch.
			name: "tworack-disjoint",
			prov: func(t *testing.T) *topology.Provider {
				p, err := topology.NewProvider(topology.TwoRack(4, units.Gbps(1), units.Gbps(4)), 9)
				if err != nil {
					t.Fatal(err)
				}
				return p
			},
			vms:   8,
			flows: [][2]int{{0, 1}, {5, 4}},
		},
		{
			// Colocated VMs under load: same-host contended pairs take the
			// memory-bus branch (share probe only, no physical probe).
			name: "same-host",
			prov: func(t *testing.T) *topology.Provider {
				prof := topology.EC22013()
				prof.SameHostProb = 1
				p, err := topology.NewProvider(prof, 5)
				if err != nil {
					t.Fatal(err)
				}
				return p
			},
			vms:   4,
			flows: [][2]int{{0, 1}, {2, 3}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prov := tc.prov(t)
			vms, err := prov.AllocateVMs(tc.vms)
			if err != nil {
				t.Fatal(err)
			}
			net := New(prov)
			for _, pr := range tc.flows {
				if _, err := net.StartFlow(vms[pr[0]].ID, vms[pr[1]].ID, Backlogged, "bg", nil); err != nil {
					t.Fatal(err)
				}
			}
			before := net.Rates()

			var pairs [][2]topology.VMID
			for _, a := range vms {
				for _, b := range vms {
					if a.ID != b.ID {
						pairs = append(pairs, [2]topology.VMID{a.ID, b.ID})
					}
				}
			}
			got := batchAvailability(t, net, pairs)

			contended := 0
			for i, pr := range pairs {
				want, err := availabilityReference(net, pr[0], pr[1])
				if err != nil {
					t.Fatal(err)
				}
				if got[i] != want {
					t.Errorf("pair %v->%v: batch %+v != reference %+v", pr[0], pr[1], got[i], want)
				}
				if want.Share != want.PhysicalShare || want.PhysicalShare != want.LineRate {
					contended++ // heuristic: capacity-limited pairs have all three equal on idle paths
				}
			}
			if tc.name == "ec2-heavy" && contended == 0 {
				t.Fatal("no pair looked contended; the test lost its subject")
			}

			after := net.Rates()
			if len(after) != len(before) {
				t.Fatalf("active flow count changed: %d != %d", len(after), len(before))
			}
			for id, r := range before {
				if after[id] != r {
					t.Errorf("flow %d rate disturbed by batch: %v != %v", id, after[id], r)
				}
			}
		})
	}
}
