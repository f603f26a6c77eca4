package cluster

import (
	"fmt"
	"testing"

	"choreo/internal/core"
	"choreo/internal/netsim"
	"choreo/internal/topology"
)

// roundContention runs each round of rounds on a fresh simulator of
// cloud: for every pair of the round, the round's other pairs run as
// backlogged flows while the pair's netsim share is compared with its
// idle share. It returns the cross-host pairs whose share fell below
// idle, and the number of cross-host pairs checked. Same-host pairs are
// skipped: both directions of a host's pairs cross its memory bus, so a
// round that also runs the reverse pair, or another pair on that host,
// contends there whatever the schedule.
func roundContention(t *testing.T, cloud *topology.Provider, rounds [][]meshPair) (contended []meshPair, checked int) {
	t.Helper()
	net := netsim.New(cloud)
	vmID := func(i int) topology.VMID { return cloud.VMs()[i].ID }
	for _, round := range rounds {
		for i, p := range round {
			path, err := cloud.Path(vmID(p.src), vmID(p.dst))
			if err != nil {
				t.Fatal(err)
			}
			if path.SameHost {
				continue
			}
			idle, err := net.Availability(vmID(p.src), vmID(p.dst))
			if err != nil {
				t.Fatal(err)
			}
			var others []netsim.FlowID
			for j, q := range round {
				if j == i {
					continue
				}
				f, err := net.StartFlow(vmID(q.src), vmID(q.dst), netsim.Backlogged, "round", nil)
				if err != nil {
					t.Fatal(err)
				}
				others = append(others, f.ID)
			}
			busy, err := net.Availability(vmID(p.src), vmID(p.dst))
			if err != nil {
				t.Fatal(err)
			}
			for _, id := range others {
				net.StopFlow(id)
			}
			checked++
			if busy.Share != idle.Share {
				contended = append(contended, p)
			}
		}
	}
	return contended, checked
}

// TestDuplexRoundsMatchHoseModel checks the duplex schedule against the
// simulator's hose-model clouds: on ec2-2013 and rackspace, at 6 and 10
// VMs over five seeds, every cross-host pair of every round gets its
// idle share while the round's other n−1 pairs run backlogged. Links
// are directed, so an agent's incoming train leaves its egress alone;
// only its own outgoing train would contend there, and a round holds
// one.
func TestDuplexRoundsMatchHoseModel(t *testing.T) {
	profiles := []struct {
		name string
		p    topology.Profile
	}{{"ec2-2013", topology.EC22013()}, {"rackspace", topology.Rackspace()}}
	for _, prof := range profiles {
		for _, vms := range []int{6, 10} {
			for seed := int64(1); seed <= 5; seed++ {
				t.Run(fmt.Sprintf("%s/vms=%d/seed=%d", prof.name, vms, seed), func(t *testing.T) {
					cloud, err := core.NewCloud(prof.p, seed, vms)
					if err != nil {
						t.Fatal(err)
					}
					contended, checked := roundContention(t, cloud, meshRounds(vms))
					if checked == 0 {
						t.Fatal("no cross-host pair to check")
					}
					for _, p := range contended {
						t.Errorf("pair %d->%d shares a bottleneck with another pair of its round", p.src, p.dst)
					}
				})
			}
		}
	}
}
