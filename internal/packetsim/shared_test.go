package packetsim

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"choreo/internal/netsim"
	"choreo/internal/probe"
	"choreo/internal/topology"
	"choreo/internal/units"
)

// cloudRun measures and executes on its own Network and Medium over a
// shared cloud, as each execution of a sweep cell does: a mesh measured
// under cross traffic, transfers started, a snapshot taken mid-run (the
// what-if kernel on a loaded network), and the run drained. It renders
// every number the run produced.
func cloudRun(t *testing.T, prov *topology.Provider, vms []topology.VM, k int) string {
	net := netsim.New(prov)
	rng := rand.New(rand.NewSource(int64(k)))
	m := NewMedium(net, rng)
	for i := 0; i <= k%4; i++ {
		a, b := vms[rng.Intn(len(vms))], vms[rng.Intn(len(vms))]
		if a.ID != b.ID {
			if _, err := net.StartFlow(a.ID, b.ID, units.ByteSize(1+rng.Intn(400))<<20, "bg", nil); err != nil {
				t.Error(err)
				return ""
			}
		}
	}
	rates, elapsed, err := m.MeasureMesh(vms, probe.DefaultEC2(), time.Second)
	if err != nil {
		t.Error(err)
		return ""
	}
	var finished []string
	for i, a := range vms {
		b := vms[(i+k+1)%len(vms)]
		if a.ID == b.ID {
			continue
		}
		_, err := net.StartFlow(a.ID, b.ID, units.ByteSize(i+1)*10<<20, "x", func(f *netsim.Flow) {
			finished = append(finished, fmt.Sprint(f.ID, f.Finished()))
		})
		if err != nil {
			t.Error(err)
			return ""
		}
	}
	net.Run(50 * time.Millisecond)
	states, err := m.PairStates(vms)
	if err != nil {
		t.Error(err)
		return ""
	}
	mid := fmt.Sprint(states)
	end := net.RunUntilIdle(time.Hour)
	return fmt.Sprint(rates, elapsed, mid, finished, end)
}

// TestSharedCloudConcurrentMatchesSerial: Networks and Mediums measuring
// and executing concurrently on one cloud give, bit for bit, what the
// same runs give one after another on a rebuilt cloud. The concurrent
// runs are the cloud's first readers, so under -race this also shows
// that neither simulator writes to the cloud.
func TestSharedCloudConcurrentMatchesSerial(t *testing.T) {
	for _, prof := range []topology.Profile{topology.EC22013(), topology.Rackspace(), topology.FatTree(4), topology.Jellyfish(12, 6, 7)} {
		cloud := func() (*topology.Provider, []topology.VM) {
			prof := prof
			prof.SameHostProb = 0.3
			prov, err := topology.NewProvider(prof, 5)
			if err != nil {
				t.Fatal(err)
			}
			vms, err := prov.AllocateVMs(8)
			if err != nil {
				t.Fatal(err)
			}
			return prov, vms
		}
		prov, vms := cloud()
		got := make([]string, 6)
		var wg sync.WaitGroup
		for k := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[k] = cloudRun(t, prov, vms, k)
			}()
		}
		wg.Wait()
		ref, refVMs := cloud()
		for k := range got {
			if want := cloudRun(t, ref, refVMs, k); got[k] != want {
				t.Fatalf("%s run %d: concurrent run differs from the serial one", prof.Name, k)
			}
		}
	}
}
