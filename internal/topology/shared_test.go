package topology

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// fabricProfiles covers every fabric family: provider trees of three and
// four tiers, the ns-2 trees, fat trees and a jellyfish mesh.
func fabricProfiles() []Profile {
	return []Profile{
		EC22013(), Rackspace(), PrivateCloud(), TwoRack(8, 1e9, 1e10), Dumbbell(4, 1e9, 1e9),
		FatTree(4), FatTree(6), Jellyfish(12, 6, 7),
	}
}

// TestSharedFabricBuildsOnce: every provider of a SharedFabric profile,
// and of its copies, from any goroutine, gets the one fabric the first
// build produced.
func TestSharedFabricBuildsOnce(t *testing.T) {
	base := EC22013()
	var mu sync.Mutex
	builds := 0
	base.Build = func() (*Topology, error) {
		mu.Lock()
		builds++
		mu.Unlock()
		return BuildTree(base.Cores, base.Stages)
	}
	shared := base.SharedFabric()
	copied := shared
	topos := make([]*Topology, 8)
	var wg sync.WaitGroup
	for i := range topos {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := shared
			if i%2 == 1 {
				p = copied
			}
			prov, err := NewProvider(p, int64(i))
			if err != nil {
				t.Error(err)
				return
			}
			topos[i] = prov.Topo
		}()
	}
	wg.Wait()
	if builds != 1 {
		t.Errorf("fabric built %d times, want 1", builds)
	}
	for i, topo := range topos {
		if topo != topos[0] {
			t.Fatalf("provider %d got its own fabric", i)
		}
	}
	if fresh, err := NewProvider(EC22013(), 0); err != nil {
		t.Fatal(err)
	} else if fresh.Topo == topos[0] {
		t.Error("a plain profile shares the fabric of a SharedFabric one")
	}
}

// cloudDigest renders everything a cloud's seed shapes — ambient load,
// VM placement and hoses, every route — for comparing clouds. It may run
// on any goroutine.
func cloudDigest(t *testing.T, p *Provider) string {
	t.Helper()
	s := fmt.Sprint(p.ambient, p.VMs())
	for _, a := range p.VMs() {
		for _, b := range p.VMs() {
			if a.ID == b.ID {
				continue
			}
			path, err := p.Path(a.ID, b.ID)
			if err != nil {
				t.Error(err)
				return ""
			}
			s += fmt.Sprint(*path)
		}
	}
	return s
}

// TestSharedFabricCloudsMatchRebuilt: a cloud on a shared fabric is the
// cloud a fresh fabric yields for the same seed.
func TestSharedFabricCloudsMatchRebuilt(t *testing.T) {
	for _, p := range fabricProfiles() {
		shared := p.SharedFabric()
		for seed := int64(1); seed <= 3; seed++ {
			digest := func(p Profile) string {
				prov, err := NewProvider(p, seed)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := prov.AllocateVMs(6); err != nil {
					t.Fatal(err)
				}
				return cloudDigest(t, prov)
			}
			if got, want := digest(shared), digest(p); got != want {
				t.Fatalf("%s seed %d: cloud on the shared fabric differs from a rebuilt one", p.Name, seed)
			}
		}
	}
}

// TestSharedFabricConcurrentReaders drives one shared fabric and one
// cloud on it from many goroutines at once — routes, paths and further
// clouds built on the fabric — as a sweep's workers do. The goroutines
// are the first to route on the fabric and to read the cloud's paths
// (the expected values come from a separate rebuild), so under -race it
// proves neither fills anything lazily.
func TestSharedFabricConcurrentReaders(t *testing.T) {
	for _, p := range []Profile{EC22013(), FatTree(4), Jellyfish(12, 6, 7)} {
		cloudOf := func(p Profile) *Provider {
			prov, err := NewProvider(p, 9)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := prov.AllocateVMs(8); err != nil {
				t.Fatal(err)
			}
			return prov
		}
		ref := cloudOf(p)
		wantCloud := cloudDigest(t, ref)
		hosts := ref.Topo.Hosts()
		wantRoutes := make(map[[2]NodeID][]LinkID)
		for _, a := range hosts {
			for _, b := range hosts {
				wantRoutes[[2]NodeID{a, b}] = routeOrFatal(t, ref.Topo, a, b, uint64(a)*31+uint64(b))
			}
		}
		shared := p.SharedFabric()
		cloud := cloudOf(shared)
		topo := cloud.Topo
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, a := range hosts {
					for _, b := range hosts {
						got, err := topo.HostRoute(a, b, uint64(a)*31+uint64(b))
						if err != nil || !reflect.DeepEqual(got, wantRoutes[[2]NodeID{a, b}]) {
							t.Errorf("%s: concurrent HostRoute(%v,%v) = %v, %v", p.Name, a, b, got, err)
							return
						}
					}
				}
				if got := cloudDigest(t, cloud); got != wantCloud {
					t.Errorf("%s: concurrent Path reads disagree", p.Name)
				}
				other, err := NewProvider(shared, int64(100+g))
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := other.AllocateVMs(8); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
	}
}

// TestIndexedFabricRejectsChanges: once routed, a fabric is frozen.
func TestIndexedFabricRejectsChanges(t *testing.T) {
	p := EC22013()
	topo, err := BuildTree(p.Cores, p.Stages)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("AddNode on an indexed fabric did not panic")
		}
	}()
	topo.AddNode(KindHost, 0, "late")
}
