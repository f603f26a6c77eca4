package envcache

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"choreo/internal/place"
)

func key(seed int64) Key {
	return Key{Topology: "t", Workload: "w", CloudSeed: seed, VMs: 4, MeanBytes: 1 << 20, MinTasks: 3, MaxTasks: 4}
}

func TestSingleflightBuildsOnce(t *testing.T) {
	c := NewPlanned(map[Key]int{key(1): 16})
	var builds atomic.Int64
	var wg sync.WaitGroup
	cells := make([]*Cell, 16)
	for i := range cells {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cell, err := c.Get(key(1), func() (*Cell, error) {
				builds.Add(1)
				return &Cell{}, nil
			})
			if err != nil {
				t.Error(err)
			}
			cells[i] = cell
		}(i)
	}
	wg.Wait()
	if builds.Load() != 1 {
		t.Fatalf("16 concurrent Gets built %d times, want 1", builds.Load())
	}
	for i := 1; i < len(cells); i++ {
		if cells[i] != cells[0] {
			t.Fatal("concurrent Gets returned different cells")
		}
	}
	s := c.Stats()
	if s.Misses != 1 || s.Hits != 15 || s.Resident != 0 {
		t.Errorf("stats = %+v, want 1 miss / 15 hits / 0 resident", s)
	}
}

func TestDistinctKeysBuildSeparately(t *testing.T) {
	c := NewPlanned(map[Key]int{key(1): 1, key(2): 1, key(3): 1})
	var builds atomic.Int64
	build := func() (*Cell, error) { builds.Add(1); return &Cell{}, nil }
	for seed := int64(1); seed <= 3; seed++ {
		if _, err := c.Get(key(seed), build); err != nil {
			t.Fatal(err)
		}
	}
	if builds.Load() != 3 {
		t.Errorf("3 distinct keys built %d times", builds.Load())
	}
}

func TestEvictionAfterDeclaredUses(t *testing.T) {
	c := NewPlanned(map[Key]int{key(1): 2})
	var builds atomic.Int64
	build := func() (*Cell, error) { builds.Add(1); return &Cell{}, nil }
	for i := 0; i < 2; i++ {
		if _, err := c.Get(key(1), build); err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() != 0 {
		t.Fatalf("entry should be evicted after its 2 declared uses, %d resident", c.Len())
	}
	// A use beyond the declaration rebuilds (counts as a miss).
	if _, err := c.Get(key(1), build); err != nil {
		t.Fatal(err)
	}
	if builds.Load() != 2 {
		t.Errorf("post-eviction Get should rebuild: %d builds", builds.Load())
	}
	s := c.Stats()
	if s.Misses != 2 || s.Hits != 1 {
		t.Errorf("stats = %+v, want 2 misses / 1 hit", s)
	}
}

// TestPlannedUsesEvictExactly is the partial-cell-group accounting: a
// shard or resume fetches some keys fewer times than the full grid
// would, and the per-key plan must release each entry on exactly its
// last planned fetch — nothing pinned, nothing evicted early.
func TestPlannedUsesEvictExactly(t *testing.T) {
	c := NewPlanned(map[Key]int{key(1): 3, key(2): 1})
	var builds atomic.Int64
	build := func() (*Cell, error) { builds.Add(1); return &Cell{}, nil }

	for i := 0; i < 2; i++ {
		if _, err := c.Get(key(1), build); err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() != 1 {
		t.Fatalf("key with 1 of 3 planned uses left must stay resident, Len = %d", c.Len())
	}
	if _, err := c.Get(key(1), build); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(key(2), build); err != nil {
		t.Fatal(err)
	}
	if builds.Load() != 2 {
		t.Errorf("2 planned keys built %d times, want 2", builds.Load())
	}
	if c.Len() != 0 {
		t.Errorf("all planned uses consumed, yet %d entries still resident (pinned)", c.Len())
	}
	s := c.Stats()
	if s.Hits != 2 || s.Misses != 2 || s.Resident != 0 {
		t.Errorf("stats = %+v, want 2 hits / 2 misses / 0 resident", s)
	}
}

// TestPlannedUnplannedKeyNeverCached: a fetch outside the plan builds
// every time and leaves nothing resident, rather than corrupting the
// accounting of planned entries.
func TestPlannedUnplannedKeyNeverCached(t *testing.T) {
	c := NewPlanned(map[Key]int{key(1): 1})
	var builds atomic.Int64
	build := func() (*Cell, error) { builds.Add(1); return &Cell{}, nil }
	for i := 0; i < 2; i++ {
		if _, err := c.Get(key(9), build); err != nil {
			t.Fatal(err)
		}
	}
	if builds.Load() != 2 {
		t.Errorf("unplanned key built %d times, want 2 (never cached)", builds.Load())
	}
	if c.Len() != 0 {
		t.Errorf("unplanned key left %d entries resident", c.Len())
	}
}

// TestOverCountedPlanPinsPartialGroup documents why partial runs need
// an exact per-key plan: a plan that over-counts a key the run touches
// fewer times leaves it resident (pinned) at the end, and Stats exposes
// the pin.
func TestOverCountedPlanPinsPartialGroup(t *testing.T) {
	overCounted := NewPlanned(map[Key]int{key(1): 3})
	build := func() (*Cell, error) { return &Cell{}, nil }
	if _, err := overCounted.Get(key(1), build); err != nil {
		t.Fatal(err)
	}
	if overCounted.Len() != 1 {
		t.Fatalf("over-counted cache after partial group: Len = %d, want 1 (pinned)", overCounted.Len())
	}
	if s := overCounted.Stats(); s.Resident != 1 {
		t.Errorf("Stats.Resident = %d, want 1 to expose the pin", s.Resident)
	}
	planned := NewPlanned(map[Key]int{key(1): 1})
	if _, err := planned.Get(key(1), build); err != nil {
		t.Fatal(err)
	}
	if planned.Len() != 0 {
		t.Errorf("planned cache after partial group: Len = %d, want 0", planned.Len())
	}
}

func TestNilCacheBuildsEveryTime(t *testing.T) {
	var c *Cache
	var builds atomic.Int64
	for i := 0; i < 3; i++ {
		if _, err := c.Get(key(1), func() (*Cell, error) { builds.Add(1); return &Cell{}, nil }); err != nil {
			t.Fatal(err)
		}
	}
	if builds.Load() != 3 {
		t.Errorf("nil cache built %d times, want 3", builds.Load())
	}
	if s := c.Stats(); s != (Stats{}) {
		t.Errorf("nil cache stats = %+v", s)
	}
	if c.Len() != 0 {
		t.Errorf("nil cache Len = %d", c.Len())
	}
}

func TestBuildErrorShared(t *testing.T) {
	c := NewPlanned(map[Key]int{key(9): 2})
	boom := errors.New("boom")
	if _, err := c.Get(key(9), func() (*Cell, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("got %v, want the build error", err)
	}
	// Later Gets observe the same (cached) failure rather than rebuilding:
	// the cell is deterministic, so retrying cannot succeed.
	if _, err := c.Get(key(9), func() (*Cell, error) { t.Fatal("rebuilt"); return nil, nil }); !errors.Is(err, boom) {
		t.Fatalf("got %v, want the shared build error", err)
	}
}

func TestOptimalReferenceMemoized(t *testing.T) {
	cell := &Cell{}
	var computes atomic.Int64
	for i := 0; i < 4; i++ {
		v, ok, err := cell.OptimalReference(func() (float64, bool, error) {
			computes.Add(1)
			return 42, true, nil
		})
		if err != nil || !ok || v != 42 {
			t.Fatalf("reference = %v %v %v", v, ok, err)
		}
	}
	if computes.Load() != 1 {
		t.Errorf("reference computed %d times, want 1", computes.Load())
	}
}

// TestMeasurementKeyStripsArrivalProcess pins which coordinates the
// measurement sub-key drops: sim cells differing only in arrival
// process share one measured cloud, everything else stays distinct.
func TestMeasurementKeyStripsArrivalProcess(t *testing.T) {
	a := Key{Topology: "t", Workload: "w", CloudSeed: 9, VMs: 4, Interarrival: 5, SeqApps: 8}
	b := a
	b.Interarrival, b.SeqApps = 30, 12
	if a.MeasurementKey() != b.MeasurementKey() {
		t.Error("cells differing only in arrival process do not share a measurement key")
	}
	c := a
	c.CloudSeed = 10
	if a.MeasurementKey() == c.MeasurementKey() {
		t.Error("cells with different clouds share a measurement key")
	}
}

// TestGetMeasurementSharesAndEvicts drives the measurement sub-layer
// the way two sequence cell builds would: one build for the shared
// cloud, eviction after the planned last fetch, and build-every-time
// for unplanned keys and the nil cache.
func TestGetMeasurementSharesAndEvicts(t *testing.T) {
	cellA := Key{Topology: "t", CloudSeed: 1, Interarrival: 5, SeqApps: 4}
	cellB := Key{Topology: "t", CloudSeed: 1, Interarrival: 9, SeqApps: 4}
	mk := cellA.MeasurementKey()
	if mk != cellB.MeasurementKey() {
		t.Fatal("test cells must share a measurement key")
	}

	c := NewPlanned(map[Key]int{cellA: 2, cellB: 2})
	c.PlanMeasurements(map[Key]int{mk: 2})
	builds := 0
	build := func() (*Cell, error) {
		builds++
		return &Cell{Env: &place.Environment{CPUCap: []float64{4}}}, nil
	}
	envA, err := c.GetMeasurement(mk, build)
	if err != nil {
		t.Fatal(err)
	}
	envB, err := c.GetMeasurement(mk, build)
	if err != nil {
		t.Fatal(err)
	}
	if builds != 1 {
		t.Errorf("built %d measurements, want 1", builds)
	}
	if envA != envB {
		t.Error("second fetch did not return the shared environment")
	}
	s := c.Stats()
	if s.MeasurementMisses != 1 || s.MeasurementHits != 1 {
		t.Errorf("measurement misses/hits = %d/%d, want 1/1", s.MeasurementMisses, s.MeasurementHits)
	}
	if s.MeasurementResident != 0 {
		t.Errorf("measurement entries resident after last planned fetch = %d, want 0", s.MeasurementResident)
	}

	// Unplanned key: builds every time, counted as misses.
	other := Key{Topology: "other"}
	if _, err := c.GetMeasurement(other, build); err != nil {
		t.Fatal(err)
	}
	if _, err := c.GetMeasurement(other, build); err != nil {
		t.Fatal(err)
	}
	if builds != 3 {
		t.Errorf("unplanned key built %d times total, want 3", builds)
	}

	// Nil cache: always builds.
	var nilCache *Cache
	if _, err := nilCache.GetMeasurement(mk, build); err != nil {
		t.Fatal(err)
	}
	if builds != 4 {
		t.Errorf("nil cache built %d times total, want 4", builds)
	}
}

// TestGetMeasurementSharesErrors checks a failed measurement build is
// shared with every waiter of the entry, like cell builds.
func TestGetMeasurementSharesErrors(t *testing.T) {
	k := Key{Topology: "t"}
	c := NewPlanned(nil)
	c.PlanMeasurements(map[Key]int{k: 2})
	boom := errors.New("measurement failed")
	builds := 0
	for i := 0; i < 2; i++ {
		_, err := c.GetMeasurement(k, func() (*Cell, error) {
			builds++
			return nil, boom
		})
		if !errors.Is(err, boom) {
			t.Fatalf("fetch %d: err = %v, want the build error", i, err)
		}
	}
	if builds != 1 {
		t.Errorf("failed build ran %d times, want 1 (error shared)", builds)
	}
}
