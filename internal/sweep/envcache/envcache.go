// Package envcache memoizes built-and-measured scenario environments for
// the sweep engine. A sweep grid crosses every cell (topology × workload ×
// VM count × transfer size × seed) with N placement algorithms, and the
// exact-optimum reference visits the cell once more — but the cell's
// simulated cloud, its measured rate matrix and its generated application
// are a pure function of the cell's content key, not of the algorithm.
// Caching them turns N+1 expensive build-and-measure passes per cell into
// one, without touching the determinism guarantee: a cache hit returns
// bit-identical data to what a rebuild would produce, so reports are
// byte-identical with the cache on or off. On the sim backend the entry
// also holds the cell's pristine cloud: measurement ran on it, and every
// execution of the cell runs a fresh simulator over it, so no cell
// rebuilds its cloud — and the entry's eviction bounds the clouds alive
// to the in-flight working set.
//
// The cache is content-keyed (Key carries every input that shapes the
// cloud or the application), singleflight (concurrent workers asking for
// the same cell block on one build), and self-evicting (the caller
// declares how many times each cell will be used; the last use releases
// the entry, bounding memory to the in-flight working set on large
// streaming sweeps).
//
// The use declaration is an exact per-key count (NewPlanned), so partial
// runs — a shard holding only part of a cell group, or a resume that
// re-runs a subset of a cell's algorithms — neither leave entries pinned
// nor evict them before their last use.
package envcache

import (
	"sync"
	"sync/atomic"

	"choreo/internal/place"
	"choreo/internal/profile"
	"choreo/internal/topology"
)

// Key identifies one unique scenario environment: the deterministic cell
// seed plus every topology, allocation and workload parameter that shapes
// the built cloud or the placement problem. Two scenarios with equal keys
// share a bit-identical environment.
type Key struct {
	Topology  string
	Workload  string
	CloudSeed int64
	VMs       int
	MeanBytes int64
	MinTasks  int
	MaxTasks  int
	Apps      int
	// Interarrival and SeqApps identify a sequence-mode cell's arrival
	// process (mean inter-arrival in nanoseconds, applications per
	// sequence); both are zero for snapshot cells. The re-evaluation
	// period is deliberately absent: it changes only how a sequence is
	// run, not the built cloud or the generated arrivals, so cells
	// differing only in re-evaluation share one entry.
	Interarrival int64
	SeqApps      int
	// Backend and Epoch identify the measurement plane. Both are zero
	// values for the simulated backend, whose measurements are pure
	// functions of the key, so sim keys (and hence all pre-backend cache
	// behaviour) are unchanged. Live backends set Backend to their name
	// and Epoch to their mesh epoch: a real cloud drifts between
	// measurements, so entries from different epochs — or from sim and
	// live runs of the same coordinates — are never conflated.
	Backend string
	Epoch   int64
}

// MeasurementKey derives the key of the cell's cloud measurement — the
// expensive packet-train half of a cell build. Simulated sequence cells
// that differ only in their arrival process (interarrival, sequence
// length) have a bit-identical cloud, so the cloud and its measurement
// are shared by dropping those coordinates from the key. Live measurements are
// never shared across cells: the real cloud drifts, so the full cell
// key (epoch included) stays the measurement's identity.
func (k Key) MeasurementKey() Key {
	if k.Backend != "" {
		return k
	}
	k.Interarrival, k.SeqApps = 0, 0
	return k
}

// Cell is one built-and-measured scenario environment: the measured rate
// matrix, the cloud it was measured on (sim backend only), and the
// placement problem — a single application for snapshot cells, a
// Start-ordered arrival sequence for sequence cells. Env, Cloud and the
// applications are treated as immutable by snapshot consumers (placement
// algorithms read them; executions run fresh simulators over Cloud);
// sequence consumers re-measure mid-run, so they take a mutable CloneEnv
// instead of aliasing the shared entry. The exact-optimum reference
// completion is memoized here too, so the N algorithms of a cell group
// compute it once.
type Cell struct {
	Env *place.Environment
	// Cloud is the cell's pristine simulated cloud (nil on live
	// backends). Every route in it was derived when it was built, so it
	// is read-only and the cell group's executions share it.
	Cloud *topology.Provider
	App   *profile.Application
	// Seq holds a sequence cell's generated applications in arrival
	// order (nil for snapshot cells). Consumers must not mutate them.
	Seq []*profile.Application

	refOnce sync.Once
	refVal  float64
	refOK   bool
	refErr  error
}

// CloneEnv returns a deep copy of the cell's measured environment.
// Sequence cells re-measure under live cross traffic and must not share
// one Environment across the concurrently-running algorithms of a cell
// group, so the cache hands out mutable clones rather than the shared
// entry.
func (c *Cell) CloneEnv() *place.Environment {
	return c.Env.Clone()
}

// OptimalReference returns the memoized exact-optimum reference,
// computing it with compute on first call. compute's result must be a
// pure function of the cell (it is: the reference minimizes the predicted
// objective over Env and executes on a fresh simulator over Cloud),
// so whichever scenario gets here first stores what every other scenario
// would have computed.
func (c *Cell) OptimalReference(compute func() (float64, bool, error)) (float64, bool, error) {
	c.refOnce.Do(func() {
		c.refVal, c.refOK, c.refErr = compute()
	})
	return c.refVal, c.refOK, c.refErr
}

// Stats counts cache traffic. Misses is the number of cells actually
// built; a sweep over U unique cells with S scenarios proves the sharing
// worked when Misses == U and Hits == S - U. Resident is the number of
// entries still cached when the snapshot was taken: a finished run must
// report zero, so a non-zero value means the use plan over-counted and
// pinned memory. The Measurement counters track
// the measurement sub-layer (GetMeasurement): MeasurementMisses is the
// number of clouds actually measured, and a sequence sweep whose cells
// differ only in arrival process proves the sharing worked when it is
// smaller than the cell-level Misses.
type Stats struct {
	Hits     int64 `json:"hits"`
	Misses   int64 `json:"misses"`
	Resident int   `json:"resident"`

	MeasurementHits     int64 `json:"measurementHits,omitempty"`
	MeasurementMisses   int64 `json:"measurementMisses,omitempty"`
	MeasurementResident int   `json:"measurementResident,omitempty"`

	// Evictions counts entries released by their last planned fetch.
	// Excluded from JSON on purpose: Stats is serialized into sweep
	// reports, whose bytes are pinned by goldens — these counters feed
	// the obs registry only.
	Evictions            int64 `json:"-"`
	MeasurementEvictions int64 `json:"-"`
}

// entry is one cached cell with its build-once latch and remaining-use
// count.
type entry struct {
	once      sync.Once
	cell      *Cell
	err       error
	remaining int
}

// Cache is a concurrency-safe, content-keyed cell cache.
type Cache struct {
	mu      sync.Mutex
	entries map[Key]*entry
	planned map[Key]int
	hits    atomic.Int64
	misses  atomic.Int64

	// Measurement sub-layer: the per-cloud measurement half of a cell
	// build, shared across cell keys whose MeasurementKey agrees (see
	// Key.MeasurementKey). Populated only when PlanMeasurements declared
	// a plan; unplanned measurement keys build on every fetch.
	measEntries map[Key]*entry
	measPlanned map[Key]int
	measHits    atomic.Int64
	measMisses  atomic.Int64

	evictions     atomic.Int64
	measEvictions atomic.Int64
}

// NewPlanned returns a cache with an exact per-key use plan: key k will
// be fetched uses[k] times, and its k-th fetch evicts the entry. Keys
// outside the plan are built on every fetch and never cached (each such
// fetch counts as a miss). This is the accounting a partial run needs —
// a shard or resume whose scenario subset touches some cells fewer
// times than the full grid would must neither pin those entries forever
// nor evict them early.
func NewPlanned(uses map[Key]int) *Cache {
	planned := make(map[Key]int, len(uses))
	for k, n := range uses {
		planned[k] = n
	}
	return &Cache{entries: make(map[Key]*entry), planned: planned}
}

// Get returns the cell for key, building it with build on first request.
// Concurrent Gets for the same key share a single build; errors are
// shared with every waiter. A nil *Cache is valid and simply builds every
// time (the cache-disabled path), counting nothing.
func (c *Cache) Get(key Key, build func() (*Cell, error)) (*Cell, error) {
	if c == nil {
		return build()
	}
	c.mu.Lock()
	e, ok := c.entries[key]
	if !ok {
		e = &entry{remaining: c.planned[key]}
		c.entries[key] = e
		c.misses.Add(1)
	} else {
		c.hits.Add(1)
	}
	e.remaining--
	if e.remaining <= 0 {
		delete(c.entries, key)
		c.evictions.Add(1)
	}
	c.mu.Unlock()

	e.once.Do(func() {
		e.cell, e.err = build()
	})
	return e.cell, e.err
}

// PlanMeasurements declares the measurement sub-layer's per-key use
// plan: measurement key k will be fetched uses[k] times (once per
// distinct cell key sharing it that this run actually builds), and its
// last fetch evicts the entry. Call before the first GetMeasurement;
// with no plan, every fetch builds. Safe (a no-op) on a nil cache.
func (c *Cache) PlanMeasurements(uses map[Key]int) {
	if c == nil || len(uses) == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.measEntries = make(map[Key]*entry)
	c.measPlanned = make(map[Key]int, len(uses))
	for k, n := range uses {
		c.measPlanned[k] = n
	}
}

// GetMeasurement returns the cloud measurement for key (derive it with
// Key.MeasurementKey): a Cell carrying Env and, on the sim backend, the
// Cloud it was measured on. It builds it with build on first request.
// Cell builders call it from inside their Get build function, so the N
// cell keys sharing one measurement key build and measure the cloud
// exactly once. Consumers must treat the returned environment and cloud
// as immutable — mutating runs take a Clone (see Cell.CloneEnv). A nil
// *Cache, or a cache with no measurement plan for key, builds every time.
func (c *Cache) GetMeasurement(key Key, build func() (*Cell, error)) (*Cell, error) {
	if c == nil {
		return build()
	}
	c.mu.Lock()
	if c.measPlanned[key] == 0 {
		c.mu.Unlock()
		c.measMisses.Add(1)
		return build()
	}
	e, ok := c.measEntries[key]
	if !ok {
		e = &entry{remaining: c.measPlanned[key]}
		c.measEntries[key] = e
		c.measMisses.Add(1)
	} else {
		c.measHits.Add(1)
	}
	e.remaining--
	if e.remaining <= 0 {
		delete(c.measEntries, key)
		c.measEvictions.Add(1)
	}
	c.mu.Unlock()

	e.once.Do(func() {
		e.cell, e.err = build()
	})
	return e.cell, e.err
}

// Stats returns the cumulative hit/miss counters (they survive eviction)
// plus a snapshot of the resident entry counts, for both the cell layer
// and the measurement sub-layer. Safe on a nil cache, which reports
// zeros.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	measResident := len(c.measEntries)
	c.mu.Unlock()
	return Stats{
		Hits: c.hits.Load(), Misses: c.misses.Load(), Resident: c.Len(),
		MeasurementHits:      c.measHits.Load(),
		MeasurementMisses:    c.measMisses.Load(),
		MeasurementResident:  measResident,
		Evictions:            c.evictions.Load(),
		MeasurementEvictions: c.measEvictions.Load(),
	}
}

// Len reports the number of currently resident entries (for tests: with
// eviction on, a finished sweep should leave zero).
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
