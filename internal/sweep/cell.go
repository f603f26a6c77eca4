package sweep

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"choreo/internal/core"
	"choreo/internal/obs"
	"choreo/internal/place"
	"choreo/internal/profile"
	"choreo/internal/sweep/backend"
	"choreo/internal/sweep/sequence"
	"choreo/internal/topology"
	"choreo/internal/workload"
)

// CellKey identifies one cell: the deterministic cell seed plus every
// topology, allocation and workload parameter that shapes the built
// cloud or the placement problem. Scenarios with equal keys run on a
// bit-identical cloud, measurement and application; they differ only in
// algorithm (and, for sequence cells, re-evaluation period).
type CellKey struct {
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
	// run, not the built cloud or the generated arrivals.
	Interarrival int64
	SeqApps      int
	// Backend and Epoch identify the measurement plane. Both are zero
	// values for the simulated backend, whose measurements are pure
	// functions of the key. Live backends set Backend to their name and
	// Epoch to their mesh epoch: a real cloud drifts between
	// measurements, so cells from different epochs — or from sim and
	// live runs of the same coordinates — never share one.
	Backend string
	Epoch   int64
}

// MeasurementKey derives the key of the cell's measured cloud, which is
// the key RunStream groups scenarios by. Simulated sequence cells that
// differ only in their arrival process (interarrival, sequence length)
// have a bit-identical cloud, so those coordinates are dropped. Live
// measurements are never shared across cells: the real cloud drifts, so
// the full cell key (epoch included) stays the measurement's identity.
func (k CellKey) MeasurementKey() CellKey {
	if k.Backend != "" {
		return k
	}
	k.Interarrival, k.SeqApps = 0, 0
	return k
}

// CacheStats counts how a run shared what its cell groups built. Misses
// is the number of cells built and Hits the scenarios that ran on a cell
// their group had already built, so a run of S scenarios over U cells
// reports Misses == U and Hits == S - U. MeasurementMisses is the number
// of clouds measured (one per cell group) and MeasurementHits the cells
// built on a cloud their group had already measured: sequence cells
// that differ only in arrival process.
type CacheStats struct {
	Hits              int64
	Misses            int64
	MeasurementHits   int64
	MeasurementMisses int64
}

func (s *CacheStats) add(o CacheStats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.MeasurementHits += o.MeasurementHits
	s.MeasurementMisses += o.MeasurementMisses
}

// cell is one built cell: the measured cloud its group shares and the
// cell key's placement problem — a single application for snapshot
// cells, a Start-ordered arrival sequence for sequence cells. A cell is
// complete before any of its scenarios runs, and from then on it is
// read-only, so a group's scenarios run on it concurrently: placement
// algorithms read it, executions run fresh simulators over cloud, and
// sequence runs take a clone of env because they re-measure mid-run.
type cell struct {
	env *place.Environment
	// cloud is the group's pristine simulated cloud (nil on live
	// backends). Every route in it was derived when it was built, so it
	// is read-only and the group's executions share it.
	cloud *topology.Provider
	app   *profile.Application
	seq   []*profile.Application

	// hasRef reports whether the snapshot cell carries its exact-optimum
	// reference ref (see Grid.computeReference): buildGroup computes it
	// when one of the cell's scenarios needs it and the search finishes.
	hasRef bool
	ref    float64
}

// buildGroup builds a cell group's cells: the cloud and its measurement
// once, each distinct cell key's application or arrival sequence once,
// and each snapshot cell's optimal reference once if a scenario needs
// it. cells[j] is scs[j]'s cell, and counts the group's CacheStats. scs
// must be in expansion order, in which cell keys are contiguous.
func (g *Grid) buildGroup(ctx context.Context, scs []Scenario, ro *runObs) (cells []*cell, counts CacheStats, err error) {
	cells = make([]*cell, len(scs))
	var c *cell
	var key CellKey
	refTried := false
	for j, sc := range scs {
		if k := g.CellKey(sc); c != nil && k == key {
			counts.Hits++
		} else {
			prev := c
			if c, err = g.buildCell(ctx, sc, prev, ro); err != nil {
				return nil, CacheStats{}, err
			}
			key, refTried = k, false
			counts.Misses++
			if prev == nil {
				counts.MeasurementMisses++
			} else {
				counts.MeasurementHits++
			}
		}
		cells[j] = c
		// A snapshot cell small enough for the exact search carries the
		// reference, unless its only scenarios run the optimum itself.
		if !refTried && g.Mode != Sequence && g.OptimalMaxTasks > 0 && c.app.Tasks() <= g.OptimalMaxTasks &&
			(sc.Algorithm.Core != core.AlgOptimal || sc.Algorithm.ILP) {
			if c.ref, c.hasRef, err = g.computeReference(ctx, sc, c); err != nil {
				return nil, CacheStats{}, err
			}
			refTried = true
		}
	}
	return cells, counts, nil
}

// buildCell builds sc's cell: its application, or arrival sequence in
// sequence mode, on the group's measured cloud. prev is the group's
// previous cell, whose cloud and measurement the new cell shares; for a
// group's first cell (prev nil) the cloud is built and measured. The
// build and measure spans parent under the span stashed in ctx (the
// run span); a live backend's cluster.mesh span parents under the
// measure span the same way.
func (g *Grid) buildCell(ctx context.Context, sc Scenario, prev *cell, ro *runObs) (c *cell, err error) {
	buildStart := time.Now()
	bspan := ro.o.StartSpan(obs.SpanFromContext(ctx), "sweep.build")
	defer func() {
		if err != nil {
			bspan.End(obs.String("outcome", "error"))
			return
		}
		bspan.End(obs.String("outcome", "ok"))
		ro.phase("build", buildStart)
	}()
	c = &cell{}
	if g.Mode == Sequence {
		c.seq, err = g.buildSequence(sc)
	} else {
		c.app, err = g.buildApplication(sc, sc.cloudSeed())
	}
	if err != nil {
		return nil, err
	}
	if prev != nil {
		c.env, c.cloud = prev.env, prev.cloud
		return c, nil
	}
	// Build the cloud on the sim backend (a live backend's cloud is the
	// real mesh) and measure it through the backend.
	measureStart := time.Now()
	mspan := ro.o.StartSpan(bspan, "sweep.measure")
	if mspan.ID() != 0 {
		ctx = obs.ContextWithSpan(ctx, mspan)
	}
	if _, sim := g.backend().(*backend.Sim); sim {
		c.cloud, err = core.NewCloud(sc.Topology.Profile, sc.cloudSeed(), sc.VMs)
	}
	if err == nil {
		c.env, err = g.backend().Measure(ctx, g.backendCell(sc, c.cloud))
	}
	if err != nil {
		mspan.End(obs.String("outcome", "error"))
		return nil, fmt.Errorf("sweep: measuring %s: %w", sc.Topology.Name, err)
	}
	mspan.End(obs.String("outcome", "ok"))
	ro.phase("measure", measureStart)
	return c, nil
}

// buildSequence draws a sequence cell's arrival sequence. Cells that
// differ only in interarrival or sequence length share a cloud
// (cloudSeed excludes those coordinates) but draw their own arrivals.
func (g *Grid) buildSequence(sc Scenario) ([]*profile.Application, error) {
	cfg := workload.Config{
		MinTasks:  g.MinTasks,
		MaxTasks:  g.MaxTasks,
		MeanBytes: sc.MeanBytes,
		Patterns:  sc.Workload.Patterns,
	}
	// Same rng offset as the snapshot generator, so the workload stream
	// never aliases the cloud stream.
	rng := rand.New(rand.NewSource(sc.cloudSeed() + 2))
	seq, err := sequence.Generate(rng, cfg, g.sequenceParams(sc))
	if err != nil {
		return nil, fmt.Errorf("sweep: generating %s sequence: %w", sc.Workload.Name, err)
	}
	return seq, nil
}
