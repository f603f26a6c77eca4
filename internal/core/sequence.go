package core

import (
	"fmt"
	"sort"
	"time"

	"choreo/internal/netsim"
	"choreo/internal/place"
	"choreo/internal/profile"
	"choreo/internal/units"
)

// SequenceOptions configures the §6.3 in-sequence scenario.
type SequenceOptions struct {
	// Remeasure re-runs network measurement when each application
	// arrives, so Choreo sees the cross traffic of already-running
	// applications. The paper's Choreo always re-measures; disabling it
	// is an ablation.
	Remeasure bool
	// ReevaluateEvery, when positive, re-evaluates running applications'
	// placements every T (paper §2.4) and migrates when the predicted
	// completion improves by at least MigrationGain.
	ReevaluateEvery time.Duration
	// MigrationGain is the minimum predicted relative improvement to
	// justify a migration (default 0.2).
	MigrationGain float64
	// MigrationDelay pauses a migrated application's remaining transfers
	// (default 2s), modelling the cost of moving task state.
	MigrationDelay time.Duration
	// MaxMigrationsPerApp bounds how often one application may be moved;
	// together with the migration delay it guarantees sequences
	// terminate. 0 means the default of 3.
	MaxMigrationsPerApp int
	// StaticEnv, when non-nil, is used as the pre-sequence measurement
	// instead of measuring at the start of the run. The sweep engine
	// passes a mutable clone of a measurement taken
	// once per cell on the pristine cloud, so every algorithm of a cell
	// group starts from the identical environment without re-running the
	// packet trains.
	StaticEnv *place.Environment
}

// defaultMaxMigrationsPerApp is the migration cap applied when
// SequenceOptions.MaxMigrationsPerApp is zero.
const defaultMaxMigrationsPerApp = 3

// SequenceResult reports per-application running times. All per-app
// slices are indexed in arrival order (the order RunSequence plays the
// applications, sorted by Start).
type SequenceResult struct {
	PerApp []time.Duration
	// TotalRunning is the sum of per-application running times, the
	// paper's §6.3 comparison metric.
	TotalRunning time.Duration
	// Migrations counts migrations performed across the whole sequence.
	Migrations int
	// PerAppMigrations counts each application's own migrations;
	// Migrations is their sum.
	PerAppMigrations []int
	// MeasureLatency and PlaceLatency break down each application's
	// wall-clock placement cost on arrival: network re-measurement time
	// (zero when the arrival placed against the static environment) and
	// placement-algorithm time. Wall-clock values are real measurements,
	// hence nondeterministic; the sweep layer keeps them out of
	// byte-reproducible reports.
	MeasureLatency []time.Duration
	PlaceLatency   []time.Duration
}

// runningApp tracks one in-flight application.
type runningApp struct {
	idx         int
	app         *profile.Application
	placement   place.Placement
	flows       map[netsim.FlowID]*netsim.Flow
	outstanding int
	started     time.Duration
	finished    time.Duration
	done        bool
	paused      bool
	migrations  int
}

// RunSequence plays applications onto the network at their Start times,
// placing each with the given algorithm as it arrives (the entire
// sequence is not known up front, §6.3). It returns each application's
// running time.
func (c *Choreo) RunSequence(apps []*profile.Application, alg Algorithm, opts SequenceOptions) (SequenceResult, error) {
	if len(apps) == 0 {
		return SequenceResult{}, fmt.Errorf("core: empty sequence")
	}
	if opts.MigrationGain <= 0 {
		opts.MigrationGain = 0.2
	}
	if opts.MigrationDelay <= 0 {
		opts.MigrationDelay = 2 * time.Second
	}
	if opts.MaxMigrationsPerApp <= 0 {
		opts.MaxMigrationsPerApp = defaultMaxMigrationsPerApp
	}
	ordered := make([]*profile.Application, len(apps))
	copy(ordered, apps)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].Start < ordered[j].Start })

	res := SequenceResult{
		PerApp:           make([]time.Duration, len(ordered)),
		PerAppMigrations: make([]int, len(ordered)),
		MeasureLatency:   make([]time.Duration, len(ordered)),
		PlaceLatency:     make([]time.Duration, len(ordered)),
	}
	running := make([]*runningApp, len(ordered))
	remaining := len(ordered)
	var firstErr error

	// A measurement taken before any application runs; reused when
	// re-measurement is disabled. A caller-provided StaticEnv (the sweep
	// cell's measurement) stands in for it without spending the packet
	// trains.
	staticEnv := opts.StaticEnv
	if staticEnv == nil {
		env, err := c.MeasureEnvironment()
		if err != nil {
			return res, err
		}
		staticEnv = env
	}

	startApp := func(idx int) {
		app := ordered[idx]
		env := staticEnv
		if opts.Remeasure && alg == AlgChoreo {
			measureStart := time.Now()
			if e, err := c.MeasureEnvironment(); err == nil {
				env = e
			} else if firstErr == nil {
				firstErr = err
			}
			res.MeasureLatency[idx] = time.Since(measureStart)
		}
		placeStart := time.Now()
		p, err := c.Place(app, env, alg)
		res.PlaceLatency[idx] = time.Since(placeStart)
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("core: placing %q: %w", app.Name, err)
			}
			remaining--
			return
		}
		ra := &runningApp{
			idx:       idx,
			app:       app,
			placement: p,
			flows:     make(map[netsim.FlowID]*netsim.Flow),
			started:   c.net.Now(),
		}
		running[idx] = ra
		c.launchFlows(ra, app.TM, &remaining, &res)
		if ra.outstanding == 0 && !ra.done {
			ra.done = true
			ra.finished = c.net.Now()
			res.PerApp[idx] = 0
			remaining--
		}
	}

	for i := range ordered {
		idx := i
		c.net.Schedule(c.net.Now()+ordered[idx].Start, func() { startApp(idx) })
	}

	if opts.ReevaluateEvery > 0 && alg == AlgChoreo {
		c.net.ScheduleEvery(opts.ReevaluateEvery, func() bool {
			if remaining <= 0 {
				return false
			}
			c.reevaluate(running, opts, &res, &remaining)
			return true
		})
	}

	maxSim := c.net.Now() + 5000*time.Hour
	c.net.RunUntil(func() bool { return remaining <= 0 || firstErr != nil }, maxSim)
	if firstErr != nil {
		return res, firstErr
	}
	if remaining > 0 {
		return res, fmt.Errorf("core: sequence did not finish (%d apps left)", remaining)
	}
	for _, d := range res.PerApp {
		res.TotalRunning += d
	}
	for _, ra := range running {
		if ra != nil {
			res.PerAppMigrations[ra.idx] = ra.migrations
		}
	}
	return res, nil
}

// launchFlows starts the transfers of tm under ra's placement.
func (c *Choreo) launchFlows(ra *runningApp, tm *profile.TrafficMatrix, remaining *int, res *SequenceResult) {
	for _, tr := range tm.Transfers() {
		srcVM := c.vms[ra.placement.MachineOf[tr.From]]
		dstVM := c.vms[ra.placement.MachineOf[tr.To]]
		if srcVM.ID == dstVM.ID {
			continue
		}
		ra.outstanding++
		f, err := c.net.StartFlow(srcVM.ID, dstVM.ID, tr.Bytes, ra.app.Name, func(f *netsim.Flow) {
			delete(ra.flows, f.ID)
			ra.outstanding--
			if ra.outstanding == 0 && !ra.paused && !ra.done {
				ra.done = true
				ra.finished = c.net.Now()
				res.PerApp[ra.idx] = ra.finished - ra.started
				*remaining--
			}
		})
		if err != nil {
			ra.outstanding--
			continue
		}
		ra.flows[f.ID] = f
	}
}

// reevaluate applies §2.4: for each running application, re-measure, re-
// place its remaining bytes, and migrate if the predicted completion
// improves enough.
func (c *Choreo) reevaluate(running []*runningApp, opts SequenceOptions, res *SequenceResult, remaining *int) {
	env, err := c.MeasureEnvironment()
	if err != nil {
		return
	}
	for _, ra := range running {
		if ra == nil || ra.done || ra.paused || ra.outstanding == 0 || ra.migrations >= opts.MaxMigrationsPerApp {
			continue
		}
		// Remaining traffic matrix: bytes still in flight, attributed back
		// to task pairs proportionally to their share of the VM pair's
		// original demand (several tasks can share a VM pair).
		type pairKey [2]int
		remainingByPair := map[pairKey]units.ByteSize{}
		for _, f := range ra.flows {
			remainingByPair[pairKey{int(f.Src), int(f.Dst)}] += f.Remaining()
		}
		originalByPair := map[pairKey]units.ByteSize{}
		for _, tr := range ra.app.TM.Transfers() {
			src := c.vms[ra.placement.MachineOf[tr.From]].ID
			dst := c.vms[ra.placement.MachineOf[tr.To]].ID
			if src != dst {
				originalByPair[pairKey{int(src), int(dst)}] += tr.Bytes
			}
		}
		left := profile.NewTrafficMatrix(ra.app.Tasks())
		for _, tr := range ra.app.TM.Transfers() {
			src := c.vms[ra.placement.MachineOf[tr.From]].ID
			dst := c.vms[ra.placement.MachineOf[tr.To]].ID
			if src == dst {
				continue
			}
			key := pairKey{int(src), int(dst)}
			orig := originalByPair[key]
			rem := remainingByPair[key]
			if orig <= 0 || rem <= 0 {
				continue
			}
			frac := float64(rem) / float64(orig)
			if frac > 1 {
				frac = 1
			}
			if b := units.ByteSize(float64(tr.Bytes) * frac); b > 0 {
				_ = left.Add(tr.From, tr.To, b)
			}
		}
		if left.Total() == 0 {
			continue
		}
		leftApp := &profile.Application{Name: ra.app.Name + "-rem", CPU: ra.app.CPU, TM: left}
		newPlace, err := place.Greedy(leftApp, env, c.opts.Model)
		if err != nil {
			continue
		}
		curTime, err1 := place.CompletionTime(leftApp, env, ra.placement, c.opts.Model)
		newTime, err2 := place.CompletionTime(leftApp, env, newPlace, c.opts.Model)
		if err1 != nil || err2 != nil || curTime <= 0 {
			continue
		}
		gain := 1 - newTime.Seconds()/curTime.Seconds()
		if gain < opts.MigrationGain {
			continue
		}
		// Migrate: stop current flows, restart the remaining bytes under
		// the new placement after the migration delay. Flows stop in
		// sorted ID order: the simulator's active-flow list (and with it
		// the floating-point accumulation order of the max-min allocator)
		// must not depend on map iteration order, or byte-reproducible
		// sweeps would drift run to run.
		restart := leftApp.TM
		ids := make([]netsim.FlowID, 0, len(ra.flows))
		for id := range ra.flows {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, id := range ids {
			c.net.StopFlow(id)
			delete(ra.flows, id)
		}
		ra.outstanding = 0
		ra.paused = true
		ra.placement = newPlace
		ra.migrations++
		res.Migrations++
		c.net.Schedule(c.net.Now()+opts.MigrationDelay, func() {
			ra.paused = false
			c.launchFlows(ra, restart, remaining, res)
			if ra.outstanding == 0 && !ra.done {
				ra.done = true
				ra.finished = c.net.Now()
				res.PerApp[ra.idx] = ra.finished - ra.started
				*remaining--
			}
		})
	}
}
