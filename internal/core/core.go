// Package core is the Choreo orchestrator: it ties the measurement plane
// (packet trains over internal/packetsim), the profiling plane
// (internal/profile traffic matrices) and the placement engine
// (internal/place) together, and executes placements by actually
// transferring the profiled bytes on the internal/netsim fabric — the
// simulated equivalent of the paper's EC2 runs ("these experiments
// transfer real traffic on EC2; we do not merely calculate what the
// application completion time would have been", §6.1).
package core

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"choreo/internal/bottleneck"
	"choreo/internal/netsim"
	"choreo/internal/packetsim"
	"choreo/internal/place"
	"choreo/internal/probe"
	"choreo/internal/profile"
	"choreo/internal/topology"
	"choreo/internal/units"
)

// Algorithm selects a placement strategy.
type Algorithm int

// Placement algorithms compared in §6.
const (
	AlgChoreo Algorithm = iota
	AlgRandom
	AlgRoundRobin
	AlgMinMachines
	AlgOptimal
)

// String names the algorithm as the paper's figures do.
func (a Algorithm) String() string {
	switch a {
	case AlgChoreo:
		return "choreo"
	case AlgRandom:
		return "random"
	case AlgRoundRobin:
		return "round robin"
	case AlgMinMachines:
		return "min machines"
	case AlgOptimal:
		return "optimal"
	}
	return fmt.Sprintf("algorithm(%d)", int(a))
}

// algorithmNames is the one table of algorithm wire names: the service
// API, the sweep grid and the CLIs all resolve names through it. The
// first entry for an algorithm is its canonical name; the rest are
// accepted aliases. Unlike String, wire names never contain spaces.
var algorithmNames = []struct {
	name string
	alg  Algorithm
}{
	{"choreo", AlgChoreo},
	{"greedy", AlgChoreo},
	{"random", AlgRandom},
	{"round-robin", AlgRoundRobin},
	{"roundrobin", AlgRoundRobin},
	{"min-machines", AlgMinMachines},
	{"minmachines", AlgMinMachines},
	{"optimal", AlgOptimal},
}

// ParseAlgorithm resolves a wire name (canonical or alias).
func ParseAlgorithm(name string) (Algorithm, bool) {
	for _, e := range algorithmNames {
		if e.name == name {
			return e.alg, true
		}
	}
	return 0, false
}

// AlgorithmNames lists every algorithm's canonical wire name, in
// Algorithm order.
func AlgorithmNames() []string {
	var names []string
	for a := AlgChoreo; a <= AlgOptimal; a++ {
		names = append(names, a.Name())
	}
	return names
}

// Name is the algorithm's canonical wire name ("round-robin" where
// String says "round robin").
func (a Algorithm) Name() string {
	for _, e := range algorithmNames {
		if e.alg == a {
			return e.name
		}
	}
	return a.String()
}

// cpuPerVM is each VM's core count; the paper models four. The packet
// trains always run probe.DefaultEC2.
const cpuPerVM = 4

// Options configures an orchestrator.
type Options struct {
	// Model is the rate model for greedy/optimal placement.
	Model place.Model
}

// Choreo orchestrates measurement, placement and execution over one
// simulated network and a set of allocated VMs.
type Choreo struct {
	net    *netsim.Network
	medium *packetsim.Medium
	vms    []topology.VM
	rng    *rand.Rand
	opts   Options
	// remeasured holds RunSequence's re-measurements: each one overwrites
	// the last, which was dropped once placed against.
	remeasured place.Environment
}

// New builds an orchestrator. The rng drives measurement noise and the
// Random baseline.
func New(net *netsim.Network, vms []topology.VM, rng *rand.Rand, opts Options) (*Choreo, error) {
	c := &Choreo{net: net, rng: rng}
	if err := c.init(vms, opts); err != nil {
		return nil, err
	}
	c.medium = packetsim.NewMedium(net, rng)
	return c, nil
}

// init sets the orchestrated VMs and the options, defaults filled.
func (c *Choreo) init(vms []topology.VM, opts Options) error {
	if len(vms) < 2 {
		return fmt.Errorf("core: need at least 2 VMs, got %d", len(vms))
	}
	c.vms, c.opts = vms, opts
	return nil
}

// NewSimulated builds a simulated cloud and its orchestrator: the
// provider fabric from seed, vms tenant VMs allocated onto it, the flow
// simulator, and an orchestrator whose rng is seeded with seed+1, so the
// fabric and measurement streams never alias. The same arguments always
// yield a bit-identical cloud.
func NewSimulated(profile topology.Profile, seed int64, vms int, opts Options) (*Choreo, error) {
	cloud, err := NewCloud(profile, seed, vms)
	if err != nil {
		return nil, err
	}
	return NewOnCloud(cloud, seed, opts)
}

// NewCloud builds a simulated cloud without a simulator: the provider
// from seed with vms tenant VMs allocated and every route between them
// derived. The result is read-only, so one cloud can back any number of
// simulators (NewOnCloud, Execute), concurrently.
func NewCloud(profile topology.Profile, seed int64, vms int) (*topology.Provider, error) {
	prov, err := topology.NewProvider(profile, seed)
	if err != nil {
		return nil, err
	}
	if _, err := prov.AllocateVMs(vms); err != nil {
		return nil, fmt.Errorf("core: allocating %d VMs: %w", vms, err)
	}
	return prov, nil
}

// orchestrators holds released orchestrators for NewOnCloud and
// ExecuteOnCloud to reuse: each keeps its simulator, rng and
// measurement scratch, which a reuse resets and reseeds. sync.Pool hands
// an orchestrator to one goroutine at a time.
var orchestrators = sync.Pool{New: func() any {
	return &Choreo{net: new(netsim.Network), rng: rand.New(rand.NewSource(0)), medium: new(packetsim.Medium)}
}}

// NewOnCloud builds an orchestrator on a cloud from NewCloud(profile,
// seed, ...), its rng seeded with seed+1 as NewSimulated's is. The
// orchestrator is a released one when there is one: its simulator is
// Reset onto cloud, its rng reseeded (which replays the stream of a
// fresh source) and its measurement scratch rebound, so it measures,
// places and executes bit-identically to one built by New. Call
// Release when done with it. Orchestrators on one cloud share nothing
// mutable.
func NewOnCloud(cloud *topology.Provider, seed int64, opts Options) (*Choreo, error) {
	c := orchestrators.Get().(*Choreo)
	if err := c.init(cloud.VMs(), opts); err != nil {
		orchestrators.Put(c)
		return nil, err
	}
	c.net.Reset(cloud)
	c.rng.Seed(seed + 1)
	c.medium.Reset(c.net, c.rng)
	return c, nil
}

// Release hands an orchestrator from NewOnCloud back for a later
// NewOnCloud or ExecuteOnCloud to reuse. Neither c nor anything it
// handed out — its Network, that network's flows, a PairStates slice —
// may be used afterwards.
func (c *Choreo) Release() { orchestrators.Put(c) }

// Network exposes the underlying simulator.
func (c *Choreo) Network() *netsim.Network { return c.net }

// VMs returns the orchestrated VMs.
func (c *Choreo) VMs() []topology.VM { return c.vms }

// MeasureEnvironment builds the placement environment: the full-mesh rate
// matrix via packet trains (one train per ordered pair, §3.1) and the
// per-VM CPU capacity. It leaves HoseRates nil: placement derives each
// machine's hose rate from the matrix once per call. Path states for
// the whole mesh are snapshotted in one batched pass (uncontended pairs
// read cached capacities, contended ones share one what-if filling pass;
// see packetsim.PairStates), then the trains themselves run sequentially in
// pair order, so the measurement noise stream — and hence every measured
// rate — is bit-identical to the strictly sequential implementation.
func (c *Choreo) MeasureEnvironment() (*place.Environment, error) {
	env := new(place.Environment)
	if err := c.measureInto(env); err != nil {
		return nil, err
	}
	return env, nil
}

// measureInto is MeasureEnvironment into env, whose rate rows and CPU
// capacities are reused when they already have one entry per VM. It
// overwrites every entry, and leaves HoseRates and Cross as they are.
func (c *Choreo) measureInto(env *place.Environment) error {
	n := len(c.vms)
	if len(env.Rates) != n || len(env.CPUCap) != n {
		rates := make([]units.Rate, n*n)
		env.Rates = make([][]units.Rate, n)
		for i := range env.Rates {
			env.Rates[i] = rates[i*n : (i+1)*n : (i+1)*n]
		}
		env.CPUCap = make([]float64, n)
	}
	for i := range env.CPUCap {
		env.CPUCap[i] = cpuPerVM
	}
	// PairStates returns path states in exactly this loop's pair order
	// (sources outer, destinations inner), so the trains consume the
	// slice sequentially — no per-pair map lookup on the hot path.
	states, err := c.medium.PairStates(c.vms)
	if err != nil {
		return err
	}
	next := 0
	memBus := c.net.Provider().Profile.MemBusRate
	for i := range c.vms {
		env.Rates[i][i] = memBus
		for j := range c.vms {
			if i == j {
				continue
			}
			// Scratch variant: the observation is dead once the estimator
			// has read it, so the burst buffer is reused.
			obs, err := c.medium.RunTrainOnScratch(&states[next].State, probe.DefaultEC2())
			next++
			if err != nil {
				return err
			}
			est, err := obs.EstimateThroughput()
			if err != nil {
				return fmt.Errorf("core: estimate %d->%d: %w", i, j, err)
			}
			if est <= 0 {
				est = units.Mbps(1) // keep the environment valid
			}
			env.Rates[i][j] = est
		}
	}
	return nil
}

// DetectModel runs the §3.3 bottleneck survey on the first VMs and picks
// the placement rate model: hose if same-source connections interfere
// while disjoint ones do not.
func (c *Choreo) DetectModel() (place.Model, error) {
	if len(c.vms) < 4 {
		return place.Pipe, fmt.Errorf("core: model detection needs 4 VMs")
	}
	s, err := bottleneck.RunSurvey(c.net, c.vms[:4], 20, 0)
	if err != nil {
		return place.Pipe, err
	}
	if s.SameSourceFraction() > 0.8 && s.DisjointFraction() < 0.2 {
		return place.Hose, nil
	}
	return place.Pipe, nil
}

// Place runs the selected algorithm against a measured environment.
func (c *Choreo) Place(app *profile.Application, env *place.Environment, alg Algorithm) (place.Placement, error) {
	return PlaceWith(app, env, alg, c.opts.Model, c.rng)
}

// PlaceWith is the algorithm dispatcher behind Place, with the rate
// model and rng explicit — for callers (the sweep engine) that place
// against a measured environment without an orchestrator. rng drives
// only the Random baseline and may be nil for every other algorithm.
func PlaceWith(app *profile.Application, env *place.Environment, alg Algorithm, model place.Model, rng *rand.Rand) (place.Placement, error) {
	switch alg {
	case AlgChoreo:
		return place.Greedy(app, env, model)
	case AlgRandom:
		return place.Random(app, env, rng)
	case AlgRoundRobin:
		return place.RoundRobin(app, env)
	case AlgMinMachines:
		return place.MinMachines(app, env)
	case AlgOptimal:
		return place.Optimal(app, env, model, 0)
	}
	return place.Placement{}, fmt.Errorf("core: unknown algorithm %v", alg)
}

// Execute starts one flow per task-pair transfer under the placement and
// runs the simulator until the application's last byte drains. Transfers
// between tasks on the same VM cost no network time (the paper's
// "avoiding any network transmission time"). It returns the application's
// completion time (not counting measurement, matching §6.2).
func (c *Choreo) Execute(app *profile.Application, p place.Placement) (time.Duration, error) {
	return Execute(c.net, c.vms, app, p, nil)
}

// ExecuteOnCloud is Execute on a released orchestrator's simulator,
// Reset onto cloud: machine m of the placement is cloud.VMs()[m]. The
// orchestrator goes back for reuse once the application has drained.
func ExecuteOnCloud(cloud *topology.Provider, app *profile.Application, p place.Placement, transfers []profile.Transfer) (time.Duration, error) {
	c := orchestrators.Get().(*Choreo)
	defer orchestrators.Put(c)
	c.net.Reset(cloud)
	return Execute(c.net, cloud.VMs(), app, p, transfers)
}

// Execute is Choreo.Execute on a bare simulator: machine m of the
// placement is vms[m]. transfers is app.TM.Transfers(), passed by a
// caller that executes the application more than once; nil sorts it
// here. It draws no randomness, so executing needs no orchestrator or
// rng — only a simulator over the cloud.
func Execute(net *netsim.Network, vms []topology.VM, app *profile.Application, p place.Placement, transfers []profile.Transfer) (time.Duration, error) {
	if len(p.MachineOf) != app.Tasks() {
		return 0, fmt.Errorf("core: placement covers %d tasks, app has %d", len(p.MachineOf), app.Tasks())
	}
	if transfers == nil {
		transfers = app.TM.Transfers()
	}
	start := net.Now()
	outstanding := 0
	var lastFinish time.Duration
	finished := func(f *netsim.Flow) {
		outstanding--
		if f.Finished() > lastFinish {
			lastFinish = f.Finished()
		}
	}
	for _, tr := range transfers {
		srcVM := vms[p.MachineOf[tr.From]]
		dstVM := vms[p.MachineOf[tr.To]]
		if srcVM.ID == dstVM.ID {
			continue // intra-VM: no network transfer
		}
		outstanding++
		_, err := net.StartFlow(srcVM.ID, dstVM.ID, tr.Bytes, app.Name, finished)
		if err != nil {
			return 0, err
		}
	}
	if outstanding == 0 {
		return 0, nil
	}
	maxSim := net.Now() + 1000*time.Hour
	net.RunUntil(func() bool { return outstanding == 0 }, maxSim)
	if outstanding > 0 {
		return 0, fmt.Errorf("core: application %q did not finish within %v", app.Name, maxSim)
	}
	return lastFinish - start, nil
}

// RunOnce measures, places and executes a single (possibly combined)
// application, returning the completion time.
func (c *Choreo) RunOnce(app *profile.Application, alg Algorithm) (time.Duration, error) {
	env, err := c.MeasureEnvironment()
	if err != nil {
		return 0, err
	}
	p, err := c.Place(app, env, alg)
	if err != nil {
		return 0, err
	}
	return c.Execute(app, p)
}
