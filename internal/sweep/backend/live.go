package backend

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"choreo/internal/cluster"
	"choreo/internal/obs"
	"choreo/internal/place"
	"choreo/internal/probe"
	"choreo/internal/profile"
	"choreo/internal/units"
)

// LiveConfig parameterizes a live measurement backend.
type LiveConfig struct {
	// Agents holds the choreo-agent control addresses (host:port), one
	// per real VM. Every cell's VM count must fit in this fleet.
	Agents []string
	// Timeout bounds each control-protocol operation (default 30s).
	Timeout time.Duration
	// Train parameterizes the packet trains (zero value: probe.DefaultEC2).
	Train probe.Config
	// CPUPerVM is each VM's core count in the assembled environment
	// (default 4, the paper's model).
	CPUPerVM float64
	// MemBus is the intra-machine rate on the environment's diagonal
	// (default 4 Gbit/s; the paper models it as effectively infinite).
	MemBus units.Rate
	// Epoch tags this backend's measurement epoch (default 1). Sweep
	// cell keys carry it, so measurements from different epochs — the
	// mesh drifts between sweeps — are never conflated.
	Epoch int64
	// Obs, when non-nil, instruments every mesh the backend runs:
	// per-pair/RTT histograms and per-agent failure counters in its
	// registry, mesh/pair spans in its tracer. Executed placements add
	// exec.placement/exec.transfer spans and per-pair rate-error gauges.
	Obs *obs.Observer
	// Execute switches Execute from reporting the predicted
	// completion-time objective to running the placement's inter-machine
	// flows as real byte-bounded bulk transfers over the fleet and
	// reporting the measured wall clock next to the prediction.
	Execute bool
}

// Live measures cells against a real choreo-agent fleet: each cell's VM
// slots map onto a seed-deterministic subset of the agents, a
// cluster.Coordinator runs the full-mesh packet trains and RTT probes
// over real sockets, and the observed rate matrix becomes the placement
// environment. Execution reports the paper's predicted completion-time
// objective on that measured environment: unlike the simulator, a live
// cloud offers no replayable ground truth, and the prediction is exactly
// what Choreo's placement minimizes.
type Live struct {
	cfg LiveConfig
	// fleet serializes traffic per agent, not per backend: the sweep
	// worker pool builds cells concurrently, but overlapping packet
	// trains (or executed bulk flows) through the same agent NICs would
	// see each other as cross traffic and corrupt both observations.
	// Within a mesh, cluster.MeasureMesh runs only trains that share no
	// agent at once; the address-set lock keeps that true across cells
	// while letting cells whose agent subsets are disjoint measure and
	// execute concurrently. Both rest on the paper's finding that tenant
	// bottlenecks sit at the VM endpoints (the hose model); on a
	// pipe-model fabric, disjoint trains can still share a core link.
	fleet fleetLock
	// acc records per-pair rate-error gauges for executed flows into the
	// observer's registry (nil-safe when uninstrumented).
	acc *obs.Accuracy
}

// NewLive validates the fleet and returns a live backend.
func NewLive(cfg LiveConfig) (*Live, error) {
	if len(cfg.Agents) < 2 {
		return nil, fmt.Errorf("backend: live measurement needs at least 2 agents, got %d", len(cfg.Agents))
	}
	seen := make(map[string]bool, len(cfg.Agents))
	for _, a := range cfg.Agents {
		if a == "" {
			return nil, fmt.Errorf("backend: empty agent address")
		}
		if seen[a] {
			return nil, fmt.Errorf("backend: duplicate agent address %q", a)
		}
		seen[a] = true
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 30 * time.Second
	}
	if cfg.Train.Bursts == 0 {
		cfg.Train = probe.DefaultEC2()
	}
	if err := cfg.Train.Validate(); err != nil {
		return nil, err
	}
	if cfg.CPUPerVM <= 0 {
		cfg.CPUPerVM = 4
	}
	if cfg.MemBus <= 0 {
		cfg.MemBus = units.Gbps(4)
	}
	if cfg.Epoch == 0 {
		cfg.Epoch = 1
	}
	l := &Live{cfg: cfg, acc: obs.NewAccuracy(cfg.Obs.Registry())}
	l.cfg.Agents = append([]string(nil), cfg.Agents...)
	l.fleet.init()
	return l, nil
}

// Name identifies the backend.
func (l *Live) Name() string { return "live" }

// MeshEpoch reports the configured measurement epoch (never 0).
func (l *Live) MeshEpoch() int64 { return l.cfg.Epoch }

// CheckCapacity verifies the fleet has one agent per VM slot.
func (l *Live) CheckCapacity(ctx context.Context, maxVMs int) error {
	if maxVMs > len(l.cfg.Agents) {
		return fmt.Errorf("backend: grid sweeps up to %d VMs but only %d agents are configured (-agents)",
			maxVMs, len(l.cfg.Agents))
	}
	return nil
}

// slots maps the cell's VM slots onto agent addresses: a seed-
// deterministic permutation of the fleet, truncated to the cell's
// allocation size, so seed sweeps sample different VM subsets the way
// re-allocating tenant VMs would.
func (l *Live) slots(c Cell) ([]string, error) {
	if c.VMs > len(l.cfg.Agents) {
		return nil, fmt.Errorf("backend: cell %s needs %d VMs but only %d agents are configured",
			c.Topology, c.VMs, len(l.cfg.Agents))
	}
	perm := rand.New(rand.NewSource(c.Seed)).Perm(len(l.cfg.Agents))
	addrs := make([]string, c.VMs)
	for i := range addrs {
		addrs[i] = l.cfg.Agents[perm[i]]
	}
	return addrs, nil
}

// Measure runs the full-mesh measurement — one packet train plus RTT
// probe per ordered agent pair — and assembles the placement
// environment from the observed rates.
func (l *Live) Measure(ctx context.Context, c Cell) (*place.Environment, error) {
	addrs, err := l.slots(c)
	if err != nil {
		return nil, err
	}
	coord := cluster.NewCoordinator(addrs, l.cfg.Timeout).Instrument(l.cfg.Obs)
	l.fleet.acquire(addrs)
	mesh, err := coord.MeasureMesh(ctx, l.cfg.Train)
	l.fleet.release(addrs)
	if err != nil {
		return nil, fmt.Errorf("backend: live mesh for cell %s/%d VMs seed %d: %w", c.Topology, c.VMs, c.Seed, err)
	}
	n := len(addrs)
	env := &place.Environment{
		Rates:  make([][]units.Rate, n),
		CPUCap: make([]float64, n),
	}
	for i := range env.Rates {
		env.Rates[i] = make([]units.Rate, n)
		env.CPUCap[i] = l.cfg.CPUPerVM
		for j := range env.Rates[i] {
			if i == j {
				env.Rates[i][i] = l.cfg.MemBus
				continue
			}
			est := mesh.Rates[i][j]
			if est <= 0 {
				est = units.Mbps(1) // keep the environment valid
			}
			env.Rates[i][j] = est
		}
	}
	return env, nil
}

// Executes reports whether this backend runs placements as real
// transfers (LiveConfig.Execute).
func (l *Live) Executes() bool { return l.cfg.Execute }

// Execute evaluates the placement against the live measurement. By
// default it returns the predicted completion time of app under p on
// env — the Appendix objective the greedy algorithm and the exact
// optimum both minimize. With LiveConfig.Execute set it then runs the
// placement's inter-machine flows as concurrent byte-bounded bulk
// transfers over the cell's agent subset and reports the measured wall
// clock next to that prediction.
func (l *Live) Execute(ctx context.Context, c Cell, app *profile.Application, env *place.Environment, p place.Placement, model place.Model) (Execution, error) {
	predicted, err := place.CompletionTime(app, env, p, model)
	if err != nil {
		return Execution{}, err
	}
	if !l.cfg.Execute {
		return Execution{Completion: predicted}, nil
	}
	return l.executePlacement(ctx, c, app, env, p, predicted)
}
