// Package sweep expands a declarative grid of placement scenarios —
// topology × workload × algorithm × seed — and runs every cell across a
// worker pool, aggregating completion time, slowdown versus the exact
// optimum and placement latency into deterministic JSON/CSV reports.
//
// Determinism is the load-bearing property: every scenario derives all of
// its randomness from the grid seed and the cell's coordinates, runs in
// isolation on its own simulated cloud, and lands in the report at its
// expansion index. The same grid therefore produces byte-identical JSON
// whether it runs on one worker or on GOMAXPROCS workers.
package sweep

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"choreo/internal/core"
	"choreo/internal/place"
	"choreo/internal/sweep/backend"
	"choreo/internal/topology"
	"choreo/internal/units"
	"choreo/internal/workload"
)

// Mode selects what one grid cell runs.
type Mode int

const (
	// Snapshot cells (the zero value) run one static placement problem
	// per cell — the §6.2 experiments PRs 1–3 built.
	Snapshot Mode = iota
	// Sequence cells run the §6.3 in-sequence experiment: applications
	// arrive over time on one shared cloud, each is placed as it
	// arrives, and placements are periodically re-evaluated and
	// migrated. Sequence grids sweep three extra dimensions —
	// interarrival, sequence length and re-evaluation period.
	Sequence
)

// String names the mode as grid echoes and the CLI spell it.
func (m Mode) String() string {
	switch m {
	case Snapshot:
		return "snapshot"
	case Sequence:
		return "sequence"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// Topology is one named provider profile in the grid.
type Topology struct {
	Name    string
	Profile topology.Profile
}

// TopologyNames lists the profiles TopologyByName accepts. fattree-K and
// jellyfish-N generalize: any even K >= 2 and any N >= 2 parse.
func TopologyNames() []string {
	return []string{"ec2-2013", "ec2-2012", "rackspace", "private", "dumbbell", "tworack",
		"fattree-4", "jellyfish-12"}
}

// jellyfishPorts and jellyfishSeed fix the per-switch port budget and the
// fabric wiring seed for the jellyfish-N grid profiles, so a name like
// "jellyfish-12" denotes one reproducible cloud.
const (
	jellyfishPorts = 6
	jellyfishSeed  = 7
)

// TopologyByName resolves a provider profile: the paper's measured
// VM-pair clouds (ec2-2013, ec2-2012, rackspace, private), the ns-2 tree
// fabrics (dumbbell, tworack), and the cluster-scheduling fabrics
// fattree-K (k-ary fat tree, even K) and jellyfish-N (N-switch random
// regular graph). Each call hands out a profile with its own shared
// fabric (topology.Profile.SharedFabric): every cell of the grid
// topology it resolves builds its cloud on one fabric, built once.
func TopologyByName(name string) (Topology, error) {
	tp, err := topologyByName(name)
	if err != nil {
		return Topology{}, err
	}
	tp.Profile = tp.Profile.SharedFabric()
	return tp, nil
}

func topologyByName(name string) (Topology, error) {
	switch name {
	case "ec2-2013", "ec2":
		return Topology{Name: "ec2-2013", Profile: topology.EC22013()}, nil
	case "ec2-2012":
		return Topology{Name: "ec2-2012", Profile: topology.EC22012(0)}, nil
	case "rackspace":
		return Topology{Name: "rackspace", Profile: topology.Rackspace()}, nil
	case "private":
		return Topology{Name: "private", Profile: topology.PrivateCloud()}, nil
	case "dumbbell":
		return Topology{Name: "dumbbell", Profile: topology.Dumbbell(8, units.Gbps(1), units.Gbps(1))}, nil
	case "tworack":
		return Topology{Name: "tworack", Profile: topology.TwoRack(8, units.Gbps(1), units.Gbps(10))}, nil
	case "fattree":
		return topologyByName("fattree-4")
	case "jellyfish":
		return topologyByName("jellyfish-12")
	}
	if k, ok := nameParam(name, "fattree-"); ok {
		if k < 2 || k%2 != 0 {
			return Topology{}, fmt.Errorf("sweep: fat tree needs an even k >= 2, got %q", name)
		}
		return Topology{Name: fmt.Sprintf("fattree-%d", k), Profile: topology.FatTree(k)}, nil
	}
	if n, ok := nameParam(name, "jellyfish-"); ok {
		// The fixed port budget dedicates jellyfishPorts/2 ports per
		// switch to peer links, and a random regular graph needs more
		// switches than its degree.
		if minSwitches := (jellyfishPorts+1)/2 + 1; n < minSwitches {
			return Topology{}, fmt.Errorf("sweep: jellyfish needs >= %d switches, got %q", minSwitches, name)
		}
		return Topology{Name: fmt.Sprintf("jellyfish-%d", n), Profile: topology.Jellyfish(n, jellyfishPorts, jellyfishSeed)}, nil
	}
	return Topology{}, fmt.Errorf("sweep: unknown topology %q (valid: %s)",
		name, strings.Join(TopologyNames(), ", "))
}

// nameParam parses the integer suffix of a parameterized profile name.
func nameParam(name, prefix string) (int, bool) {
	if !strings.HasPrefix(name, prefix) {
		return 0, false
	}
	v, err := strconv.Atoi(name[len(prefix):])
	if err != nil {
		return 0, false
	}
	return v, true
}

// Workload is one named application source in the grid: either a
// generator restricted to a communication pattern, or a recorded trace.
type Workload struct {
	Name string
	// Patterns restricts the generator; empty means the full mix.
	Patterns []workload.Pattern
	// Trace, when non-nil, replays recorded applications instead of
	// generating them.
	Trace *workload.Trace
}

// WorkloadNames lists the generator presets WorkloadByName accepts.
func WorkloadNames() []string { return workload.PresetNames() }

// WorkloadByName resolves a generator preset: "mixed" draws from every
// pattern, the others pin one communication shape.
func WorkloadByName(name string) (Workload, error) {
	patterns, ok := workload.PresetPatterns(name)
	if !ok {
		return Workload{}, fmt.Errorf("sweep: unknown workload %q (valid: %s, or a trace)",
			name, strings.Join(WorkloadNames(), ", "))
	}
	return Workload{Name: name, Patterns: patterns}, nil
}

// TraceWorkload wraps a recorded trace as a grid workload.
func TraceWorkload(tr *workload.Trace) Workload {
	name := tr.Name
	if name == "" {
		name = "trace"
	}
	return Workload{Name: "trace:" + name, Trace: tr}
}

// Algorithm is one placement policy in the grid.
type Algorithm struct {
	Name string
	// Core is the orchestrator algorithm; ignored when ILP is set.
	Core core.Algorithm
	// ILP selects the paper's Appendix integer program instead of a
	// core algorithm.
	ILP bool
}

// AlgorithmNames lists the policies AlgorithmByName accepts: the core
// algorithms' canonical names plus the Appendix ILP.
func AlgorithmNames() []string {
	return append(core.AlgorithmNames(), "ilp")
}

// AlgorithmByName resolves a placement policy: any core algorithm name
// or alias, or "ilp".
func AlgorithmByName(name string) (Algorithm, error) {
	if name == "ilp" {
		return Algorithm{Name: "ilp", ILP: true}, nil
	}
	if alg, ok := core.ParseAlgorithm(name); ok {
		return Algorithm{Name: alg.Name(), Core: alg}, nil
	}
	return Algorithm{}, fmt.Errorf("sweep: unknown algorithm %q (valid: %s)",
		name, strings.Join(AlgorithmNames(), ", "))
}

// Grid declares a sweep: the cross product of every dimension plus the
// per-scenario knobs shared by all cells.
type Grid struct {
	// Mode selects snapshot cells (single static placements, the zero
	// value) or sequence cells (§6.3 in-sequence arrival/migration
	// experiments). Sequence grids cross the three sequence dimensions
	// below; snapshot grids must leave them empty.
	Mode       Mode
	Topologies []Topology
	Workloads  []Workload
	Algorithms []Algorithm
	// Seeds holds the grid seeds; each contributes one full cross
	// product of scenarios.
	Seeds []int64
	// VMCounts sweeps the tenant allocation size; empty means one entry,
	// the scalar VMs knob.
	VMCounts []int
	// MeanSizes sweeps the mean generated transfer size; empty means one
	// entry, the scalar MeanBytes knob. Trace workloads replay recorded
	// transfers, so they do not cross this dimension: each trace
	// contributes one cell per VM count and seed, reported with
	// meanBytes 0.
	MeanSizes []units.ByteSize
	// Interarrivals sweeps the mean of the Poisson arrival process
	// (sequence mode only; empty defaults to one 30s entry).
	Interarrivals []time.Duration
	// SeqApps sweeps the sequence length: how many applications arrive
	// in one cell (sequence mode only; empty defaults to one entry, 8).
	SeqApps []int
	// Reevals sweeps the §2.4 re-evaluation period; a 0 entry disables
	// re-evaluation and migration for that cell (sequence mode only;
	// empty defaults to the single entry 0). Cells differing only in
	// re-evaluation share one built-and-measured environment — the
	// period changes how a sequence runs, not the cloud or the arrivals.
	Reevals []time.Duration

	// VMs is the tenant allocation per scenario (default 8) when
	// VMCounts does not sweep it.
	VMs int
	// Apps is how many applications are combined into one placement
	// problem per scenario. 0 means the default: one generated
	// application, or the whole trace for trace workloads.
	Apps int
	// MinTasks/MaxTasks bound generated application sizes
	// (defaults 4 and 6, small enough for the exact optimum).
	MinTasks, MaxTasks int
	// MeanBytes scales generated transfers (default 200 MB) when
	// MeanSizes does not sweep it.
	MeanBytes units.ByteSize
	// Model is the rate model for greedy/optimal placement. The zero
	// value is the pipe model; Default() and `choreo sweep` use hose.
	Model place.Model
	// MigrationGain is the minimum predicted relative improvement to
	// migrate a running application (sequence mode; default 0.2).
	MigrationGain float64
	// MaxMigrations caps migrations per application (sequence mode;
	// default 3).
	MaxMigrations int

	// Backend selects the measurement plane: nil (or backend.NewSim())
	// measures and executes cells on the deterministic netsim cloud;
	// backend.NewLive measures real choreo-agent meshes and evaluates
	// placements by their predicted completion time on the observed
	// rates. Live grids are snapshot-only and their reports carry the
	// backend name in the grid echo, so sim and live runs of the same
	// grid diff cleanly but can never be merged or resumed into each
	// other.
	Backend backend.Backend

	// OptimalMaxTasks bounds the slowdown-vs-optimal reference: the
	// exact branch-and-bound optimum is computed only for applications
	// of at most this many tasks (0 disables the reference entirely).
	OptimalMaxTasks int
	// OptimalMaxNodes caps branch-and-bound (and ILP) search nodes;
	// 0 means the solvers' generous defaults.
	OptimalMaxNodes int
	// Timing adds wall-clock placement-latency aggregates to the
	// report. They are real measurements, hence nondeterministic, so
	// they are off by default to keep reports byte-reproducible.
	Timing bool
}

// Default returns the stock grid used by `choreo sweep`: 4 topologies ×
// 2 workloads × 2 VM counts × 2 transfer sizes × 3 algorithms × 2 seeds
// = 192 scenarios over 64 unique cells.
func Default() Grid {
	g := Grid{
		Seeds:     []int64{1, 2},
		Model:     place.Hose,
		VMCounts:  []int{6, 10},
		MeanSizes: []units.ByteSize{64 * units.Megabyte, 200 * units.Megabyte},
	}
	for _, t := range []string{"ec2-2013", "rackspace", "fattree-4", "jellyfish-12"} {
		tp, _ := TopologyByName(t)
		g.Topologies = append(g.Topologies, tp)
	}
	for _, w := range []string{"shuffle", "uniform"} {
		wl, _ := WorkloadByName(w)
		g.Workloads = append(g.Workloads, wl)
	}
	for _, a := range []string{"choreo", "random", "round-robin"} {
		alg, _ := AlgorithmByName(a)
		g.Algorithms = append(g.Algorithms, alg)
	}
	g.applyDefaults()
	return g
}

// DefaultSequence returns the stock sequence grid used by
// `choreo sweep -mode sequence`: 2 topologies × 2 interarrivals ×
// 2 re-evaluation periods × 3 algorithms × 2 seeds = 48 scenarios over
// 8 unique cells, each cell an 8-application arrival sequence. The
// sizes and interarrivals are chosen so applications overlap — the
// regime where re-measuring under live cross traffic (and migrating)
// can beat oblivious placement, the paper's §6.3 comparison.
func DefaultSequence() Grid {
	g := Grid{
		Mode:          Sequence,
		Seeds:         []int64{1, 2},
		Model:         place.Hose,
		VMCounts:      []int{6},
		MeanSizes:     []units.ByteSize{400 * units.Megabyte},
		Interarrivals: []time.Duration{5 * time.Second, 20 * time.Second},
		SeqApps:       []int{8},
		Reevals:       []time.Duration{0, 10 * time.Second},
	}
	for _, t := range []string{"ec2-2013", "rackspace"} {
		tp, _ := TopologyByName(t)
		g.Topologies = append(g.Topologies, tp)
	}
	wl, _ := WorkloadByName("shuffle")
	g.Workloads = []Workload{wl}
	for _, a := range []string{"choreo", "random", "round-robin"} {
		alg, _ := AlgorithmByName(a)
		g.Algorithms = append(g.Algorithms, alg)
	}
	g.applyDefaults()
	return g
}

// applyDefaults fills zero-valued knobs and lifts the scalar VM/transfer
// knobs into single-entry sweep dimensions.
func (g *Grid) applyDefaults() {
	if g.VMs == 0 {
		g.VMs = 8
	}
	if g.MinTasks == 0 {
		g.MinTasks = 4
	}
	if g.MaxTasks == 0 {
		g.MaxTasks = 6
	}
	if g.MeanBytes == 0 {
		g.MeanBytes = workload.Default().MeanBytes
	}
	if g.OptimalMaxTasks == 0 {
		g.OptimalMaxTasks = 6
	}
	if len(g.VMCounts) == 0 {
		g.VMCounts = []int{g.VMs}
	}
	if len(g.MeanSizes) == 0 {
		g.MeanSizes = []units.ByteSize{g.MeanBytes}
	}
	if g.Mode == Sequence {
		if len(g.Interarrivals) == 0 {
			g.Interarrivals = []time.Duration{30 * time.Second}
		}
		if len(g.SeqApps) == 0 {
			g.SeqApps = []int{8}
		}
		if len(g.Reevals) == 0 {
			g.Reevals = []time.Duration{0}
		}
		if g.MigrationGain == 0 {
			g.MigrationGain = 0.2
		}
		if g.MaxMigrations == 0 {
			g.MaxMigrations = 3
		}
	}
}

// Validate checks the grid is runnable.
func (g *Grid) Validate() error {
	if len(g.Topologies) == 0 {
		return fmt.Errorf("sweep: grid has no topologies")
	}
	if len(g.Workloads) == 0 {
		return fmt.Errorf("sweep: grid has no workloads")
	}
	if len(g.Algorithms) == 0 {
		return fmt.Errorf("sweep: grid has no algorithms")
	}
	if len(g.Seeds) == 0 {
		return fmt.Errorf("sweep: grid has no seeds")
	}
	for _, vms := range g.VMCounts {
		if vms < 2 {
			return fmt.Errorf("sweep: need at least 2 VMs, got %d", vms)
		}
	}
	for _, size := range g.MeanSizes {
		if size <= 0 {
			return fmt.Errorf("sweep: mean transfer size must be positive, got %v", size)
		}
	}
	if g.MinTasks < 2 || g.MaxTasks < g.MinTasks {
		return fmt.Errorf("sweep: invalid task bounds [%d, %d]", g.MinTasks, g.MaxTasks)
	}
	seen := map[string]bool{}
	for _, w := range g.Workloads {
		if w.Trace == nil && w.Name != "mixed" && len(w.Patterns) == 0 {
			return fmt.Errorf("sweep: workload %q has neither patterns nor a trace", w.Name)
		}
		if seen[w.Name] {
			return fmt.Errorf("sweep: duplicate workload %q", w.Name)
		}
		seen[w.Name] = true
	}
	// Duplicate topology or algorithm names would give two scenarios the
	// same identity (topology, workload, algorithm, seed, VMs, size) —
	// their result lines would be indistinguishable, which breaks shard
	// merging and resume as well as the reader.
	seenTopo := map[string]bool{}
	for _, tp := range g.Topologies {
		if seenTopo[tp.Name] {
			return fmt.Errorf("sweep: duplicate topology %q", tp.Name)
		}
		seenTopo[tp.Name] = true
	}
	seenAlg := map[string]bool{}
	for _, a := range g.Algorithms {
		if seenAlg[a.Name] {
			return fmt.Errorf("sweep: duplicate algorithm %q", a.Name)
		}
		seenAlg[a.Name] = true
	}
	seenSeed := map[int64]bool{}
	for _, s := range g.Seeds {
		if seenSeed[s] {
			return fmt.Errorf("sweep: duplicate seed %d", s)
		}
		seenSeed[s] = true
	}
	seenVMs := map[int]bool{}
	for _, vms := range g.VMCounts {
		if seenVMs[vms] {
			return fmt.Errorf("sweep: duplicate VM count %d", vms)
		}
		seenVMs[vms] = true
	}
	seenSize := map[units.ByteSize]bool{}
	for _, size := range g.MeanSizes {
		if seenSize[size] {
			return fmt.Errorf("sweep: duplicate mean transfer size %v", size)
		}
		seenSize[size] = true
	}
	if err := g.validateMode(); err != nil {
		return err
	}
	// Capacity last: "sequence mode is sim-only" is the real problem on
	// a sequence grid, not the fleet size.
	maxVMs := 0
	for _, vms := range g.VMCounts {
		if vms > maxVMs {
			maxVMs = vms
		}
	}
	// Validation is a synchronous, one-shot check; capacity today is a
	// local fleet-size comparison, so Background is the right context.
	return g.backend().CheckCapacity(context.Background(), maxVMs)
}

// backend returns the grid's measurement backend, defaulting to the
// simulator.
func (g *Grid) backend() backend.Backend {
	if g.Backend == nil {
		return backend.NewSim()
	}
	return g.Backend
}

// backendName names the grid's backend ("sim" when unset).
func (g *Grid) backendName() string { return g.backend().Name() }

// validateMode checks the mode-specific dimensions: sequence grids need
// runnable sequence dimensions and only sequence-capable workloads and
// algorithms; snapshot grids must not set sequence knobs at all, so a
// forgotten `-mode sequence` fails loudly instead of silently ignoring
// the flags.
func (g *Grid) validateMode() error {
	if g.Mode == Snapshot {
		if len(g.Interarrivals) != 0 || len(g.SeqApps) != 0 || len(g.Reevals) != 0 {
			return fmt.Errorf("sweep: interarrival/sequence-length/re-evaluation dimensions apply only to sequence mode (set Mode: Sequence / -mode sequence)")
		}
		if g.MigrationGain != 0 || g.MaxMigrations != 0 {
			return fmt.Errorf("sweep: migration knobs apply only to sequence mode (set Mode: Sequence / -mode sequence)")
		}
		return nil
	}
	if g.Mode != Sequence {
		return fmt.Errorf("sweep: unknown mode %v", g.Mode)
	}
	if name := g.backendName(); name != "sim" {
		return fmt.Errorf("sweep: sequence mode is sim-only: the %s backend measures a real mesh, and in-sequence execution (arrivals, cross traffic, migration) needs the simulator", name)
	}
	seenInter := map[time.Duration]bool{}
	for _, ia := range g.Interarrivals {
		if ia <= 0 {
			return fmt.Errorf("sweep: mean interarrival must be positive, got %v", ia)
		}
		if seenInter[ia] {
			return fmt.Errorf("sweep: duplicate interarrival %v", ia)
		}
		seenInter[ia] = true
	}
	seenApps := map[int]bool{}
	for _, n := range g.SeqApps {
		if n < 1 {
			return fmt.Errorf("sweep: sequence length must be >= 1, got %d", n)
		}
		if seenApps[n] {
			return fmt.Errorf("sweep: duplicate sequence length %d", n)
		}
		seenApps[n] = true
	}
	seenReeval := map[time.Duration]bool{}
	for _, rv := range g.Reevals {
		if rv < 0 {
			return fmt.Errorf("sweep: re-evaluation period must be >= 0 (0 = never), got %v", rv)
		}
		if seenReeval[rv] {
			return fmt.Errorf("sweep: duplicate re-evaluation period %v", rv)
		}
		seenReeval[rv] = true
	}
	if g.MigrationGain < 0 || g.MigrationGain >= 1 {
		return fmt.Errorf("sweep: migration gain must be in [0, 1) (0 = the default 0.2), got %v", g.MigrationGain)
	}
	if g.MaxMigrations < 0 {
		return fmt.Errorf("sweep: migration cap must be >= 0, got %d", g.MaxMigrations)
	}
	if g.Apps != 0 {
		return fmt.Errorf("sweep: the Apps knob combines applications in snapshot mode; sequence length is the SeqApps dimension")
	}
	for _, a := range g.Algorithms {
		if a.ILP {
			return fmt.Errorf("sweep: algorithm %q is snapshot-only (sequence mode places arrivals with the core algorithms)", a.Name)
		}
	}
	for _, w := range g.Workloads {
		if w.Trace != nil {
			return fmt.Errorf("sweep: workload %q is snapshot-only (sequence mode generates Poisson arrival sequences; trace replay is an open ROADMAP rung)", w.Name)
		}
	}
	return nil
}

// Scenario is one expanded grid cell.
type Scenario struct {
	// Index is the cell's position in expansion order; results land at
	// this index regardless of which worker runs the cell.
	Index     int
	Topology  Topology
	Workload  Workload
	Algorithm Algorithm
	Seed      int64
	// VMs and MeanBytes are the swept allocation size and mean transfer
	// size of this cell.
	VMs       int
	MeanBytes units.ByteSize
	// Interarrival, SeqApps and Reeval are the swept arrival-process
	// and migration-policy coordinates of a sequence cell; all zero for
	// snapshot cells.
	Interarrival time.Duration
	SeqApps      int
	Reeval       time.Duration
}

// traceSizes is the transfer-size dimension for trace workloads: traces
// replay recorded transfers, so sweeping the generator's mean size would
// only duplicate identical cells. The single zero entry keeps the cell
// honest (meanBytes 0 = not applicable) and the cloud seed stable.
var traceSizes = []units.ByteSize{0}

// Expand enumerates the cross product in a fixed order: topology,
// workload, VM count, transfer size, interarrival, sequence length,
// re-evaluation period, algorithm, seed — the outermost dimension
// varying slowest. Snapshot grids collapse the three sequence
// dimensions to single zero placeholders, reducing to the original
// six-dimension order. Trace workloads skip the transfer-size dimension
// (see traceSizes).
func (g *Grid) Expand() ([]Scenario, error) {
	g.applyDefaults()
	if err := g.Validate(); err != nil {
		return nil, err
	}
	inters, seqApps, reevals := []time.Duration{0}, []int{0}, []time.Duration{0}
	if g.Mode == Sequence {
		inters, seqApps, reevals = g.Interarrivals, g.SeqApps, g.Reevals
	}
	var out []Scenario
	for _, tp := range g.Topologies {
		for _, wl := range g.Workloads {
			sizes := g.MeanSizes
			if wl.Trace != nil {
				sizes = traceSizes
			}
			for _, vms := range g.VMCounts {
				for _, size := range sizes {
					for _, inter := range inters {
						for _, apps := range seqApps {
							for _, reeval := range reevals {
								for _, alg := range g.Algorithms {
									for _, seed := range g.Seeds {
										out = append(out, Scenario{
											Index:        len(out),
											Topology:     tp,
											Workload:     wl,
											Algorithm:    alg,
											Seed:         seed,
											VMs:          vms,
											MeanBytes:    size,
											Interarrival: inter,
											SeqApps:      apps,
											Reeval:       reeval,
										})
									}
								}
							}
						}
					}
				}
			}
		}
	}
	return out, nil
}

// cloudSeed derives the deterministic per-cell seed. It covers every cell
// coordinate (topology, workload, VM count, transfer size, grid seed)
// but not the algorithm, so every algorithm in a cell group faces the
// identical cloud and application — the comparison the paper's Figure 10
// makes.
func (sc Scenario) cloudSeed() int64 {
	const offset64, prime64 = 1469598103934665603, 1099511628211
	h := uint64(offset64)
	mixByte := func(b byte) {
		h ^= uint64(b)
		h *= prime64
	}
	mix := func(s string) {
		for i := 0; i < len(s); i++ {
			mixByte(s[i])
		}
		mixByte(0xff) // separator so "ab"+"c" != "a"+"bc"
	}
	mixInt := func(v int64) {
		// Fold in bytewise for the same avalanche behaviour.
		for i := 0; i < 8; i++ {
			mixByte(byte(v >> (8 * i)))
		}
	}
	mix(sc.Topology.Name)
	mix(sc.Workload.Name)
	mixInt(int64(sc.VMs))
	mixInt(int64(sc.MeanBytes))
	mixInt(sc.Seed)
	// The sequence coordinates (interarrival, sequence length,
	// re-evaluation period) are deliberately not mixed in — and not only
	// to keep every snapshot cell's seed (and hence the golden reports)
	// stable. Sequence cells that differ only in those coordinates share
	// one cloud, and GenerateSequence draws the identical applications
	// for any interarrival mean, so sweeping the arrival or migration
	// dimensions is a same-cloud, same-applications comparison — the
	// §6.3 analogue of every algorithm in a cell group facing the
	// identical cloud. The cells stay distinct: their CellKey carries
	// the sequence coordinates explicitly.
	// Keep it positive and well away from zero for rand.NewSource.
	return int64(h&0x7fffffffffffffff) | 1
}

// sortedAlgorithmNames returns the distinct algorithm names in grid
// order (the order aggregates are reported in).
func (g *Grid) algorithmNames() []string {
	var names []string
	seen := map[string]bool{}
	for _, a := range g.Algorithms {
		if !seen[a.Name] {
			seen[a.Name] = true
			names = append(names, a.Name)
		}
	}
	return names
}

// ParseSeeds expands a CLI seed spec: either a count ("4" = seeds
// 1..4 from base) or an explicit comma list ("3,7,11").
func ParseSeeds(spec string, base int64) ([]int64, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, fmt.Errorf("sweep: empty seed spec")
	}
	if !strings.Contains(spec, ",") {
		n, err := strconv.Atoi(spec)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("sweep: seed spec %q is neither a count nor a comma list", spec)
		}
		seeds := make([]int64, n)
		for i := range seeds {
			seeds[i] = base + int64(i)
		}
		return seeds, nil
	}
	var seeds []int64
	for _, part := range strings.Split(spec, ",") {
		s, err := strconv.ParseInt(strings.TrimSpace(part), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("sweep: bad seed %q in %q", part, spec)
		}
		seeds = append(seeds, s)
	}
	sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
	return seeds, nil
}
