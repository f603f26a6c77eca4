// Package place implements Choreo's placement method (paper §5): the
// greedy network-aware Algorithm 1, the Random / Round-Robin / Minimum-
// Machines baselines it is evaluated against (§6), an exact branch-and-
// bound optimum, and the completion-time objective from the Appendix.
//
// Machines here are the tenant's VMs: the measured rate matrix comes from
// internal/probe packet trains (or internal/cluster on a live cloud).
package place

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"

	"choreo/internal/profile"
	"choreo/internal/units"
)

// Model selects how Algorithm 1 predicts the rate of a transfer placed on
// a machine pair, and which bottleneck families the completion-time
// objective includes (paper §3, Algorithm 1 line 13).
type Model int

// Rate models.
const (
	// Pipe: each machine pair is an independent pipe shared by the
	// transfers placed on it.
	Pipe Model = iota
	// Hose: all transfers leaving a machine share that machine's egress
	// rate (what §4.3 found on EC2 and Rackspace).
	Hose
)

// String names the model.
func (m Model) String() string {
	switch m {
	case Pipe:
		return "pipe"
	case Hose:
		return "hose"
	}
	return fmt.Sprintf("model(%d)", int(m))
}

// ParseModel resolves a rate-model name ("hose" or "pipe") — the one
// parser every flag and wire field goes through.
func ParseModel(name string) (Model, error) {
	for _, m := range []Model{Hose, Pipe} {
		if name == m.String() {
			return m, nil
		}
	}
	return 0, fmt.Errorf("place: unknown model %q (valid: %v, %v)", name, Hose, Pipe)
}

// Environment is the measured cloud: pairwise path rates, optional hose
// rates and cross-traffic estimates, and CPU capacities.
type Environment struct {
	// Rates[m][n] is the measured TCP throughput from machine m to n.
	// Rates[m][m] is the intra-machine rate (the paper models it as
	// effectively infinite; ~4 Gbit/s memory-bus values work the same).
	Rates [][]units.Rate
	// HoseRates[m], if non-nil, is machine m's egress limit. When nil
	// under the Hose model, max over n≠m of Rates[m][n] is used: Greedy,
	// CompletionTime and Optimal each derive those row maxima once per
	// call.
	HoseRates []units.Rate
	// Cross[m][n], if non-nil, is the estimated cross-traffic level c on
	// the path (equivalent background bulk connections, §3.2).
	Cross [][]float64
	// CPUCap[m] is the cores available on machine m.
	CPUCap []float64
}

// Machines returns the machine count.
func (e *Environment) Machines() int { return len(e.Rates) }

// Clone returns a deep copy of the environment. Consumers that mutate a
// measured environment mid-run — the in-sequence experiments re-measure
// under live cross traffic — clone the shared original instead of
// aliasing it.
func (e *Environment) Clone() *Environment {
	out := &Environment{}
	if e.Rates != nil {
		out.Rates = make([][]units.Rate, len(e.Rates))
		for i, row := range e.Rates {
			out.Rates[i] = append([]units.Rate(nil), row...)
		}
	}
	if e.HoseRates != nil {
		out.HoseRates = append([]units.Rate(nil), e.HoseRates...)
	}
	if e.Cross != nil {
		out.Cross = make([][]float64, len(e.Cross))
		for i, row := range e.Cross {
			out.Cross[i] = append([]float64(nil), row...)
		}
	}
	if e.CPUCap != nil {
		out.CPUCap = append([]float64(nil), e.CPUCap...)
	}
	return out
}

// Validate checks shape and positivity.
func (e *Environment) Validate() error {
	m := len(e.Rates)
	if m == 0 {
		return fmt.Errorf("place: environment has no machines")
	}
	for i := range e.Rates {
		if len(e.Rates[i]) != m {
			return fmt.Errorf("place: rate row %d has %d entries, want %d", i, len(e.Rates[i]), m)
		}
		for j, r := range e.Rates[i] {
			if r <= 0 {
				return fmt.Errorf("place: rate[%d][%d] = %v must be positive", i, j, r)
			}
		}
	}
	if len(e.CPUCap) != m {
		return fmt.Errorf("place: CPUCap has %d entries for %d machines", len(e.CPUCap), m)
	}
	if e.HoseRates != nil && len(e.HoseRates) != m {
		return fmt.Errorf("place: HoseRates has %d entries for %d machines", len(e.HoseRates), m)
	}
	if e.Cross != nil {
		if len(e.Cross) != m {
			return fmt.Errorf("place: Cross has %d rows for %d machines", len(e.Cross), m)
		}
		for i := range e.Cross {
			if len(e.Cross[i]) != m {
				return fmt.Errorf("place: Cross row %d has %d entries, want %d", i, len(e.Cross[i]), m)
			}
		}
	}
	return nil
}

func (e *Environment) hoseRate(m int) units.Rate {
	if e.HoseRates != nil {
		return e.HoseRates[m]
	}
	var best units.Rate
	for n, r := range e.Rates[m] {
		if n != m && r > best {
			best = r
		}
	}
	return best
}

func (e *Environment) cross(m, n int) float64 {
	if e.Cross == nil {
		return 0
	}
	return e.Cross[m][n]
}

// Placement maps each task to a machine.
type Placement struct {
	MachineOf []int
}

// Validate checks the placement against the application and environment:
// every task placed, CPU respected.
func (p Placement) Validate(app *profile.Application, env *Environment) error {
	if len(p.MachineOf) != app.Tasks() {
		return fmt.Errorf("place: placement covers %d tasks, app has %d", len(p.MachineOf), app.Tasks())
	}
	used := make([]float64, env.Machines())
	for i, m := range p.MachineOf {
		if m < 0 || m >= env.Machines() {
			return fmt.Errorf("place: task %d on invalid machine %d", i, m)
		}
		used[m] += app.CPU[i]
	}
	for m, u := range used {
		if u > env.CPUCap[m]+1e-9 {
			return fmt.Errorf("place: machine %d CPU oversubscribed: %v > %v", m, u, env.CPUCap[m])
		}
	}
	return nil
}

// loadState tracks the connection counts Algorithm 1 consults and
// predicts, from them, the rate a new transfer would see.
type loadState struct {
	env  *Environment
	hose []units.Rate // Hose only: each machine's egress limit
	pipe []int        // Pipe only: transfers placed per directed pair, at m*M+n
	out  []int        // transfers leaving each machine
}

// newLoadState derives the hose rates once (O(M²) when env.HoseRates is
// nil) so that every later rate prediction is O(1). Only the pipe model
// reads the per-pair counts, so only it allocates them.
func newLoadState(env *Environment, model Model) *loadState {
	M := env.Machines()
	l := &loadState{env: env, out: make([]int, M)}
	if model == Hose {
		l.hose = env.HoseRates
		if l.hose == nil {
			l.hose = make([]units.Rate, M)
			for m := range l.hose {
				l.hose[m] = env.hoseRate(m)
			}
		}
	} else {
		l.pipe = make([]int, M*M)
	}
	return l
}

func (l *loadState) add(m, n int) {
	if m == n {
		return // intra-machine transfers load neither pipes nor hoses
	}
	if l.pipe != nil {
		l.pipe[m*len(l.out)+n]++
	}
	l.out[m]++
}

// rate predicts what a new transfer placed on m→n would see (Algorithm 1
// line 13), accounting for placed transfers and measured cross traffic.
func (l *loadState) rate(m, n int) units.Rate {
	if m == n {
		return l.env.Rates[m][m]
	}
	if l.hose != nil {
		return units.Rate(float64(l.hose[m]) / float64(l.out[m]+1))
	}
	k := l.pipe[m*len(l.out)+n]
	return units.Rate(float64(l.env.Rates[m][n]) / (l.env.cross(m, n) + float64(k) + 1))
}

// Greedy is Algorithm 1: walk transfers in descending byte order, placing
// each endpoint pair on the machine pair with the highest predicted rate,
// subject to CPU constraints. Tasks with no traffic are placed round-robin
// at the end.
func Greedy(app *profile.Application, env *Environment, model Model) (Placement, error) {
	return GreedyWithTransfers(app, env, model, nil)
}

// GreedyWithTransfers is Greedy with an explicit transfer order, used by
// the ordering ablation (the paper's Algorithm 1 line 1 prescribes
// descending byte order; passing nil uses it).
//
// A call costs O(M² + T·M) under Hose and O(M² + T·M²) under Pipe. When
// both endpoints of a transfer are unplaced, the pair (m, n) with the
// highest predicted rate wins, the first in row-major scan order on ties.
// Under Hose an off-diagonal pair's rate depends on its source m only, so
// among the n ≠ m only the first CPU-feasible one can win that scan; for
// each m two candidates suffice: colocation on m, and the first feasible
// n ≠ m. CPU does not change during the scan, so that n is one of the
// first two machines with room for the destination task. Trying the two
// in scan order with the same strict comparison keeps every tie-break of
// the full M×M scan.
func GreedyWithTransfers(app *profile.Application, env *Environment, model Model, transfers []profile.Transfer) (Placement, error) {
	if err := app.Validate(); err != nil {
		return Placement{}, err
	}
	if err := env.Validate(); err != nil {
		return Placement{}, err
	}
	if transfers == nil {
		transfers = app.TM.Transfers()
	}
	M := env.Machines()
	machineOf := make([]int, app.Tasks())
	for i := range machineOf {
		machineOf[i] = -1
	}
	cpuLeft := append([]float64(nil), env.CPUCap...)
	load := newLoadState(env, model)

	fits := func(task, m int) bool { return cpuLeft[m]+1e-9 >= app.CPU[task] }
	placeTask := func(task, m int) {
		machineOf[task] = m
		cpuLeft[m] -= app.CPU[task]
	}

	for _, tr := range transfers {
		i, j := tr.From, tr.To
		mi, mj := machineOf[i], machineOf[j]
		switch {
		case mi >= 0 && mj >= 0:
			// Both placed earlier; the transfer still loads its path.
		case mi >= 0:
			best, bestRate := -1, units.Rate(-1)
			for n := 0; n < M; n++ {
				if !fits(j, n) {
					continue
				}
				if r := load.rate(mi, n); r > bestRate {
					best, bestRate = n, r
				}
			}
			if best < 0 {
				return Placement{}, fmt.Errorf("place: no machine has CPU for task %d", j)
			}
			placeTask(j, best)
		case mj >= 0:
			best, bestRate := -1, units.Rate(-1)
			for m := 0; m < M; m++ {
				if !fits(i, m) {
					continue
				}
				if r := load.rate(m, mj); r > bestRate {
					best, bestRate = m, r
				}
			}
			if best < 0 {
				return Placement{}, fmt.Errorf("place: no machine has CPU for task %d", i)
			}
			placeTask(i, best)
		default:
			bestM, bestN, bestRate := -1, -1, units.Rate(-1)
			try := func(m, n int) {
				if r := load.rate(m, n); r > bestRate {
					bestM, bestN, bestRate = m, n, r
				}
			}
			// Colocation requires room for both tasks.
			colocates := func(m int) bool { return !(cpuLeft[m]+1e-9 < app.CPU[i]+app.CPU[j]) }
			if load.hose != nil {
				first, second := -1, -1 // the first two machines with room for j
				for n := 0; n < M && second < 0; n++ {
					if fits(j, n) {
						if first < 0 {
							first = n
						} else {
							second = n
						}
					}
				}
				for m := 0; m < M; m++ {
					if !fits(i, m) {
						continue
					}
					n := first
					if n == m {
						n = second
					}
					if n >= 0 && n < m {
						try(m, n)
					}
					if colocates(m) {
						try(m, m)
					}
					if n > m {
						try(m, n)
					}
				}
			} else {
				for m := 0; m < M; m++ {
					if !fits(i, m) {
						continue
					}
					for n := 0; n < M; n++ {
						if m == n {
							if !colocates(m) {
								continue
							}
						} else if !fits(j, n) {
							continue
						}
						try(m, n)
					}
				}
			}
			if bestM < 0 {
				return Placement{}, fmt.Errorf("place: no machine pair has CPU for tasks %d and %d", i, j)
			}
			placeTask(i, bestM)
			placeTask(j, bestN)
		}
		load.add(machineOf[i], machineOf[j])
	}

	// Tasks with no transfers: round-robin over machines with room.
	next := 0
	for task := range machineOf {
		if machineOf[task] >= 0 {
			continue
		}
		placed := false
		for k := 0; k < M; k++ {
			m := (next + k) % M
			if fits(task, m) {
				placeTask(task, m)
				next = m + 1
				placed = true
				break
			}
		}
		if !placed {
			return Placement{}, fmt.Errorf("place: no machine has CPU for idle task %d", task)
		}
	}
	return Placement{MachineOf: machineOf}, nil
}

// CompletionTime evaluates the paper's objective for a placement: the
// longest-running bottleneck group. Pipe groups are directed machine
// pairs; under Hose, the egress of each machine is one shared group and
// intra-machine transfers ride the (fast) self-rate. Zero-traffic
// applications complete instantly.
func CompletionTime(app *profile.Application, env *Environment, p Placement, model Model) (time.Duration, error) {
	if err := p.Validate(app, env); err != nil {
		return 0, err
	}
	M := env.Machines()
	worst := 0.0
	if model == Hose {
		egress := make([]units.ByteSize, M)
		intra := make([]units.ByteSize, M)
		for i, m := range p.MachineOf {
			for j, b := range app.TM.Row(i) {
				if b <= 0 {
					continue
				}
				if m == p.MachineOf[j] {
					intra[m] += b
				} else {
					egress[m] += b
				}
			}
		}
		for m := 0; m < M; m++ {
			if egress[m] > 0 {
				worst = math.Max(worst, egress[m].Bits()/float64(e2hose(env, m)))
			}
			if intra[m] > 0 {
				worst = math.Max(worst, intra[m].Bits()/float64(env.Rates[m][m]))
			}
		}
		return units.Seconds(worst), nil
	}
	bytesOn := make(map[[2]int]units.ByteSize)
	for i, m := range p.MachineOf {
		for j, b := range app.TM.Row(i) {
			if b > 0 {
				bytesOn[[2]int{m, p.MachineOf[j]}] += b
			}
		}
	}
	for pair, b := range bytesOn {
		worst = math.Max(worst, b.Bits()/float64(env.Rates[pair[0]][pair[1]]))
	}
	return units.Seconds(worst), nil
}

func e2hose(env *Environment, m int) units.Rate {
	h := env.hoseRate(m)
	if h <= 0 {
		return 1
	}
	return h
}

// Random assigns tasks to CPU-feasible machines uniformly at random — the
// paper's baseline placement.
func Random(app *profile.Application, env *Environment, rng *rand.Rand) (Placement, error) {
	if err := app.Validate(); err != nil {
		return Placement{}, err
	}
	if err := env.Validate(); err != nil {
		return Placement{}, err
	}
	M := env.Machines()
	machineOf := make([]int, app.Tasks())
	cpuLeft := make([]float64, M)
	// Random draws can dead-end on CPU fragmentation even when a feasible
	// packing exists; retry with fresh draws like a tenant re-rolling.
	for attempt := 0; attempt < 100; attempt++ {
		copy(cpuLeft, env.CPUCap)
		ok := true
		for task := range machineOf {
			need := app.CPU[task]
			feasible := 0
			for m := 0; m < M; m++ {
				if cpuLeft[m]+1e-9 >= need {
					feasible++
				}
			}
			if feasible == 0 {
				ok = false
				break
			}
			// Walk to the k-th feasible machine in index order.
			k, m := rng.Intn(feasible), 0
			for ; ; m++ {
				if cpuLeft[m]+1e-9 >= need {
					if k == 0 {
						break
					}
					k--
				}
			}
			machineOf[task] = m
			cpuLeft[m] -= need
		}
		if ok {
			return Placement{MachineOf: machineOf}, nil
		}
	}
	return Placement{}, fmt.Errorf("place: no CPU-feasible random placement found")
}

// RoundRobin assigns each task to the next machine in order with enough
// CPU — the load-balancing baseline.
func RoundRobin(app *profile.Application, env *Environment) (Placement, error) {
	if err := app.Validate(); err != nil {
		return Placement{}, err
	}
	if err := env.Validate(); err != nil {
		return Placement{}, err
	}
	M := env.Machines()
	machineOf := make([]int, app.Tasks())
	cpuLeft := append([]float64(nil), env.CPUCap...)
	next := 0
	for task := range machineOf {
		placed := false
		for k := 0; k < M; k++ {
			m := (next + k) % M
			if cpuLeft[m]+1e-9 >= app.CPU[task] {
				machineOf[task] = m
				cpuLeft[m] -= app.CPU[task]
				next = (m + 1) % M
				placed = true
				break
			}
		}
		if !placed {
			return Placement{}, fmt.Errorf("place: no machine has CPU for task %d", task)
		}
	}
	return Placement{MachineOf: machineOf}, nil
}

// MinMachines packs tasks onto as few machines as possible: a task goes
// onto an already-used machine whenever one has room, and a new machine
// is opened only when none does — the cost-saving baseline.
func MinMachines(app *profile.Application, env *Environment) (Placement, error) {
	if err := app.Validate(); err != nil {
		return Placement{}, err
	}
	if err := env.Validate(); err != nil {
		return Placement{}, err
	}
	M := env.Machines()
	machineOf := make([]int, app.Tasks())
	cpuLeft := append([]float64(nil), env.CPUCap...)
	used := make([]bool, M)
	// Prefer used machines, fullest first (best fit).
	byFit := func(a, b int) int {
		if used[a] != used[b] {
			if used[a] {
				return -1
			}
			return 1
		}
		return cmp.Compare(cpuLeft[a], cpuLeft[b])
	}
	order := make([]int, M)
	for task := range machineOf {
		placed := -1
		for i := range order {
			order[i] = i
		}
		slices.SortStableFunc(order, byFit)
		for _, m := range order {
			if cpuLeft[m]+1e-9 >= app.CPU[task] {
				placed = m
				break
			}
		}
		if placed < 0 {
			return Placement{}, fmt.Errorf("place: no machine has CPU for task %d", task)
		}
		machineOf[task] = placed
		cpuLeft[placed] -= app.CPU[task]
		used[placed] = true
	}
	return Placement{MachineOf: machineOf}, nil
}
