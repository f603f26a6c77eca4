package place

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"choreo/internal/profile"
	"choreo/internal/units"
)

// ErrSearchBudget marks an Optimal search that exceeded its node budget.
// Callers that fall back to a heuristic on budget exhaustion (e.g. the
// sweep engine's slowdown reference) match it with errors.Is, so genuine
// failures — an invalid environment, an infeasible application — still
// propagate instead of being silently absorbed.
var ErrSearchBudget = errors.New("place: optimal search exceeded node budget")

// Optimal finds the completion-time-optimal placement by branch and bound
// over task→machine assignments. Tasks are placed heaviest traffic first,
// each on the machines in index order; a child is pruned once its bound,
// the completion time of the groups loaded so far, reaches that of the
// best placement found, so among tied optima the first in depth-first
// order is returned.
//
// The depth-first loop walks only the inner depths. Each node at the
// last depth is scored in one pass over the machines, and a leaf's bound
// stops being computed once it reaches the best placement found. Under
// Hose, a last-depth node scores no leaf at all once the best placement
// is no worse than its floor: the larger of its parent's bound and the
// second-largest egress time among the machines sending to its task.
//
// Cost, measured by BenchmarkOptimal on a 2-vCPU Xeon for shuffle and
// uniform applications of 5–6 tasks on 6 and 10 VMs: 6–160 µs per call
// under Pipe and 40 µs–2.2 ms under Hose, where uniform traffic on 10 VMs
// is the costliest. The tree grows as machines^tasks wherever the bound
// does not bite, so larger instances need a node budget or Greedy.
//
// Group loads are integer bit counts, exact in float64 while the
// application moves under 2^50 bytes, so no bound depends on the order in
// which transfers are added up. The nodes visited, which maxNodes counts,
// and the placement returned are those of a search that charges one
// transfer at a time; the tests pin them against one.
//
// maxNodes bounds the search (0 = generous default); exceeding it returns
// an error wrapping ErrSearchBudget rather than a silently suboptimal
// placement.
func Optimal(app *profile.Application, env *Environment, model Model, maxNodes int) (Placement, error) {
	if err := app.Validate(); err != nil {
		return Placement{}, err
	}
	if err := env.Validate(); err != nil {
		return Placement{}, err
	}
	if maxNodes <= 0 {
		maxNodes = 20_000_000
	}
	J := app.Tasks()
	if J == 0 {
		return Placement{MachineOf: []int{}}, nil
	}
	s := newSearch(app, env, model)
	M, at, cpu, cpuLeft := s.M, s.at, s.cpu, s.cpuLeft
	bestObj := math.Inf(1)
	var bestAssign []int
	// finish enters the last depth under a parent whose bound is partial
	// and records its best leaf if that beats bestObj.
	finish := func(partial float64) {
		s.enter(J-1, partial)
		m, bound := s.last(bestObj)
		if m < 0 {
			return
		}
		bestObj = bound
		if bestAssign == nil {
			bestAssign = make([]int, J)
		}
		for k, task := range s.order[:J-1] {
			bestAssign[task] = at[k]
		}
		bestAssign[s.order[J-1]] = m
	}
	nodes := 1 // the root; maxNodes >= 1
	if J == 1 {
		finish(0)
	} else {
		s.enter(0, 0)
	}
	// Depth-first over the inner depths, of which a 1-task application
	// has none, without recursion: each iteration moves depth d on to
	// its next CPU-feasible machine and scores that child. A child that
	// beats bestObj is charged and entered; at the last depth, finish
	// scores all of its leaves at once. CPU is debited and credited
	// around every child in the same order as a recursive search, so
	// that even capacities that are not dyadic fractions round the same
	// way.
	for d := 0; J > 1; {
		c := cpu[d]
		m := at[d] + 1
		for m < M && cpuLeft[m]+1e-9 < c {
			m++
		}
		if m == M {
			if d == 0 {
				break
			}
			d--
			s.charge(d, at[d], -1)
			cpuLeft[at[d]] += cpu[d]
			continue
		}
		at[d] = m
		cpuLeft[m] -= c
		if bound := s.score(d, m, bestObj); bound < bestObj {
			nodes++
			if nodes > maxNodes {
				return Placement{}, fmt.Errorf("%w (%d nodes)", ErrSearchBudget, maxNodes)
			}
			s.charge(d, m, +1)
			if d+2 < J {
				d++
				s.enter(d, bound)
				continue
			}
			finish(bound)
			s.charge(d, m, -1)
		}
		cpuLeft[m] += c
	}
	if bestAssign == nil {
		return Placement{}, errNoFeasible
	}
	return Placement{MachineOf: bestAssign}, nil
}

var errNoFeasible = errors.New("place: no CPU-feasible placement exists")

// search is the state of one Optimal call. Depth d places task order[d]
// on machine at[d]; every per-depth table is indexed by depth.
//
// A transfer is charged at the depth of its later endpoint, when both of
// its machines are known: arcs[d] lists depth d's transfers. Entering a
// node folds them into per-machine sums, out[d*M+k] and in[d*M+k], the
// bits the depth-d task sends to and receives from earlier tasks on
// machine k. Scoring a child reads the group loads without changing
// them; only a child that is entered is charged, by charge(+1), and
// retracted, by charge(-1), once its subtree is done. The last depth's
// children are leaves: last scores them all and charges none.
//
// A child's bound is the larger of its parent's bound and the completion
// time of every group it loads, with its load added. A search that
// charges one transfer at a time takes the maximum over the same groups,
// since a group's time only grows as its load does, so both prune the
// same children. Scoring stops once the bound reaches the best
// placement's: such a child is pruned whatever the exact figure.
type search struct {
	M       int
	hose    bool
	order   []int     // task at each depth, heaviest traffic first
	cpu     []float64 // CPU demand of each depth's task
	cpuLeft []float64
	at      []int     // machine of each depth's task, -1 before its first child
	partial []float64 // each depth's parent bound
	arcs    [][]arc

	out, in []float64 // per depth × machine
	sent    []float64 // per depth: bits sent to earlier tasks
	near    [][]int   // per depth: machines holding an earlier neighbour

	// Hose groups: each machine's egress, and its intra-machine traffic
	// at its self-rate.
	egress, intra, hoseRate, selfRate []float64
	// Hose, per depth: the largest and second-largest egress time among
	// the machines that send to the depth's task, with that traffic
	// added, and the machine with the largest. A child on any other
	// machine adds all of that traffic to their egress groups.
	recv1, recv2 []float64
	recv1At      []int
	// Pipe groups: each directed machine pair.
	pair, pairRate []float64
}

// arc is a transfer between the task at its depth and the earlier task
// at depth other; out is set when the later task is the sender.
type arc struct {
	other int
	out   bool
	bits  float64
}

func newSearch(app *profile.Application, env *Environment, model Model) *search {
	J, M := app.Tasks(), env.Machines()
	transfers := app.TM.Transfers()
	s := &search{
		M:       M,
		hose:    model == Hose,
		order:   make([]int, J),
		cpu:     make([]float64, J),
		cpuLeft: append([]float64(nil), env.CPUCap...),
		at:      make([]int, J),
		partial: make([]float64, J),
		arcs:    make([][]arc, J),
		out:     make([]float64, J*M),
		in:      make([]float64, J*M),
		sent:    make([]float64, J),
		near:    make([][]int, J),
	}

	// Heavy tasks first, so that bounds bite sooner.
	for i := range s.order {
		s.order[i] = i
	}
	traffic := make([]units.ByteSize, J)
	for _, tr := range transfers {
		traffic[tr.From] += tr.Bytes
		traffic[tr.To] += tr.Bytes
	}
	slices.SortStableFunc(s.order, func(a, b int) int { return cmp.Compare(traffic[b], traffic[a]) })
	depthOf := make([]int, J)
	for d, task := range s.order {
		depthOf[task] = d
		s.cpu[d] = app.CPU[task]
	}
	for _, tr := range transfers {
		from, to := depthOf[tr.From], depthOf[tr.To]
		if from > to {
			s.arcs[from] = append(s.arcs[from], arc{other: to, out: true, bits: tr.Bytes.Bits()})
		} else {
			s.arcs[to] = append(s.arcs[to], arc{other: from, bits: tr.Bytes.Bits()})
		}
	}

	if s.hose {
		s.egress, s.intra = make([]float64, M), make([]float64, M)
		s.hoseRate, s.selfRate = make([]float64, M), make([]float64, M)
		for m := 0; m < M; m++ {
			s.hoseRate[m] = float64(e2hose(env, m))
			s.selfRate[m] = float64(env.Rates[m][m])
		}
		s.recv1, s.recv2, s.recv1At = make([]float64, J), make([]float64, J), make([]int, J)
	} else {
		s.pair, s.pairRate = make([]float64, M*M), make([]float64, M*M)
		for m := 0; m < M; m++ {
			for n := 0; n < M; n++ {
				s.pairRate[m*M+n] = float64(env.Rates[m][n])
			}
		}
	}
	return s
}

// sums returns depth d's per-machine sent and received bits.
func (s *search) sums(d int) (out, in []float64) {
	return s.out[d*s.M : (d+1)*s.M], s.in[d*s.M : (d+1)*s.M]
}

// enter starts the node at depth d, whose parent's bound is partial, and
// folds depth d's transfers into per-machine sums.
func (s *search) enter(d int, partial float64) {
	s.at[d] = -1
	s.partial[d] = partial
	out, in := s.sums(d)
	clear(out)
	clear(in)
	near := s.near[d][:0]
	sent := 0.0
	for _, a := range s.arcs[d] {
		k := s.at[a.other]
		if out[k] == 0 && in[k] == 0 {
			near = append(near, k)
		}
		if a.out {
			out[k] += a.bits
			sent += a.bits
		} else {
			in[k] += a.bits
		}
	}
	s.near[d], s.sent[d] = near, sent
	if !s.hose {
		return
	}
	r1, r2, r1At := 0.0, 0.0, -1
	for _, k := range near {
		if in[k] == 0 {
			continue
		}
		t := (s.egress[k] + in[k]) / s.hoseRate[k]
		if t > r1 {
			r1, r2, r1At = t, r1, k
		} else if t > r2 {
			r2 = t
		}
	}
	s.recv1[d], s.recv2[d], s.recv1At[d] = r1, r2, r1At
}

// score returns the bound of placing depth d's task on machine m, or
// some bound no smaller than best once it reaches best.
func (s *search) score(d, m int, best float64) float64 {
	if s.hose {
		return s.scoreHose(d, m, best)
	}
	return s.scorePipe(d, m, best)
}

// last scores the entered last depth: it returns the first machine
// whose leaf bound is the smallest below best, with that bound, or -1
// and best if no leaf beats best. A leaf's bound is never below its
// parent's, nor, under Hose, below recv2, so once best reaches that
// floor no machine is scored; every CPU-feasible machine is still
// debited and credited, as a recursive search would.
func (s *search) last(best float64) (int, float64) {
	d := len(s.order) - 1
	c := s.cpu[d]
	floor := s.partial[d]
	if s.hose {
		floor = max(floor, s.recv2[d])
	}
	at := -1
	for m := range s.M {
		if s.cpuLeft[m]+1e-9 < c {
			continue
		}
		s.cpuLeft[m] -= c
		if floor < best {
			if b := s.score(d, m, best); b < best {
				at, best = m, b
			}
		}
		s.cpuLeft[m] += c
	}
	return at, best
}

// scoreHose returns the bound of placing depth d's task on machine m.
// Traffic to and from earlier tasks on m stays inside m; the rest leaves
// m's egress or the egress of the sending machine. It stops early, with
// a bound no smaller than best, once the bound reaches best.
func (s *search) scoreHose(d, m int, best float64) float64 {
	b := s.partial[d]
	if s.recv1At[d] != m {
		b = max(b, s.recv1[d])
	} else {
		b = max(b, s.recv2[d])
	}
	if b >= best {
		return b
	}
	k := d*s.M + m
	out, in := s.out[k], s.in[k]
	if off := s.sent[d] - out; off > 0 {
		b = max(b, (s.egress[m]+off)/s.hoseRate[m])
		if b >= best {
			return b
		}
	}
	if co := out + in; co > 0 {
		b = max(b, (s.intra[m]+co)/s.selfRate[m])
	}
	return b
}

// scorePipe returns the bound of placing depth d's task on machine m
// under Pipe, where each machine pair is its own group. It stops early,
// with a bound no smaller than best, once the bound reaches best.
func (s *search) scorePipe(d, m int, best float64) float64 {
	M := s.M
	b := s.partial[d]
	out, in := s.sums(d)
	for _, k := range s.near[d] {
		if b >= best {
			break
		}
		if k == m {
			b = max(b, (s.pair[m*M+m]+out[m]+in[m])/s.pairRate[m*M+m])
			continue
		}
		if out[k] > 0 {
			b = max(b, (s.pair[m*M+k]+out[k])/s.pairRate[m*M+k])
		}
		if in[k] > 0 {
			b = max(b, (s.pair[k*M+m]+in[k])/s.pairRate[k*M+m])
		}
	}
	return b
}

// charge adds (sign +1) or removes (sign -1) the loads of placing depth
// d's task on machine m.
func (s *search) charge(d, m int, sign float64) {
	M := s.M
	out, in := s.sums(d)
	if s.hose {
		s.egress[m] += sign * (s.sent[d] - out[m])
		s.intra[m] += sign * (out[m] + in[m])
		for _, k := range s.near[d] {
			if k != m {
				s.egress[k] += sign * in[k]
			}
		}
		return
	}
	for _, k := range s.near[d] {
		if k == m {
			s.pair[m*M+m] += sign * (out[m] + in[m])
		} else {
			s.pair[m*M+k] += sign * out[k]
			s.pair[k*M+m] += sign * in[k]
		}
	}
}

// OptimalTime is a convenience returning the optimal completion time.
func OptimalTime(app *profile.Application, env *Environment, model Model, maxNodes int) (time.Duration, error) {
	p, err := Optimal(app, env, model, maxNodes)
	if err != nil {
		return 0, err
	}
	return CompletionTime(app, env, p, model)
}
