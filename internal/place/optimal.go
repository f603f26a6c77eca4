package place

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"
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

// Optimal finds the completion-time-optimal placement. Among tied optima
// it returns the first in depth order: tasks are read heaviest traffic
// first (depth 0 is the heaviest), and of two placements the one whose
// machine at the first differing depth has the lower index comes first.
// Two exact methods share that answer.
//
// Branch and bound walks task→machine assignments in that order, each
// task on the machines in index order, and prunes a child once its
// bound, the completion time of the groups loaded so far, reaches that
// of the best placement found. Its depth-first loop walks only the inner
// depths; each node at the last depth is scored in one pass over the
// machines, and a leaf's bound stops being computed once it reaches the
// best placement found. Under Hose, a last-depth node scores no leaf at
// all once the best placement is no worse than its floor: the larger of
// its parent's bound and the second-largest egress time among the
// machines sending to its task. The tree grows as machines^tasks wherever
// the bound does not bite.
//
// Under Hose, a machine's completion time depends only on the set of
// tasks it holds, so the optimum is also the answer to a set-partition
// problem, which optimalTables solves in two passes of M·3^J steps for
// J tasks on M machines, however the traffic falls. The tables answer
// whenever the search could not run out of maxNodes, they take no more
// steps than the search's worst case and they stay small (see
// tablesExact); everywhere else, including all of Pipe, the search runs.
// Only the search counts nodes, so a budget means the same whichever
// method answers.
//
// Cost, measured by BenchmarkOptimal on a 2-vCPU Xeon for shuffle and
// uniform applications of 5–6 tasks on 6 and 10 VMs: 7–210 µs per call
// under Pipe, by search, and 8–18 µs under Hose, by tables, where the
// search took 42 µs–2.5 ms. Larger instances need a node budget or
// Greedy.
//
// Group loads are integer bit counts, exact in float64 while the
// application moves under 2^50 bytes, so no bound depends on the order in
// which transfers are added up, and both methods divide the same loads
// by the same rates. The nodes visited, which maxNodes counts, and the
// placement returned are those of a search that charges one transfer at
// a time; the tests pin them against one.
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
		maxNodes = defaultMaxNodes
	}
	J := app.Tasks()
	if J == 0 {
		return Placement{MachineOf: []int{}}, nil
	}
	if model == Hose && tablesExact(app, env, maxNodes) {
		return optimalTables(app, env)
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

// defaultMaxNodes is Optimal's node budget when the caller sets none.
const defaultMaxNodes = 20_000_000

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

	depthOrder(app, s.order, make([]units.ByteSize, J))
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

// depthOrder fills order with app's tasks by depth: heaviest traffic
// (bytes sent plus received) first, so that bounds bite sooner, and ties
// in task order. traffic is scratch of one entry per task.
func depthOrder(app *profile.Application, order []int, traffic []units.ByteSize) {
	clear(traffic)
	for i := range order {
		order[i] = i
		for j, b := range app.TM.Row(i) {
			if b > 0 {
				traffic[i] += b
				traffic[j] += b
			}
		}
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(traffic[b], traffic[a]) })
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

// maxTableEntries caps the entries of each of optimalTables' M·2^J
// tables, so that a large node budget cannot make them large.
const maxTableEntries = 1 << 20

// tablesExact reports whether optimalTables may answer for Optimal under
// Hose: whenever it returns exactly what the search would. That needs a
// search that cannot run out of maxNodes: it enters at most
// 1 + M + … + M^(J−1) nodes. The tables must take no more steps than
// that worst case, hold at most maxTableEntries entries each, and read a
// placement as a J-digit base-M number that fits in int64. Loads must be
// exact sums (under 2^53 bits in all), and hose and self-rates positive.
// CPU figures must be finite: the search debits a machine and credits it
// back as it walks. That leaves a finite figure within an ulp of where
// it was, far inside the 1e-9 slack, but can leave NaN behind once an
// infinite or NaN figure is involved; the tables debit every set afresh
// from the machine's capacity.
func tablesExact(app *profile.Application, env *Environment, maxNodes int) bool {
	J, M := app.Tasks(), env.Machines()
	worst, pow := 1, 1 // pow is M^(J−1) once the loop is done
	for range J - 1 {
		if pow > (maxNodes-worst)/M {
			return false
		}
		pow *= M
		worst += pow
	}
	steps := M
	for range J {
		if steps > worst/3 {
			return false
		}
		steps *= 3
	}
	if pow > math.MaxInt64/M || M<<J > maxTableEntries {
		return false
	}
	total := 0.0
	for i := range J {
		if math.IsInf(app.CPU[i], 0) || math.IsNaN(app.CPU[i]) {
			return false
		}
		for _, b := range app.TM.Row(i) {
			if b > 0 {
				total += b.Bits()
			}
		}
	}
	if !(total < 1<<53) {
		return false
	}
	for m := range M {
		c := env.CPUCap[m]
		if math.IsInf(c, 0) || math.IsNaN(c) || !(e2hose(env, m) > 0) || !(env.Rates[m][m] > 0) {
			return false
		}
	}
	return true
}

// hoseTables is optimalTables' scratch, reused across calls through
// tablePool. Sets of tasks are bit masks over depths; a table indexed by
// machine and set holds 2^J entries per machine.
type hoseTables struct {
	order   []int
	traffic []units.ByteSize
	bits    []float64 // J×J: bits[d*J+e], from depth d's task to depth e's
	pow     []int64   // per depth d: M^(J−1−d), its digit's weight
	out     []float64 // per set: bits its tasks send
	intra   []float64 // per set: bits its tasks send among themselves
	weight  []int64   // per set: the sum of its depths' pow
	left    []float64 // per set: CPU left on the machine at hand, −Inf if it does not fit
	cost    []float64 // per machine and set: the machine's completion time, +Inf if the set does not fit
	minMax  []float64 // per machine m and set R: least completion time of R on machines m..M−1
	minSum  []int64   // per set R: least base-M number of R on machines m.. within the optimum
	next    []int64   // minSum for machines m+1..
	arg     []int     // per machine m and set R: the set m takes in minSum's answer
}

var tablePool = sync.Pool{New: func() any { return new(hoseTables) }}

// optimalTables returns Optimal's answer under Hose as a set partition;
// Optimal calls it only where tablesExact holds. A machine m holding the
// set S of tasks costs the larger of its egress time, the bits S sends
// to other tasks over m's hose rate, and its intra time, the bits S's
// tasks send each other over m's self-rate, or +Inf if S does not fit
// m's CPU when debited in depth order with the search's 1e-9 slack.
//
// A first table, over machines m and sets R, gives the least completion
// time v of R on machines m..M−1. Among placements in which no machine
// costs more than v, a second table finds the least base-M number whose
// digit for depth d is that depth's machine, depth 0 the most
// significant: the search's first optimum. Its argmins give the
// placement.
func optimalTables(app *profile.Application, env *Environment) (Placement, error) {
	J, M := app.Tasks(), env.Machines()
	n := 1 << J
	full := n - 1
	t := tablePool.Get().(*hoseTables)
	defer tablePool.Put(t)
	t.order = slices.Grow(t.order[:0], J)[:J]
	t.traffic = slices.Grow(t.traffic[:0], J)[:J]
	t.bits = slices.Grow(t.bits[:0], J*J)[:J*J]
	t.pow = slices.Grow(t.pow[:0], J)[:J]
	t.out = slices.Grow(t.out[:0], n)[:n]
	t.intra = slices.Grow(t.intra[:0], n)[:n]
	t.weight = slices.Grow(t.weight[:0], n)[:n]
	t.left = slices.Grow(t.left[:0], n)[:n]
	t.cost = slices.Grow(t.cost[:0], M*n)[:M*n]
	t.minMax = slices.Grow(t.minMax[:0], (M+1)*n)[:(M+1)*n]
	t.minSum = slices.Grow(t.minSum[:0], n)[:n]
	t.next = slices.Grow(t.next[:0], n)[:n]
	t.arg = slices.Grow(t.arg[:0], M*n)[:M*n]

	depthOrder(app, t.order, t.traffic)
	for d, task := range t.order {
		row := app.TM.Row(task)
		for e, other := range t.order {
			t.bits[d*J+e] = max(row[other], 0).Bits()
		}
	}
	for d, p := J-1, int64(1); d >= 0; d, p = d-1, p*int64(M) {
		t.pow[d] = p
	}

	// Each set extends the set without its deepest task h: h adds what
	// it sends, its traffic with the rest of the set, and its digit.
	t.out[0], t.intra[0], t.weight[0] = 0, 0, 0
	for S := 1; S < n; S++ {
		h := bits.Len(uint(S)) - 1
		rest := S &^ (1 << h)
		sent, link := 0.0, 0.0
		for e := range J {
			b := t.bits[h*J+e]
			sent += b
			if rest&(1<<e) != 0 {
				link += b + t.bits[e*J+h]
			}
		}
		t.out[S] = t.out[rest] + sent
		t.intra[S] = t.intra[rest] + link
		t.weight[S] = t.weight[rest] + t.pow[h]
	}
	for m := range M {
		hose, self := float64(e2hose(env, m)), float64(env.Rates[m][m])
		cost := t.cost[m*n : (m+1)*n]
		t.left[0], cost[0] = env.CPUCap[m], 0
		for S := 1; S < n; S++ {
			h := bits.Len(uint(S)) - 1
			rest := S &^ (1 << h)
			c := app.CPU[t.order[h]]
			if t.left[rest]+1e-9 < c {
				t.left[S], cost[S] = math.Inf(-1), math.Inf(1)
				continue
			}
			t.left[S] = t.left[rest] - c
			ct := 0.0
			if egress := t.out[S] - t.intra[S]; egress > 0 {
				ct = egress / hose
			}
			if intra := t.intra[S]; intra > 0 {
				ct = max(ct, intra/self)
			}
			cost[S] = ct
		}
	}

	// minMax[m][R] = min over S ⊆ R of max(cost[m][S], minMax[m+1][R∖S]);
	// machine 0 needs only the full set.
	inf := math.Inf(1)
	tail := t.minMax[M*n:]
	for R := range tail {
		tail[R] = inf
	}
	tail[0] = 0
	for m := M - 1; m >= 0; m-- {
		cost, row, next := t.cost[m*n:(m+1)*n], t.minMax[m*n:(m+1)*n], t.minMax[(m+1)*n:(m+2)*n]
		lo := 0
		if m == 0 {
			lo = full
		}
		for R := lo; R < n; R++ {
			best := inf
			for S := R; ; S = (S - 1) & R {
				if c := cost[S]; c < best {
					best = min(best, max(c, next[R^S]))
				}
				if S == 0 {
					break
				}
			}
			row[R] = best
		}
	}
	v := t.minMax[full]
	if math.IsInf(v, 1) {
		return Placement{}, errNoFeasible
	}

	// minSum[m][R] = min over S ⊆ R, with cost[m][S] ≤ v and R∖S placeable
	// on machines m+1.. within v, of m·weight[S] + minSum[m+1][R∖S].
	cur, next := t.minSum, t.next
	next[0] = 0
	for m := M - 1; m >= 0; m-- {
		cost, arg := t.cost[m*n:(m+1)*n], t.arg[m*n:(m+1)*n]
		within, after := t.minMax[m*n:(m+1)*n], t.minMax[(m+1)*n:(m+2)*n]
		lo := 0
		if m == 0 {
			lo = full
		}
		for R := lo; R < n; R++ {
			if within[R] > v {
				continue
			}
			best, at := int64(math.MaxInt64), -1
			for S := R; ; S = (S - 1) & R {
				if cost[S] <= v && after[R^S] <= v {
					if sum := int64(m)*t.weight[S] + next[R^S]; sum < best {
						best, at = sum, S
					}
				}
				if S == 0 {
					break
				}
			}
			cur[R], arg[R] = best, at
		}
		cur, next = next, cur
	}

	machineOf := make([]int, J)
	R := full
	for m := range M {
		S := t.arg[m*n+R]
		for d := range J {
			if S&(1<<d) != 0 {
				machineOf[t.order[d]] = m
			}
		}
		R ^= S
	}
	return Placement{MachineOf: machineOf}, nil
}

// OptimalTime is a convenience returning the optimal completion time.
func OptimalTime(app *profile.Application, env *Environment, model Model, maxNodes int) (time.Duration, error) {
	p, err := Optimal(app, env, model, maxNodes)
	if err != nil {
		return 0, err
	}
	return CompletionTime(app, env, p, model)
}
