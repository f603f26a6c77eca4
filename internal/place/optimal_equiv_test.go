package place

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"choreo/internal/profile"
	"choreo/internal/units"
	"choreo/internal/workload"
)

// optimalReference is the branch and bound as first written: a recursive
// closure that re-checks every transfer's other endpoint at each node and
// prices each placed transfer through a per-model groupTime closure. It
// is the oracle Optimal is checked against, node for node.
func optimalReference(app *profile.Application, env *Environment, model Model, maxNodes int) (Placement, error) {
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
	M := env.Machines()
	if J == 0 {
		return Placement{MachineOf: []int{}}, nil
	}

	// Order tasks by total traffic descending so heavy tasks are fixed
	// early and bounds bite sooner.
	order := make([]int, J)
	for i := range order {
		order[i] = i
	}
	traffic := make([]units.ByteSize, J)
	for _, tr := range app.TM.Transfers() {
		traffic[tr.From] += tr.Bytes
		traffic[tr.To] += tr.Bytes
	}
	sort.SliceStable(order, func(a, b int) bool { return traffic[order[a]] > traffic[order[b]] })

	// Precompute per-task transfer lists for incremental bounding.
	type edge struct {
		other int
		bytes units.ByteSize
		out   bool // true: task→other, false: other→task
	}
	edges := make([][]edge, J)
	for _, tr := range app.TM.Transfers() {
		edges[tr.From] = append(edges[tr.From], edge{other: tr.To, bytes: tr.Bytes, out: true})
		edges[tr.To] = append(edges[tr.To], edge{other: tr.From, bytes: tr.Bytes, out: false})
	}

	assign := make([]int, J)
	for i := range assign {
		assign[i] = -1
	}
	cpuLeft := append([]float64(nil), env.CPUCap...)

	// The search calls groupTime once per placed edge per node — tens of
	// millions of times on sweep-scale instances — so the rate lookups it
	// divides by are hoisted out of the recursion: hose rates (an O(M)
	// row scan each when HoseRates is unset) and the pipe-model rate
	// matrix are converted to float64 once. The divisions below are the
	// same operations on the same values as computing them in place, so
	// the search visits identical nodes and returns identical placements.
	rateF := make([]float64, M*M)
	hoseF := make([]float64, M)
	for m := 0; m < M; m++ {
		for n := 0; n < M; n++ {
			rateF[m*M+n] = float64(env.Rates[m][n])
		}
		hoseF[m] = float64(e2hose(env, m))
	}

	// Incremental group loads in bits. Pair loads live in a flat M×M
	// array (missing map keys read as 0, exactly like fresh array cells).
	pairBits := make([]float64, M*M)
	egressBits := make([]float64, M)
	intraBits := make([]float64, M)

	groupTime := func(m, n int) float64 {
		if model == Hose {
			if m == n {
				return intraBits[m] / rateF[m*M+m]
			}
			return egressBits[m] / hoseF[m]
		}
		return pairBits[m*M+n] / rateF[m*M+n]
	}

	// One delta stack for the whole search: each node appends its edge
	// contributions and unwinds to its saved base on the way out, so the
	// DFS allocates nothing per node. A depth-first path places each
	// transfer's two endpoints at most once, so 2×transfers bounds the
	// stack's high-water mark.
	type delta struct {
		src, dst int
		bits     float64
	}
	totalEdges := 0
	for _, es := range edges {
		totalEdges += len(es)
	}
	deltaStack := make([]delta, 0, totalEdges)

	bestObj := math.Inf(1)
	var bestAssign []int
	nodes := 0

	var budgetErr error
	var rec func(depth int, partialMax float64)
	rec = func(depth int, partialMax float64) {
		if budgetErr != nil || partialMax >= bestObj {
			return
		}
		if depth == J {
			bestObj = partialMax
			bestAssign = append(bestAssign[:0], assign...)
			return
		}
		nodes++
		if nodes > maxNodes {
			budgetErr = fmt.Errorf("%w (%d nodes)", ErrSearchBudget, maxNodes)
			return
		}
		task := order[depth]
		for m := 0; m < M; m++ {
			if cpuLeft[m]+1e-9 < app.CPU[task] {
				continue
			}
			// Apply: account transfers to already-placed neighbours.
			base := len(deltaStack)
			newMax := partialMax
			assign[task] = m
			cpuLeft[m] -= app.CPU[task]
			for _, e := range edges[task] {
				om := assign[e.other]
				if om < 0 {
					continue
				}
				src, dst := m, om
				if !e.out {
					src, dst = om, m
				}
				bits := e.bytes.Bits()
				deltaStack = append(deltaStack, delta{src: src, dst: dst, bits: bits})
				if model == Hose {
					if src == dst {
						intraBits[src] += bits
					} else {
						egressBits[src] += bits
					}
				} else {
					pairBits[src*M+dst] += bits
				}
				if t := groupTime(src, dst); t > newMax {
					newMax = t
				}
			}
			rec(depth+1, newMax)
			// Undo.
			for _, d := range deltaStack[base:] {
				if model == Hose {
					if d.src == d.dst {
						intraBits[d.src] -= d.bits
					} else {
						egressBits[d.src] -= d.bits
					}
				} else {
					pairBits[d.src*M+d.dst] -= d.bits
				}
			}
			deltaStack = deltaStack[:base]
			cpuLeft[m] += app.CPU[task]
			assign[task] = -1
		}
	}
	rec(0, 0)
	if budgetErr != nil {
		return Placement{}, budgetErr
	}
	if bestAssign == nil {
		return Placement{}, fmt.Errorf("place: no CPU-feasible placement exists")
	}
	return Placement{MachineOf: bestAssign}, nil
}

// optimalInstance draws a small instance for the exact search: 2–7 tasks
// on 2–10 machines. Half the instances quantize rates to 1–3 × 100 Mbit/s
// and transfer sizes to 1–3 × 100 MB, so that many placements tie on
// completion time and the first optimal leaf in search order decides.
// About a third get CPU caps tight enough to make some machines, and
// some instances, infeasible; a fifth carry explicit hose rates.
func optimalInstance(rng *rand.Rand) (*profile.Application, *Environment) {
	M := 2 + rng.Intn(9)
	tasks := 2 + rng.Intn(6)
	quantized := rng.Intn(2) == 0
	rate := func() units.Rate {
		if quantized {
			return units.Mbps(float64(100 * (1 + rng.Intn(3))))
		}
		return units.Mbps(100 + 900*rng.Float64())
	}
	tight := rng.Intn(3) == 0
	env := &Environment{Rates: make([][]units.Rate, M), CPUCap: make([]float64, M)}
	for m := range env.Rates {
		env.Rates[m] = make([]units.Rate, M)
		for n := range env.Rates[m] {
			env.Rates[m][n] = rate()
		}
		if rng.Intn(2) == 0 {
			env.Rates[m][m] = units.Gbps(32)
		}
		env.CPUCap[m] = 4
		if tight {
			env.CPUCap[m] = 0.5 * float64(1+rng.Intn(4))
		}
	}
	if rng.Intn(5) == 0 {
		env.HoseRates = make([]units.Rate, M)
		for m := range env.HoseRates {
			env.HoseRates[m] = rate()
		}
	}

	app := &profile.Application{Name: "bnb", CPU: make([]float64, tasks), TM: profile.NewTrafficMatrix(tasks)}
	for i := range app.CPU {
		app.CPU[i] = 0.5 * float64(1+rng.Intn(4))
	}
	density := 0.2 + 0.6*rng.Float64()
	for i := 0; i < tasks; i++ {
		for j := 0; j < tasks; j++ {
			if i == j || rng.Float64() >= density {
				continue
			}
			size := units.ByteSize(1+rng.Intn(500)) * units.Megabyte
			if quantized {
				size = units.ByteSize(1+rng.Intn(3)) * 100 * units.Megabyte
			}
			_ = app.TM.Set(i, j, size)
		}
	}
	return app, env
}

// TestOptimalMatchesReferenceSearch pins Optimal to the reference
// search: the same placement and the same error on every instance. Each
// instance also runs under a budget of 1–64 nodes; since a search fails
// with ErrSearchBudget exactly when it would enter one node more than its
// budget, agreeing on which budgets fail pins the node counts too.
func TestOptimalMatchesReferenceSearch(t *testing.T) {
	// The largest instances need up to millions of nodes. This budget
	// keeps the test to seconds under the race detector; over 90% of
	// the searches still finish within it, and the rest must agree on
	// exhausting it.
	const referenceBudget = 500
	rng := rand.New(rand.NewSource(24))
	const trials = 10000
	var budgetHits, infeasible, solved int
	for trial := 0; trial < trials; trial++ {
		app, env := optimalInstance(rng)
		budget := 1 + rng.Intn(64)
		for _, model := range []Model{Hose, Pipe} {
			for _, maxNodes := range []int{referenceBudget, budget} {
				got, gotErr := Optimal(app, env, model, maxNodes)
				want, wantErr := optimalReference(app, env, model, maxNodes)
				if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
					t.Fatalf("trial %d %v maxNodes %d: error %v, reference %v", trial, model, maxNodes, gotErr, wantErr)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d %v maxNodes %d (%d tasks, %d machines): placement %v, reference %v",
						trial, model, maxNodes, app.Tasks(), env.Machines(), got.MachineOf, want.MachineOf)
				}
				switch {
				case errors.Is(wantErr, ErrSearchBudget):
					budgetHits++
				case wantErr != nil:
					infeasible++
				default:
					solved++
				}
			}
		}
	}
	// The generator must exercise every outcome.
	if budgetHits == 0 || infeasible == 0 || solved == 0 {
		t.Fatalf("outcomes: %d solved, %d over budget, %d infeasible; the instances do not cover all three",
			solved, budgetHits, infeasible)
	}
}

// lastDepthInstance draws an instance of the given task count on 1–5
// machines with dense traffic. With tenths, CPU demands and caps are
// tenths of a core (0.3, 0.7, 1.1, ...), which float64 only
// approximates, so debiting and crediting a machine can round.
func lastDepthInstance(rng *rand.Rand, tasks int, tenths bool) (*profile.Application, *Environment) {
	M := 1 + rng.Intn(5)
	env := &Environment{Rates: make([][]units.Rate, M), CPUCap: make([]float64, M)}
	for m := range env.Rates {
		env.Rates[m] = make([]units.Rate, M)
		for n := range env.Rates[m] {
			env.Rates[m][n] = units.Mbps(float64(100 * (1 + rng.Intn(3))))
		}
		if tenths {
			env.CPUCap[m] = float64(3+rng.Intn(20)) / 10
		} else {
			env.CPUCap[m] = 0.5 * float64(1+rng.Intn(4))
		}
	}
	app := &profile.Application{Name: "last", CPU: make([]float64, tasks), TM: profile.NewTrafficMatrix(tasks)}
	for i := range app.CPU {
		if tenths {
			app.CPU[i] = float64(1+rng.Intn(12)) / 10
		} else {
			app.CPU[i] = 0.5 * float64(1+rng.Intn(2))
		}
	}
	for i := 0; i < tasks; i++ {
		for j := 0; j < tasks; j++ {
			if i != j && rng.Intn(4) != 0 {
				_ = app.TM.Set(i, j, units.ByteSize(1+rng.Intn(3))*100*units.Megabyte)
			}
		}
	}
	return app, env
}

// TestOptimalLastDepthMatchesReference pins Optimal to the reference
// search where optimalInstance does not reach: 1-task applications, whose
// root is the last depth; 2-task applications, whose root is the last
// depth's parent; and CPU demands and caps that are not dyadic. Every
// budget from 1 up to the search's node count is tried, so some run out
// exactly on entering a last-depth node: with 2 tasks, every node but
// the root is one.
func TestOptimalLastDepthMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	const trials = 2000
	var lastDepthHits, infeasible, solved int
	for trial := 0; trial < trials; trial++ {
		tasks := 1 + trial%4
		app, env := lastDepthInstance(rng, tasks, trial/4%2 == 1)
		for _, model := range []Model{Hose, Pipe} {
			for maxNodes := 1; ; maxNodes++ {
				got, gotErr := Optimal(app, env, model, maxNodes)
				want, wantErr := optimalReference(app, env, model, maxNodes)
				if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
					t.Fatalf("trial %d %v maxNodes %d: error %v, reference %v", trial, model, maxNodes, gotErr, wantErr)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d %v maxNodes %d (%d tasks, %d machines): placement %v, reference %v",
						trial, model, maxNodes, tasks, env.Machines(), got.MachineOf, want.MachineOf)
				}
				if !errors.Is(wantErr, ErrSearchBudget) {
					if wantErr != nil {
						infeasible++
					} else {
						solved++
					}
					break
				}
				if tasks == 2 {
					lastDepthHits++
				}
			}
		}
	}
	if lastDepthHits == 0 || infeasible == 0 || solved == 0 {
		t.Fatalf("outcomes: %d solved, %d infeasible, %d budgets out on a 2-task last depth; the instances do not cover all three",
			solved, infeasible, lastDepthHits)
	}
}

// fuzzInstance decodes fuzz bytes into an instance of at most 6 tasks on
// at most 6 machines, and the node budget to search it with, reading
// zeros once the bytes run out. Rates, sizes and CPU come from small
// discrete sets, so ties and tight packings are common. CPU values are
// multiples of half a core, exact in float64, unless the head byte sets
// 8: then they are tenths of a core (0.3, 0.7, 1.1, ...), which float64
// only approximates. The budget is 50,000 nodes unless the head byte
// sets 16: then the next byte gives 1–64.
func fuzzInstance(data []byte) (*profile.Application, *Environment, Model, int) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := int(data[0])
		data = data[1:]
		return b
	}
	head := next()
	model := Pipe
	if head&1 == 1 {
		model = Hose
	}
	budget := 50_000
	if head&16 == 16 {
		budget = 1 + next()%64
	}
	tenths := head&8 == 8
	M := 1 + next()%6
	tasks := 1 + next()%6
	env := &Environment{Rates: make([][]units.Rate, M), CPUCap: make([]float64, M)}
	for m := range env.Rates {
		env.Rates[m] = make([]units.Rate, M)
		for n := range env.Rates[m] {
			env.Rates[m][n] = units.Mbps(float64(100 * (1 + next()%10)))
		}
		if head&2 == 2 {
			env.Rates[m][m] = units.Gbps(32)
		}
		if tenths {
			env.CPUCap[m] = float64(3+next()%38) / 10
		} else {
			env.CPUCap[m] = 0.5 * float64(1+next()%8)
		}
	}
	if head&4 == 4 {
		env.HoseRates = make([]units.Rate, M)
		for m := range env.HoseRates {
			env.HoseRates[m] = units.Mbps(float64(100 * (1 + next()%10)))
		}
	}
	app := &profile.Application{Name: "fuzz", CPU: make([]float64, tasks), TM: profile.NewTrafficMatrix(tasks)}
	for i := range app.CPU {
		if tenths {
			app.CPU[i] = float64(1+next()%15) / 10
		} else {
			app.CPU[i] = 0.5 * float64(1+next()%4)
		}
	}
	for i := 0; i < tasks; i++ {
		for j := 0; j < tasks; j++ {
			if b := next(); i != j && b%3 != 0 {
				_ = app.TM.Set(i, j, units.ByteSize(b)*10*units.Megabyte)
			}
		}
	}
	return app, env, model, budget
}

// FuzzOptimal checks, on decoded instances, that Optimal agrees with the
// reference search and that no placement Greedy finds completes sooner
// than the optimum. Its seed corpus is testdata/fuzz/FuzzOptimal.
func FuzzOptimal(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		app, env, model, budget := fuzzInstance(data)
		got, gotErr := Optimal(app, env, model, budget)
		want, wantErr := optimalReference(app, env, model, budget)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("%v: error %v, reference %v", model, gotErr, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%v: placement %v, reference %v", model, got.MachineOf, want.MachineOf)
		}
		if errors.Is(gotErr, ErrSearchBudget) {
			return
		}
		g, greedyErr := Greedy(app, env, model)
		if gotErr != nil {
			// No CPU-feasible placement exists, so Greedy cannot find one.
			if greedyErr == nil {
				t.Fatalf("%v: Optimal found no feasible placement, Greedy found %v", model, g.MachineOf)
			}
			return
		}
		if greedyErr != nil {
			return // Greedy can dead-end on CPU fragmentation
		}
		ot, err := CompletionTime(app, env, got, model)
		if err != nil {
			t.Fatal(err)
		}
		gt, err := CompletionTime(app, env, g, model)
		if err != nil {
			t.Fatal(err)
		}
		if ot > gt {
			t.Fatalf("%v: optimal placement %v completes in %v, greedy %v in %v", model, got.MachineOf, ot, g.MachineOf, gt)
		}
	})
}

// BenchmarkOptimal times one exact search on the shapes a sim sweep's
// snapshot cells hand it: shuffle and uniform applications of 5–6 tasks
// on 6 and 10 VMs, under both models. Each sub-benchmark cycles through
// eight fixed draws, so ns/op is a mean over instances whose search
// trees differ widely in size.
func BenchmarkOptimal(b *testing.B) {
	for _, model := range []Model{Hose, Pipe} {
		for _, pattern := range []workload.Pattern{workload.Shuffle, workload.Uniform} {
			for _, vms := range []int{6, 10} {
				name := fmt.Sprintf("%v/%v/%dvms", model, pattern, vms)
				b.Run(name, func(b *testing.B) {
					cfg := workload.Config{MinTasks: 5, MaxTasks: 6, MeanBytes: 64 * units.Megabyte, Patterns: []workload.Pattern{pattern}}
					type instance struct {
						app *profile.Application
						env *Environment
					}
					var instances []instance
					for seed := int64(1); seed <= 8; seed++ {
						rng := rand.New(rand.NewSource(seed))
						app, err := workload.Generate(rng, cfg)
						if err != nil {
							b.Fatal(err)
						}
						instances = append(instances, instance{app, randomEnv(rng, vms)})
					}
					b.ReportAllocs()
					i := 0
					for b.Loop() {
						in := instances[i%len(instances)]
						if _, err := Optimal(in.app, in.env, model, 0); err != nil {
							b.Fatal(err)
						}
						i++
					}
				})
			}
		}
	}
}

// TestOptimalTablesMatchReference pins Optimal's set-partition path to
// the reference search, run without a budget: the same placement and the
// same error. Its instances are the shapes a sim sweep's snapshot cells
// hand Optimal (shuffle and uniform applications of 5–6 tasks on 6 and
// 10 VMs), on which the tables must be the path taken, some with CPU in
// tenths of a core; and the optimalInstance and lastDepthInstance draws
// on which the tables run, with tight, tenths-of-a-core and infeasible
// CPU among them; and instances with CPU figures that are not finite,
// which the search must answer.
func TestOptimalTablesMatchReference(t *testing.T) {
	var tables, infeasible int
	check := func(name string, app *profile.Application, env *Environment) {
		t.Helper()
		got, gotErr := Optimal(app, env, Hose, 0)
		want, wantErr := optimalReference(app, env, Hose, 0)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("%s: error %v, reference %v", name, gotErr, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s (%d tasks, %d machines): placement %v, reference %v",
				name, app.Tasks(), env.Machines(), got.MachineOf, want.MachineOf)
		}
		if tablesExact(app, env, defaultMaxNodes) {
			tables++
			if wantErr != nil {
				infeasible++
			}
		}
	}

	rng := rand.New(rand.NewSource(35))
	for _, pattern := range []workload.Pattern{workload.Shuffle, workload.Uniform} {
		for _, vms := range []int{6, 10} {
			cfg := workload.Config{MinTasks: 5, MaxTasks: 6, MeanBytes: 64 * units.Megabyte, Patterns: []workload.Pattern{pattern}}
			for draw := range 24 {
				app, err := workload.Generate(rng, cfg)
				if err != nil {
					t.Fatal(err)
				}
				env := randomEnv(rng, vms)
				if draw%3 == 2 {
					for i := range app.CPU {
						app.CPU[i] = float64(1+rng.Intn(15)) / 10
					}
					for m := range env.CPUCap {
						env.CPUCap[m] = float64(3+rng.Intn(20)) / 10
					}
				}
				name := fmt.Sprintf("%v/%dvms draw %d", pattern, vms, draw)
				if !tablesExact(app, env, defaultMaxNodes) {
					t.Fatalf("%s (%d tasks): the search ran, not the tables", name, app.Tasks())
				}
				check(name, app, env)
			}
		}
	}
	sweep := tables
	for trial := 0; tables-sweep < 150; trial++ {
		app, env := optimalInstance(rng)
		if tablesExact(app, env, defaultMaxNodes) && app.Tasks() <= 6 {
			check(fmt.Sprintf("optimalInstance %d", trial), app, env)
		}
	}
	drawn := tables
	for trial := 0; tables-drawn < 60; trial++ {
		app, env := lastDepthInstance(rng, 6, trial%2 == 1)
		if tablesExact(app, env, defaultMaxNodes) {
			check(fmt.Sprintf("lastDepthInstance %d", trial), app, env)
		}
	}
	if infeasible == 0 || infeasible == tables {
		t.Fatalf("%d of %d instances infeasible; the instances do not cover both outcomes", infeasible, tables)
	}

	// A CPU figure that is not finite sticks to a machine the search has
	// debited and credited, so such instances are left to the search.
	cfg := workload.Config{MinTasks: 5, MaxTasks: 6, MeanBytes: 64 * units.Megabyte}
	for trial := range 40 {
		app, err := workload.Generate(rng, cfg)
		if err != nil {
			t.Fatal(err)
		}
		env := randomEnv(rng, 6)
		switch trial % 4 {
		case 0:
			app.CPU[rng.Intn(app.Tasks())] = math.NaN()
		case 1:
			app.CPU[rng.Intn(app.Tasks())] = math.Inf(1)
			env.CPUCap[rng.Intn(6)] = math.Inf(1)
		case 2:
			env.CPUCap[rng.Intn(6)] = math.NaN()
		case 3:
			env.CPUCap[rng.Intn(6)] = math.Inf(1)
		}
		if tablesExact(app, env, defaultMaxNodes) {
			t.Fatalf("non-finite CPU, trial %d: the tables ran", trial)
		}
		check(fmt.Sprintf("non-finite CPU, trial %d", trial), app, env)
	}
}

// TestTiedRatesSeedTakesTables checks that FuzzOptimal's tied-rates seed
// is answered by the set-partition tables, so every go test compares
// them with the reference on an instance whose optima tie.
func TestTiedRatesSeedTakesTables(t *testing.T) {
	data, err := os.ReadFile("testdata/fuzz/FuzzOptimal/hose-tied-rates-6x6")
	if err != nil {
		t.Fatal(err)
	}
	lit, ok := strings.CutPrefix(string(data), "go test fuzz v1\n[]byte(")
	lit, ok2 := strings.CutSuffix(lit, ")\n")
	seed, err := strconv.Unquote(lit)
	if !ok || !ok2 || err != nil {
		t.Fatalf("not a one-[]byte corpus file: %v", err)
	}
	app, env, model, budget := fuzzInstance([]byte(seed))
	if model != Hose || app.Tasks() != 6 || env.Machines() != 6 || budget != 50_000 {
		t.Fatalf("seed decodes to %v, %d tasks on %d machines, budget %d; want hose, 6 on 6, 50,000",
			model, app.Tasks(), env.Machines(), budget)
	}
	if !tablesExact(app, env, budget) {
		t.Fatal("the search answers the seed, not the tables")
	}
}

// TestOptimalConcurrentMatchesSerial calls Optimal from several
// goroutines at once, each walking the instances in its own order, and
// checks every answer against a serial call. Task and machine counts
// vary from call to call, so the pooled tables are regrown and
// resliced, and both the tables and the search answer some of the
// calls.
func TestOptimalConcurrentMatchesSerial(t *testing.T) {
	type call struct {
		app      *profile.Application
		env      *Environment
		model    Model
		maxNodes int
		want     string
	}
	rng := rand.New(rand.NewSource(36))
	var calls []call
	cfg := workload.Config{MinTasks: 5, MaxTasks: 6, MeanBytes: 64 * units.Megabyte}
	for range 24 {
		app, err := workload.Generate(rng, cfg)
		if err != nil {
			t.Fatal(err)
		}
		calls = append(calls, call{app: app, env: randomEnv(rng, 6+4*rng.Intn(2)), model: Hose, maxNodes: defaultMaxNodes})
		app, env := optimalInstance(rng)
		calls = append(calls, call{app: app, env: env, model: Model(rng.Intn(2)), maxNodes: 500})
		app, env = lastDepthInstance(rng, 6+rng.Intn(4), rng.Intn(2) == 0)
		calls = append(calls, call{app: app, env: env, model: Hose, maxNodes: defaultMaxNodes})
	}
	var tables int
	for i, c := range calls {
		if c.model == Hose && tablesExact(c.app, c.env, c.maxNodes) {
			tables++
		}
		p, err := Optimal(c.app, c.env, c.model, c.maxNodes)
		calls[i].want = fmt.Sprint(p.MachineOf, err)
	}
	if tables == 0 || tables == len(calls) {
		t.Fatalf("the tables answer %d of %d calls; both paths must run", tables, len(calls))
	}

	const workers = 4
	var wg sync.WaitGroup
	errs := make(chan string, workers*len(calls))
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range calls {
				c := calls[(k*(2*w+1)+w)%len(calls)]
				p, err := Optimal(c.app, c.env, c.model, c.maxNodes)
				if got := fmt.Sprint(p.MachineOf, err); got != c.want {
					errs <- fmt.Sprintf("worker %d: %s, serially %s", w, got, c.want)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}
}
