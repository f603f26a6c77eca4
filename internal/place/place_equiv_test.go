package place

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"choreo/internal/profile"
	"choreo/internal/units"
)

// completionTimeReference is CompletionTime as first written: one map of
// per-pair bytes for both models.
func completionTimeReference(app *profile.Application, env *Environment, p Placement, model Model) (time.Duration, error) {
	if err := p.Validate(app, env); err != nil {
		return 0, err
	}
	M := env.Machines()
	bytesOn := make(map[[2]int]units.ByteSize)
	egress := make([]units.ByteSize, M)
	for _, tr := range app.TM.Transfers() {
		m, n := p.MachineOf[tr.From], p.MachineOf[tr.To]
		bytesOn[[2]int{m, n}] += tr.Bytes
		if m != n {
			egress[m] += tr.Bytes
		}
	}
	worst := 0.0
	switch model {
	case Hose:
		for m := 0; m < M; m++ {
			if egress[m] > 0 {
				worst = math.Max(worst, egress[m].Bits()/float64(e2hose(env, m)))
			}
			if b := bytesOn[[2]int{m, m}]; b > 0 {
				worst = math.Max(worst, b.Bits()/float64(env.Rates[m][m]))
			}
		}
	default:
		for pair, b := range bytesOn {
			worst = math.Max(worst, b.Bits()/float64(env.Rates[pair[0]][pair[1]]))
		}
	}
	return units.Seconds(worst), nil
}

// minMachinesReference is MinMachines as first written: a fresh order
// slice and a reflection-based stable sort for every task.
func minMachinesReference(app *profile.Application, env *Environment) (Placement, error) {
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
	for task := range machineOf {
		placed := -1
		order := make([]int, M)
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool {
			ua, ub := used[order[a]], used[order[b]]
			if ua != ub {
				return ua
			}
			return cpuLeft[order[a]] < cpuLeft[order[b]]
		})
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

// randomPlacement puts every task on a uniformly drawn machine, ignoring
// CPU; instances in these tests get enough CPU for any packing.
func randomPlacement(rng *rand.Rand, app *profile.Application, env *Environment) Placement {
	p := Placement{MachineOf: make([]int, app.Tasks())}
	for i := range p.MachineOf {
		p.MachineOf[i] = rng.Intn(env.Machines())
	}
	return p
}

// relabel moves machine m of env and p to perm[m].
func relabel(env *Environment, p Placement, perm []int) (*Environment, Placement) {
	M := env.Machines()
	out := env.Clone()
	for m := 0; m < M; m++ {
		for n := 0; n < M; n++ {
			out.Rates[perm[m]][perm[n]] = env.Rates[m][n]
			if env.Cross != nil {
				out.Cross[perm[m]][perm[n]] = env.Cross[m][n]
			}
		}
		out.CPUCap[perm[m]] = env.CPUCap[m]
		if env.HoseRates != nil {
			out.HoseRates[perm[m]] = env.HoseRates[m]
		}
	}
	q := Placement{MachineOf: make([]int, len(p.MachineOf))}
	for i, m := range p.MachineOf {
		q.MachineOf[i] = perm[m]
	}
	return out, q
}

// TestCompletionTimeMatchesReference checks the map-free evaluation
// against the original on random placements, and that renaming the
// machines leaves the completion time unchanged under both models.
func TestCompletionTimeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for trial := 0; trial < 2000; trial++ {
		app, env, _ := tieProneInstance(rng)
		for m := range env.CPUCap {
			env.CPUCap[m] = 64
		}
		p := randomPlacement(rng, app, env)
		relEnv, relP := relabel(env, p, rng.Perm(env.Machines()))
		for _, model := range []Model{Hose, Pipe} {
			got, err := CompletionTime(app, env, p, model)
			if err != nil {
				t.Fatal(err)
			}
			want, err := completionTimeReference(app, env, p, model)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("trial %d %v: completion %v, reference %v", trial, model, got, want)
			}
			rel, err := CompletionTime(app, relEnv, relP, model)
			if err != nil {
				t.Fatal(err)
			}
			if rel != got {
				t.Fatalf("trial %d %v: relabelled machines complete in %v, original %v", trial, model, rel, got)
			}
		}
	}
}

func TestMinMachinesMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	failures := 0
	const trials = 5000
	for trial := 0; trial < trials; trial++ {
		app, env, _ := tieProneInstance(rng)
		got, gotErr := MinMachines(app, env)
		want, wantErr := minMachinesReference(app, env)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("trial %d: error %v, reference %v", trial, gotErr, wantErr)
		}
		if wantErr != nil {
			failures++
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: placement %v, reference %v", trial, got.MachineOf, want.MachineOf)
		}
	}
	if failures == 0 || failures == trials {
		t.Fatalf("%d of %d runs failed; the instances do not cover both outcomes", failures, trials)
	}
}

// randomReference is Random as first written: a fresh list of the
// CPU-feasible machines for every task of every draw. It also returns
// how many draws it made.
func randomReference(app *profile.Application, env *Environment, rng *rand.Rand) (Placement, int, error) {
	if err := app.Validate(); err != nil {
		return Placement{}, 0, err
	}
	if err := env.Validate(); err != nil {
		return Placement{}, 0, err
	}
	M := env.Machines()
	for attempt := 0; attempt < 100; attempt++ {
		machineOf := make([]int, app.Tasks())
		cpuLeft := append([]float64(nil), env.CPUCap...)
		ok := true
		for task := range machineOf {
			var options []int
			for m := 0; m < M; m++ {
				if cpuLeft[m]+1e-9 >= app.CPU[task] {
					options = append(options, m)
				}
			}
			if len(options) == 0 {
				ok = false
				break
			}
			m := options[rng.Intn(len(options))]
			machineOf[task] = m
			cpuLeft[m] -= app.CPU[task]
		}
		if ok {
			return Placement{MachineOf: machineOf}, attempt + 1, nil
		}
	}
	return Placement{}, 100, fmt.Errorf("place: no CPU-feasible random placement found")
}

// TestRandomMatchesReference runs Random and the reference from equal
// rng states on CPU-tight instances: placements, errors and the rng
// state left behind must agree, over instances that place at the first
// draw, after retries, and never.
func TestRandomMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	var retried, failed int
	const trials = 5000
	for trial := 0; trial < trials; trial++ {
		app, env, _ := tieProneInstance(rng)
		seed := rng.Int63()
		gotRng, wantRng := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		got, gotErr := Random(app, env, gotRng)
		want, draws, wantErr := randomReference(app, env, wantRng)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("trial %d: error %v, reference %v", trial, gotErr, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: placement %v, reference %v", trial, got.MachineOf, want.MachineOf)
		}
		if g, w := gotRng.Int63(), wantRng.Int63(); g != w {
			t.Fatalf("trial %d: rng left at %d, reference at %d", trial, g, w)
		}
		switch {
		case wantErr != nil:
			failed++
		case draws > 1:
			retried++
		}
	}
	if retried == 0 || failed == 0 || failed == trials {
		t.Fatalf("%d retried and %d failed of %d; the instances do not cover every outcome", retried, failed, trials)
	}
	t.Logf("%d of %d instances retried, %d failed", retried, trials, failed)
}
