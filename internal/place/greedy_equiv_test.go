package place

import (
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"testing"

	"choreo/internal/profile"
	"choreo/internal/units"
)

// refLoadState is the connection bookkeeping of the original Algorithm 1
// implementation: a map of per-pair counts and per-source totals.
type refLoadState struct {
	pipe map[[2]int]int
	out  []int
}

func (l *refLoadState) add(m, n int) {
	if m == n {
		return
	}
	l.pipe[[2]int{m, n}]++
	l.out[m]++
}

// refRate is the original rate predictor: it rescans the rate row for
// every hose lookup.
func refRate(env *Environment, m, n int, model Model, load *refLoadState) units.Rate {
	if m == n {
		return env.Rates[m][m]
	}
	switch model {
	case Hose:
		return units.Rate(float64(env.hoseRate(m)) / float64(load.out[m]+1))
	default:
		k := load.pipe[[2]int{m, n}]
		return units.Rate(float64(env.Rates[m][n]) / (env.cross(m, n) + float64(k) + 1))
	}
}

// greedyReference is Algorithm 1 as first written: a full M×M pair scan
// for every transfer whose endpoints are both unplaced, O(T·M³) under
// Hose. It is the oracle GreedyWithTransfers is checked against.
func greedyReference(app *profile.Application, env *Environment, model Model, transfers []profile.Transfer) (Placement, error) {
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
	load := &refLoadState{pipe: make(map[[2]int]int), out: make([]int, M)}

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
		case mi >= 0:
			best, bestRate := -1, units.Rate(-1)
			for n := 0; n < M; n++ {
				if !fits(j, n) {
					continue
				}
				if r := refRate(env, mi, n, model, load); r > bestRate {
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
				if r := refRate(env, m, mj, model, load); r > bestRate {
					best, bestRate = m, r
				}
			}
			if best < 0 {
				return Placement{}, fmt.Errorf("place: no machine has CPU for task %d", i)
			}
			placeTask(i, best)
		default:
			bestM, bestN, bestRate := -1, -1, units.Rate(-1)
			for m := 0; m < M; m++ {
				if !fits(i, m) {
					continue
				}
				for n := 0; n < M; n++ {
					if m == n {
						if cpuLeft[m]+1e-9 < app.CPU[i]+app.CPU[j] {
							continue
						}
					} else if !fits(j, n) {
						continue
					}
					if r := refRate(env, m, n, model, load); r > bestRate {
						bestM, bestN, bestRate = m, n, r
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

// tieProneInstance draws a small instance built to stress tie-breaks and
// CPU limits: rates come from a few discrete levels, some self-rates sit
// below the off-diagonal rates, CPU caps are tight, and sometimes the
// environment carries explicit hose rates or cross traffic. About half
// the instances also get a shuffled explicit transfer order.
func tieProneInstance(rng *rand.Rand) (*profile.Application, *Environment, []profile.Transfer) {
	levels := []units.Rate{units.Mbps(100), units.Mbps(200), units.Mbps(400), units.Mbps(800)}
	selfLevels := []units.Rate{units.Mbps(50), units.Mbps(200), units.Mbps(800), units.Gbps(32)}
	cpuLevels := []float64{0.5, 1, 1.5, 2, 4}

	M := 1 + rng.Intn(12)
	env := &Environment{Rates: make([][]units.Rate, M), CPUCap: make([]float64, M)}
	for m := range env.Rates {
		env.Rates[m] = make([]units.Rate, M)
		for n := range env.Rates[m] {
			if m == n {
				env.Rates[m][n] = selfLevels[rng.Intn(len(selfLevels))]
			} else {
				env.Rates[m][n] = levels[rng.Intn(len(levels))]
			}
		}
		env.CPUCap[m] = cpuLevels[rng.Intn(len(cpuLevels))]
	}
	if rng.Intn(5) == 0 {
		env.HoseRates = make([]units.Rate, M)
		for m := range env.HoseRates {
			env.HoseRates[m] = levels[rng.Intn(len(levels))]
		}
	}
	if rng.Intn(5) == 0 {
		env.Cross = make([][]float64, M)
		for m := range env.Cross {
			env.Cross[m] = make([]float64, M)
			for n := range env.Cross[m] {
				env.Cross[m][n] = float64(rng.Intn(3))
			}
		}
	}

	tasks := 2 + rng.Intn(9)
	app := &profile.Application{Name: "ties", CPU: make([]float64, tasks), TM: profile.NewTrafficMatrix(tasks)}
	for i := range app.CPU {
		app.CPU[i] = 0.5 * float64(1+rng.Intn(4))
	}
	density := 0.1 + 0.5*rng.Float64()
	for i := 0; i < tasks; i++ {
		for j := 0; j < tasks; j++ {
			if i != j && rng.Float64() < density {
				// Few byte sizes, so the default order has ties too.
				_ = app.TM.Set(i, j, units.ByteSize(1+rng.Intn(4))*units.Megabyte)
			}
		}
	}
	var order []profile.Transfer
	if rng.Intn(2) == 0 {
		order = app.TM.Transfers()
		rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
	}
	return app, env, order
}

func TestGreedyMatchesReferenceScan(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	const trials = 10000
	failures := 0
	for trial := 0; trial < trials; trial++ {
		app, env, order := tieProneInstance(rng)
		for _, model := range []Model{Hose, Pipe} {
			got, gotErr := GreedyWithTransfers(app, env, model, order)
			want, wantErr := greedyReference(app, env, model, order)
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("trial %d %v: error %v, reference %v", trial, model, gotErr, wantErr)
			}
			if wantErr != nil {
				failures++
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d %v (%d machines): placement %v, reference %v",
					trial, model, env.Machines(), got.MachineOf, want.MachineOf)
			}
		}
	}
	// The generator must exercise both outcomes.
	if failures == 0 || failures == 2*trials {
		t.Fatalf("%d of %d runs failed; the instances do not cover both outcomes", failures, 2*trials)
	}
}

// BenchmarkGreedy times one hose-model placement of a 16-task application
// at the service's cell size and above.
func BenchmarkGreedy(b *testing.B) {
	for _, vms := range []int{32, 64, 128} {
		b.Run(strconv.Itoa(vms), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			app := randomApp(rng, 16)
			env := randomEnv(rng, vms)
			b.ReportAllocs()
			for b.Loop() {
				if _, err := Greedy(app, env, Hose); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
