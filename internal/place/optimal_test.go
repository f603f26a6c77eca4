package place

import (
	"math"
	"math/rand"
	"testing"

	"choreo/internal/ilp"
	"choreo/internal/profile"
	"choreo/internal/units"
)

// toILPInput converts an Environment + Application to the Appendix
// program's input.
func toILPInput(app *appEnv) *ilp.PlacementInput {
	J := app.app.Tasks()
	M := app.env.Machines()
	in := &ilp.PlacementInput{
		BytesB:    make([][]float64, J),
		RateR:     make([][]float64, M),
		CPUDemand: append([]float64(nil), app.app.CPU...),
		CPUCap:    append([]float64(nil), app.env.CPUCap...),
	}
	for i := 0; i < J; i++ {
		in.BytesB[i] = make([]float64, J)
		for j := 0; j < J; j++ {
			in.BytesB[i][j] = float64(app.app.TM.At(i, j))
		}
	}
	for m := 0; m < M; m++ {
		in.RateR[m] = make([]float64, M)
		for n := 0; n < M; n++ {
			in.RateR[m][n] = float64(app.env.Rates[m][n])
		}
	}
	return in
}

type appEnv struct {
	app *profile.Application
	env *Environment
}

// TestOptimalMatchesILP cross-validates the specialized branch-and-bound
// against the Appendix ILP (pipe model, S=0) on tiny random instances:
// the ILP's objective and its decoded assignment's completion time.
func TestOptimalMatchesILP(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 8; trial++ {
		app := randomApp(rng, 3)
		env := randomEnv(rng, 3)
		ot, err := OptimalTime(app, env, Pipe, 0)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := ilp.BuildPlacement(toILPInput(&appEnv{app: app, env: env}))
		if err != nil {
			t.Fatal(err)
		}
		sol, err := ilp.Solve(prog.Problem, 0)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(sol.Objective-ot.Seconds()) > 1e-6*(1+sol.Objective) {
			t.Errorf("trial %d: ILP %.6fs vs branch-and-bound %.6fs", trial, sol.Objective, ot.Seconds())
		}
		// The ILP's assignment, not just its objective, is optimal: its
		// Pipe completion time is the optimum's.
		machineOf, err := prog.DecodeAssignment(sol)
		if err != nil {
			t.Fatal(err)
		}
		ct, err := CompletionTime(app, env, Placement{MachineOf: machineOf}, Pipe)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(ct.Seconds()-ot.Seconds()) > 1e-6*(1+ot.Seconds()) {
			t.Errorf("trial %d: ILP assignment %v completes in %.6fs, optimum %.6fs", trial, machineOf, ct.Seconds(), ot.Seconds())
		}
	}
}

// TestOptimalMatchesILPHose does the same under the hose model.
func TestOptimalMatchesILPHose(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 5; trial++ {
		app := randomApp(rng, 3)
		env := randomEnv(rng, 3)
		env.HoseRates = make([]units.Rate, 3)
		for m := range env.HoseRates {
			env.HoseRates[m] = env.Rates[m][(m+1)%3]
		}
		ot, err := OptimalTime(app, env, Hose, 0)
		if err != nil {
			t.Fatal(err)
		}
		in := toILPInput(&appEnv{app: app, env: env})
		in.HoseRate = make([]float64, 3)
		for m := range in.HoseRate {
			in.HoseRate[m] = float64(env.HoseRates[m])
		}
		// The ILP's objective includes both the pipe and hose families;
		// the place evaluator under Hose uses hose + intra only. To
		// compare apples to apples, make pipes non-binding: scale them up.
		for m := 0; m < 3; m++ {
			for n := 0; n < 3; n++ {
				if m != n {
					in.RateR[m][n] *= 1000
				}
			}
		}
		prog, err := ilp.BuildPlacement(in)
		if err != nil {
			t.Fatal(err)
		}
		sol, err := ilp.Solve(prog.Problem, 0)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(sol.Objective-ot.Seconds()) > 1e-6*(1+sol.Objective) {
			t.Errorf("trial %d: hose ILP %.6fs vs branch-and-bound %.6fs", trial, sol.Objective, ot.Seconds())
		}
	}
}
