package experiments

import (
	"math/rand"
	"strings"
	"testing"

	"choreo/internal/place"
	"choreo/internal/profile"
	"choreo/internal/units"
)

// TestDrawGreedyPlaceableBounded drives GreedyVsOptimal's redraw loop: a
// draw greedy cannot place is skipped, and a run of unplaceable draws
// ends in an error after maxSkippedDraws skips instead of spinning.
func TestDrawGreedyPlaceableBounded(t *testing.T) {
	env := randomMeasuredEnv(rand.New(rand.NewSource(1)), 5) // 2.5 CPUs per machine
	app := func(cpu float64) *profile.Application {
		a := &profile.Application{Name: "draw", CPU: []float64{cpu, 1}, TM: profile.NewTrafficMatrix(2)}
		if err := a.TM.Set(0, 1, 10*units.Megabyte); err != nil {
			t.Fatal(err)
		}
		return a
	}
	fits, oversized := app(1), app(3) // no machine holds a 3-CPU task

	for _, skips := range []int{0, 1, maxSkippedDraws} {
		draws := 0
		got, _, p, err := drawGreedyPlaceable(func() (*profile.Application, *place.Environment, error) {
			draws++
			if draws <= skips {
				return oversized, env, nil
			}
			return fits, env, nil
		})
		if err != nil {
			t.Fatalf("%d skips: %v", skips, err)
		}
		if got != fits || draws != skips+1 || len(p.MachineOf) != 2 {
			t.Errorf("%d skips: drew %d times, returned the placeable draw = %v", skips, draws, got == fits)
		}
	}

	draws := 0
	_, _, _, err := drawGreedyPlaceable(func() (*profile.Application, *place.Environment, error) {
		draws++
		return oversized, env, nil
	})
	if err == nil || !strings.Contains(err.Error(), "in a row") {
		t.Fatalf("unplaceable draws: err = %v, want the skip bound's error", err)
	}
	if draws != maxSkippedDraws+1 {
		t.Errorf("unplaceable draws: drew %d times, want %d", draws, maxSkippedDraws+1)
	}
}
