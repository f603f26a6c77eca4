package core

import (
	"math/rand"
	"testing"
	"time"

	"choreo/internal/place"
	"choreo/internal/profile"
	"choreo/internal/units"
	"choreo/internal/workload"
)

// migratingSequence draws a sequence heavy and overlapping enough that
// re-evaluation reliably finds profitable migrations.
func migratingSequence(t *testing.T) []*profile.Application {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	cfg := workload.Default()
	cfg.MeanBytes = 2 * units.Gigabyte
	apps, err := workload.GenerateSequence(rng, cfg, 3, 3*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	return apps
}

func TestSequencePerAppBreakdown(t *testing.T) {
	c := newChoreo(t, 21, 10, Options{Model: place.Hose})
	rng := rand.New(rand.NewSource(9))
	apps, err := workload.GenerateSequence(rng, workload.Default(), 3, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.RunSequence(apps, AlgChoreo, SequenceOptions{Remeasure: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerAppMigrations) != 3 || len(res.MeasureLatency) != 3 || len(res.PlaceLatency) != 3 {
		t.Fatalf("per-app breakdown lengths: migrations %d, measure %d, place %d, want 3 each",
			len(res.PerAppMigrations), len(res.MeasureLatency), len(res.PlaceLatency))
	}
	sum := 0
	for i, m := range res.PerAppMigrations {
		if m < 0 {
			t.Errorf("app %d: negative migrations %d", i, m)
		}
		sum += m
		// Choreo re-measures on every arrival and places every app: both
		// wall-clock components must have been recorded.
		if res.MeasureLatency[i] <= 0 {
			t.Errorf("app %d: no re-measurement latency recorded", i)
		}
		if res.PlaceLatency[i] <= 0 {
			t.Errorf("app %d: no placement latency recorded", i)
		}
	}
	if sum != res.Migrations {
		t.Errorf("per-app migrations sum to %d, total says %d", sum, res.Migrations)
	}

	// Baselines never re-measure: the measurement component must be zero.
	c2 := newChoreo(t, 22, 10, Options{Model: place.Hose})
	res2, err := c2.RunSequence(apps, AlgRoundRobin, SequenceOptions{Remeasure: true})
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range res2.MeasureLatency {
		if d != 0 {
			t.Errorf("round-robin app %d has re-measurement latency %v", i, d)
		}
	}
}

// TestSequenceMigrationCap: the cap is a per-app bound, zero means the
// historical default of 3, and lowering it visibly limits migrations.
func TestSequenceMigrationCap(t *testing.T) {
	apps := migratingSequence(t)
	run := func(cap int, gain float64) SequenceResult {
		c := newChoreo(t, 7, 10, Options{Model: place.Hose})
		res, err := c.RunSequence(apps, AlgChoreo, SequenceOptions{
			Remeasure:           true,
			ReevaluateEvery:     5 * time.Second,
			MigrationGain:       gain,
			MaxMigrationsPerApp: cap,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	// An aggressive gain threshold migrates eagerly; the default cap (via
	// the zero value) must keep every app at <= 3 moves.
	def := run(0, 0.01)
	for i, m := range def.PerAppMigrations {
		if m > 3 {
			t.Errorf("default cap: app %d migrated %d times, want <= 3", i, m)
		}
	}
	if def.Migrations == 0 {
		t.Skip("seed produced no migrations; cap not exercised")
	}
	capped := run(1, 0.01)
	for i, m := range capped.PerAppMigrations {
		if m > 1 {
			t.Errorf("cap 1: app %d migrated %d times", i, m)
		}
	}
	if capped.Migrations > def.Migrations {
		t.Errorf("cap 1 migrated more (%d) than the default cap (%d)", capped.Migrations, def.Migrations)
	}
}

// TestSequenceStaticEnv: a caller-provided pre-sequence measurement
// replaces the run's own initial measurement, producing the identical
// simulated outcome for algorithms that draw nothing else from the rng —
// the contract the sweep engine's cell groups rely on.
func TestSequenceStaticEnv(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	apps, err := workload.GenerateSequence(rng, workload.Default(), 3, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	measured := newChoreo(t, 33, 8, Options{Model: place.Hose})
	env, err := measured.MeasureEnvironment()
	if err != nil {
		t.Fatal(err)
	}

	own := newChoreo(t, 33, 8, Options{Model: place.Hose})
	resOwn, err := own.RunSequence(apps, AlgRoundRobin, SequenceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	given := newChoreo(t, 33, 8, Options{Model: place.Hose})
	resGiven, err := given.RunSequence(apps, AlgRoundRobin, SequenceOptions{StaticEnv: env.Clone()})
	if err != nil {
		t.Fatal(err)
	}
	if resOwn.TotalRunning != resGiven.TotalRunning {
		t.Errorf("StaticEnv changed the outcome: %v vs %v", resGiven.TotalRunning, resOwn.TotalRunning)
	}
	for i := range resOwn.PerApp {
		if resOwn.PerApp[i] != resGiven.PerApp[i] {
			t.Errorf("app %d: %v (own measurement) vs %v (StaticEnv)", i, resOwn.PerApp[i], resGiven.PerApp[i])
		}
	}
}
