// Package sequence runs the paper's §6.3 in-sequence experiments as
// sweep cells: applications arrive over time on one shared cloud, each
// is placed as it arrives (re-measuring under the cross traffic of the
// ones already running), and placements are periodically re-evaluated
// and migrated when a much better one appears (§2.4).
//
// The package is the cell runner between the sweep grid and the core
// orchestrator. Generate draws a cell-deterministic arrival sequence
// from the cell's seeded rng; Run plays it with one algorithm on a
// pristine simulator over the cell's cloud, against the static
// measurement its cell group took, and flattens core.RunSequence's
// outcome into the per-application event records a sequence result line carries. Both
// are pure functions of their inputs, which is what lets sequence cells
// ride the engine's byte-reproducibility guarantee unchanged.
package sequence

import (
	"fmt"
	"math/rand"
	"time"

	"choreo/internal/core"
	"choreo/internal/place"
	"choreo/internal/profile"
	"choreo/internal/workload"
)

// Params configures one sequence cell: the swept arrival-process and
// migration-policy coordinates plus the grid's scalar migration knobs.
type Params struct {
	// Apps is the sequence length: how many applications arrive.
	Apps int
	// Interarrival is the mean of the Poisson arrival process.
	Interarrival time.Duration
	// Reeval is the §2.4 re-evaluation period; 0 disables re-evaluation
	// and migration for the cell.
	Reeval time.Duration
	// MigrationGain is the minimum predicted relative improvement to
	// migrate (0 means the core default of 0.2).
	MigrationGain float64
	// MaxMigrations caps migrations per application (0 means the core
	// default of 3).
	MaxMigrations int
}

// Validate checks the cell parameters are runnable.
func (p Params) Validate() error {
	if p.Apps < 1 {
		return fmt.Errorf("sequence: need at least 1 application, got %d", p.Apps)
	}
	if p.Interarrival <= 0 {
		return fmt.Errorf("sequence: mean interarrival must be positive, got %v", p.Interarrival)
	}
	if p.Reeval < 0 {
		return fmt.Errorf("sequence: re-evaluation period must be >= 0, got %v", p.Reeval)
	}
	return nil
}

// AppEvent is the per-application record of one in-sequence run:
// arrival, how long the application ran, and how often it was migrated.
// Every field is a pure function of the cell and the algorithm, so
// event records are byte-reproducible in JSONL streams.
type AppEvent struct {
	Name  string `json:"name"`
	Tasks int    `json:"tasks"`
	// StartSeconds is the application's arrival time in the sequence.
	StartSeconds float64 `json:"startSeconds"`
	// RunningSeconds is arrival-to-last-byte running time (placement is
	// instantaneous in simulated time; measurement cost is wall-clock,
	// reported via CellResult.PlaceLatency).
	RunningSeconds float64 `json:"runningSeconds"`
	// Migrations counts this application's migrations.
	Migrations int `json:"migrations,omitempty"`
}

// CellResult is one algorithm's outcome on one sequence cell.
type CellResult struct {
	// Apps holds the per-application events in arrival order.
	Apps []AppEvent
	// TotalRunningSeconds is the sum of per-application running times —
	// the paper's §6.3 comparison metric.
	TotalRunningSeconds float64
	// Migrations counts migrations across the whole sequence.
	Migrations int
	// PlaceLatency is the total wall-clock time spent re-measuring and
	// placing arrivals. Nondeterministic, so the sweep layer keeps it
	// out of reports unless the grid's Timing knob asks for it.
	PlaceLatency time.Duration
}

// Generate draws a cell's arrival sequence: p.Apps applications from
// cfg with Poisson arrivals at p.Interarrival, in arrival order. The
// draw is a pure function of the rng state, and the application
// contents are independent of the interarrival mean (only the Start
// times scale), so cells that differ only in arrival rate face the
// identical applications — the §6.3 analogue of every algorithm in a
// cell group facing the identical cloud.
func Generate(rng *rand.Rand, cfg workload.Config, p Params) ([]*profile.Application, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return workload.GenerateSequence(rng, cfg, p.Apps, p.Interarrival)
}

// Run plays seq on orch with one placement algorithm: each application
// is placed on arrival (Choreo re-measuring under the live cross
// traffic), re-evaluated every p.Reeval, and migrated when the
// predicted completion improves by at least p.MigrationGain. env is
// the cell's static measurement; algorithms that never re-measure place
// every arrival against it. Run only reads env, so every run of a cell
// group may share it, concurrently.
func Run(orch *core.Choreo, seq []*profile.Application, alg core.Algorithm, env *place.Environment, p Params) (CellResult, error) {
	if err := p.Validate(); err != nil {
		return CellResult{}, err
	}
	res, err := orch.RunSequence(seq, alg, core.SequenceOptions{
		Remeasure:           true,
		ReevaluateEvery:     p.Reeval,
		MigrationGain:       p.MigrationGain,
		MaxMigrationsPerApp: p.MaxMigrations,
		StaticEnv:           env,
	})
	if err != nil {
		return CellResult{}, err
	}
	out := CellResult{
		Apps:                make([]AppEvent, len(seq)),
		TotalRunningSeconds: res.TotalRunning.Seconds(),
		Migrations:          res.Migrations,
	}
	// RunSequence indexes its per-app slices in arrival order; Generate
	// already emits arrival order, so the two line up index for index.
	for i, app := range seq {
		out.Apps[i] = AppEvent{
			Name:           app.Name,
			Tasks:          app.Tasks(),
			StartSeconds:   app.Start.Seconds(),
			RunningSeconds: res.PerApp[i].Seconds(),
			Migrations:     res.PerAppMigrations[i],
		}
		out.PlaceLatency += res.MeasureLatency[i] + res.PlaceLatency[i]
	}
	return out, nil
}
