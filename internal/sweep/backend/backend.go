// Package backend abstracts how a sweep cell's cloud is measured and how
// a placement's completion time is obtained — the seam between the sweep
// engine and the measurement plane.
//
// The paper's whole point (§3) is that Choreo measures a *real* cloud:
// packet trains between live VMs, gathered by a coordinator. The sweep
// engine grew up against the simulated cloud only; this package makes
// the measurement plane pluggable:
//
//   - Sim (the default) measures the cell's simulated cloud — built once
//     per cell from the cell seed — with simulated packet trains, and
//     executes placements by actually transferring the profiled bytes
//     on a fresh flow simulator over that same cloud — bit-identical to
//     the engine's pre-backend behaviour, so golden reports are
//     unchanged.
//   - Live maps a cell's VM slots onto real choreo-agent addresses,
//     drives a cluster.Coordinator through MeasureMesh (packet trains +
//     RTT probes over real sockets), and assembles the placement
//     environment from the observed rate matrix. Execution reports the
//     paper's predicted completion-time objective on that measured
//     environment by default; with LiveConfig.Execute set it closes the
//     loop (§6) — the placement's inter-machine flows run as real
//     byte-bounded bulk transfers over the agent fleet, and the measured
//     completion is reported next to the prediction so every run is an
//     accuracy benchmark of the model itself.
//
// Executed completions come back as an Execution value: the headline
// Completion plus, when the backend really ran the flows, the predicted
// and measured times and the per-pair flow outcomes that feed the
// accuracy plane in internal/obs.
//
// Both implementations feed the identical place.Environment shape into
// the identical placement and report pipeline, so a simulated and a
// live run of the same grid diff cleanly — the paper's sim-vs-real
// comparison for free.
package backend

import (
	"context"
	"time"

	"choreo/internal/place"
	"choreo/internal/profile"
	"choreo/internal/topology"
	"choreo/internal/units"
)

// Cell names the measurement target of one sweep cell: the grid's
// topology coordinate, the allocation size, and the deterministic cell
// seed every stream of cell randomness derives from.
type Cell struct {
	// Topology is the cell's topology name (a grid coordinate; the live
	// backend uses it only for error messages).
	Topology string
	// Profile is the provider profile the sim backend builds the cloud
	// from; ignored by live backends, whose cloud is the real mesh.
	Profile topology.Profile
	// VMs is the tenant allocation size: how many VM slots the cell
	// places onto.
	VMs int
	// Seed is the deterministic cell seed (sweep.Scenario.cloudSeed).
	Seed int64
	// Cloud, when set, is the cell's pristine simulated cloud, built by
	// core.NewCloud(Profile, Seed, VMs): the sim backend measures and
	// executes on it instead of building its own. Ignored by live
	// backends.
	Cloud *topology.Provider
}

// PairFlow is one aggregated inter-machine flow of an executed
// placement: every byte the traffic matrix moves between two distinct
// machines, with the rate the environment predicted for that pair and
// (after execution) the rate the transfer actually achieved.
type PairFlow struct {
	// Src and Dst are machine slot indices into the cell's environment.
	Src, Dst int
	// Bytes is the aggregated payload the placement moves Src→Dst.
	Bytes units.ByteSize
	// PredictedRate is env.Rates[Src][Dst] — what the objective assumed.
	PredictedRate units.Rate
	// MeasuredRate is the achieved bulk-transfer rate; zero until the
	// flow has executed.
	MeasuredRate units.Rate
}

// Execution is the result of Backend.Execute. Completion is always set:
// the simulated transfer time (sim), the predicted objective (live), or
// the measured wall clock (live executed). Executed marks results whose
// Predicted/Measured/Pairs fields carry a real measured-vs-predicted
// observation; predicted-only and simulated paths leave them zero so
// report rows and goldens are byte-identical with the pre-execution
// schema.
type Execution struct {
	// Completion is the headline per-app completion time.
	Completion time.Duration
	// Predicted is the completion the objective computed before running.
	Predicted time.Duration
	// Measured is the wall clock of the placement's concurrent flows.
	Measured time.Duration
	// Executed reports whether real transfers ran.
	Executed bool
	// Pairs are the per-machine-pair flow outcomes, sorted (Src, Dst).
	Pairs []PairFlow
}

// Backend measures a cell's cloud and executes placements on it.
// Implementations must be safe for concurrent use by the sweep worker
// pool.
//
// Every operation takes a context.Context so long-running callers — the
// placement service canceling an in-flight re-measurement epoch on
// shutdown — can abandon it promptly. One-shot callers (`choreo sweep`)
// pass context.Background(); the simulated backend ignores the context
// entirely, so sim results are byte-identical to the pre-context API.
type Backend interface {
	// Name identifies the backend in grid echoes, shard headers and
	// error messages ("sim", "live").
	Name() string

	// Measure returns the cell's placement environment: the full-mesh
	// rate matrix plus per-VM CPU capacity. The sweep calls it once per
	// cell group. A canceled context aborts a live mesh mid-pair.
	Measure(ctx context.Context, c Cell) (*place.Environment, error)

	// Execute returns the completion of placement p of app on the
	// cell's cloud under env: simulated byte transfer for sim (§6.1's
	// "actually transferring data"), the predicted completion-time
	// objective for live, or — when the live backend is configured to
	// execute — the measured wall clock of the placement's flows run as
	// real bulk transfers, with the prediction alongside. model is the
	// grid's rate model.
	Execute(ctx context.Context, c Cell, app *profile.Application, env *place.Environment, p place.Placement, model place.Model) (Execution, error)

	// Executes reports whether Execute runs placements as real
	// transfers (and therefore returns Executed results). Grid echoes
	// record it so executed and predicted-only runs never merge.
	Executes() bool

	// MeshEpoch tags the backend's current measurement epoch. Sim
	// measurements are pure functions of the cell and always report 0;
	// live meshes drift, so live backends report a non-zero epoch that
	// the sweep's cell keys carry — two epochs never share a measurement.
	MeshEpoch() int64

	// CheckCapacity reports whether the backend can measure cells of up
	// to maxVMs slots (the live backend needs one agent per slot).
	CheckCapacity(ctx context.Context, maxVMs int) error
}
