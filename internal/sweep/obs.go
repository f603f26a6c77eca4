package sweep

import (
	"runtime"
	"sync/atomic"
	"time"

	"choreo/internal/obs"
)

// runObs carries one sweep run's observability state: the observer, the
// registered metric handles and the run span every cell span parents
// under. It is always non-nil inside RunStream — with no observer the
// handles are standalone no-reader metrics and the spans are zero — so
// the engine instruments unconditionally and the data path never
// branches on "is observability on". Everything here records wall-clock
// and counts into obs sinks only; the result bytes flowing through Emit
// are untouched (see TestObservabilityOffDataPath).
type runObs struct {
	o       *obs.Observer
	runSpan obs.Span

	cellSeconds  *obs.Histogram    // choreo_sweep_cell_seconds
	phaseSeconds *obs.HistogramVec // choreo_sweep_phase_seconds{phase}
	reorderDepth *obs.Gauge        // choreo_sweep_reorder_depth
	workersGauge *obs.Gauge        // choreo_sweep_workers
	utilization  *obs.Gauge        // choreo_sweep_worker_utilization
	acc          *obs.Accuracy     // choreo_prediction_* (executed cells)

	busyNs atomic.Int64 // worker wall-clock in cells and group builds, for utilization
}

func newRunObs(o *obs.Observer) *runObs {
	r := o.Registry()
	return &runObs{
		o: o,
		cellSeconds: r.Histogram("choreo_sweep_cell_seconds",
			"Wall-clock duration of one sweep cell (place + execute; its group's build is the build phase).",
			obs.DurationBuckets()),
		phaseSeconds: r.HistogramVec("choreo_sweep_phase_seconds",
			"Wall-clock duration of sweep cell phases.", obs.DurationBuckets(), "phase"),
		reorderDepth: r.Gauge("choreo_sweep_reorder_depth",
			"Results completed but waiting for expansion-order predecessors."),
		workersGauge: r.Gauge("choreo_sweep_workers",
			"Worker pool size of the current sweep run."),
		utilization: r.Gauge("choreo_sweep_worker_utilization",
			"Fraction of worker wall-clock spent inside cells and cell-group builds over the last run."),
		acc: obs.NewAccuracy(r),
	}
}

// start opens the run span and records the resolved pool size.
func (ro *runObs) start(g *Grid, scenarios, workers int) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	ro.workersGauge.Set(float64(workers))
	ro.runSpan = ro.o.StartSpan(obs.Span{}, "sweep.run",
		obs.String("backend", g.backendName()),
		obs.Int("scenarios", int64(scenarios)),
		obs.Int("workers", int64(workers)))
}

// finish closes the run span and derives worker utilization: the share
// of (workers × wall-clock) actually spent inside cells and group builds.
func (ro *runObs) finish(wall time.Duration, outcome string) {
	workers := ro.workersGauge.Value()
	if workers > 0 && wall > 0 {
		ro.utilization.Set(float64(ro.busyNs.Load()) / (workers * float64(wall.Nanoseconds())))
	}
	ro.runSpan.End(obs.String("outcome", outcome))
}

// phase records one phase that started at start.
func (ro *runObs) phase(name string, start time.Time) {
	ro.phaseSeconds.With(name).Observe(time.Since(start).Seconds())
}

// cellSpan opens one cell's span under the run span.
func (ro *runObs) cellSpan(sc Scenario) obs.Span {
	return ro.o.StartSpan(ro.runSpan, "sweep.cell",
		obs.String("topology", sc.Topology.Name),
		obs.String("workload", sc.Workload.Name),
		obs.String("algorithm", sc.Algorithm.Name),
		obs.Int("seed", sc.Seed),
		obs.Int("vms", int64(sc.VMs)))
}

// cellDone folds a finished cell into the histograms.
func (ro *runObs) cellDone(d time.Duration) {
	ro.cellSeconds.Observe(d.Seconds())
	ro.busyNs.Add(d.Nanoseconds())
}
