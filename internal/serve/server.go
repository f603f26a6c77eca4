package serve

import (
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"choreo/internal/obs"
	"choreo/internal/place"
	"choreo/internal/sweep/backend"
	"choreo/internal/units"
	"choreo/internal/workload"
)

// Config parameterizes a placement server.
type Config struct {
	// Backend is the measurement plane the server owns (sim or live).
	Backend backend.Backend
	// Cell names what to measure: topology profile, VM count, seed —
	// the same coordinate a sweep cell uses.
	Cell backend.Cell
	// Model is the default rate model for requests that do not name
	// one.
	Model place.Model
	// Interval is the background re-measurement period; zero or
	// negative disables background epochs (the boot epoch still runs).
	Interval time.Duration
	// ExecuteEvery, when positive on a backend that executes (live with
	// execution on), closes the prediction loop continuously: after
	// every Nth published epoch the server generates a small
	// deterministic sample application, places it on the fresh snapshot
	// and runs the placement as real bulk transfers, feeding the
	// measured-vs-predicted accuracy metrics. A failed sample is logged
	// and counted; it never fails the epoch.
	ExecuteEvery int
	// QuotaRate is the per-tenant request rate (tokens/second) for the
	// compute endpoints; <= 0 means unlimited. QuotaBurst is the bucket
	// depth (minimum 1).
	QuotaRate  float64
	QuotaBurst int
	// Seed drives the random-placement baseline; each request derives
	// its rng from Seed plus a per-server request sequence number, so a
	// single-client run is reproducible.
	Seed int64
	// Pprof, when true, mounts net/http/pprof under /debug/pprof/ on
	// the service mux, so live CPU/heap profiles compose with the
	// offline -cpuprofile story. Off by default: the profile endpoints
	// expose process internals and cost real CPU while sampling, so
	// they are opt-in per server.
	Pprof bool
	// Logf, when non-nil, receives operational log lines (epoch
	// published, epoch failed).
	Logf func(format string, args ...interface{})
	// Obs is the observability sink (metrics + spans). Nil is fine: the
	// server then builds a private registry so GET /metrics always works,
	// and span tracing is off.
	Obs *obs.Observer
}

// Server owns the snapshot store, quota state and request counters. It
// is an http.Handler factory plus an epoch loop; listening is left to
// the caller so tests can use httptest and the CLI owns shutdown.
type Server struct {
	cfg     Config
	store   Store
	quota   *quotas
	obs     *obs.Observer
	metrics serveMetrics

	epochSeq atomic.Int64 // numbers epochs: the published count
	placeSeq atomic.Int64
}

// New builds a server. Call Refresh once before serving: handlers
// answer 503 until a first snapshot exists.
func New(cfg Config) *Server {
	o := cfg.Obs
	if o == nil {
		o = &obs.Observer{}
	}
	if o.Metrics == nil {
		// Copy rather than mutate: the caller may share cfg.Obs.
		o = &obs.Observer{Metrics: obs.NewRegistry(), Trace: o.Trace}
	}
	s := &Server{cfg: cfg, quota: newQuotas(cfg.QuotaRate, cfg.QuotaBurst), obs: o}
	s.initObs()
	return s
}

// Obs exposes the server's observer so the owning process can hand the
// same sinks to its measurement backend (live cluster metrics land in
// the registry GET /metrics scrapes).
func (s *Server) Obs() *obs.Observer { return s.obs }

func (s *Server) logf(format string, args ...interface{}) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Snapshot returns the current published snapshot (nil before the
// first Refresh).
func (s *Server) Snapshot() *Snapshot { return s.store.Current() }

// Refresh runs one measurement epoch: measure the cell through the
// backend, freeze the result, and atomically publish it as the next
// snapshot. On error the previous snapshot stays published — a failed
// re-measure degrades staleness, never availability. The context
// cancels an in-flight mesh measurement (graceful shutdown).
func (s *Server) Refresh(ctx context.Context) error {
	span := s.obs.StartSpan(obs.Span{}, "serve.epoch")
	start := time.Now()
	env, err := s.cfg.Backend.Measure(ctx, s.cfg.Cell)
	if err != nil {
		s.metrics.epochFailures.With("measure").Inc()
		span.End(obs.String("outcome", "error"), obs.String("cause", "measure"))
		return fmt.Errorf("serve: epoch measurement: %w", err)
	}
	// Clone defensively: the backend (or its cache) may retain the
	// returned environment, and a published snapshot must be immutable.
	env = env.Clone()
	if err := env.Validate(); err != nil {
		s.metrics.epochFailures.With("invalid-env").Inc()
		span.End(obs.String("outcome", "error"), obs.String("cause", "invalid-env"))
		return fmt.Errorf("serve: epoch produced invalid environment: %w", err)
	}
	snap := &Snapshot{
		Epoch:     s.epochSeq.Add(1),
		Env:       env,
		Hash:      EnvHash(env),
		Published: time.Now(),
		Elapsed:   time.Since(start),
	}
	s.store.Publish(snap)
	s.metrics.epochSeconds.Observe(snap.Elapsed.Seconds())
	span.End(obs.String("outcome", "ok"),
		obs.Int("epoch", snap.Epoch), obs.Int("machines", int64(env.Machines())))
	s.logf("epoch %d published: %d machines, measured in %.2fs, env %s",
		snap.Epoch, env.Machines(), snap.Elapsed.Seconds(), snap.Hash)
	s.maybeSample(ctx, snap)
	return nil
}

// maybeSample runs the per-epoch accuracy sample when configured (see
// Config.ExecuteEvery). The snapshot is already published: sampling
// happens strictly after availability, and its failure modes are its
// own (cause "sample"), never the epoch's.
func (s *Server) maybeSample(ctx context.Context, snap *Snapshot) {
	if s.cfg.ExecuteEvery <= 0 || !s.cfg.Backend.Executes() ||
		snap.Epoch%int64(s.cfg.ExecuteEvery) != 0 {
		return
	}
	span := s.obs.StartSpan(obs.Span{}, "serve.sample", obs.Int("epoch", snap.Epoch))
	if span.ID() != 0 {
		ctx = obs.ContextWithSpan(ctx, span)
	}
	exec, err := s.sampleExecution(ctx, snap)
	switch {
	case err != nil:
		s.metrics.epochFailures.With("sample").Inc()
		span.End(obs.String("outcome", "error"))
		s.logf("accuracy sample failed (snapshot %d unaffected): %v", snap.Epoch, err)
	case !exec.Executed:
		// Fully co-located sample: nothing crossed the network, so there
		// is nothing to validate the prediction against.
		span.End(obs.String("outcome", "colocated"))
	default:
		s.metrics.acc.RecordExecution("choreo", s.cfg.Cell.Topology,
			exec.Predicted.Seconds(), exec.Measured.Seconds())
		span.End(obs.String("outcome", "ok"),
			obs.Int("predictedNs", exec.Predicted.Nanoseconds()),
			obs.Int("measuredNs", exec.Measured.Nanoseconds()))
		s.logf("accuracy sample epoch %d: predicted %.2fs, measured %.2fs",
			snap.Epoch, exec.Predicted.Seconds(), exec.Measured.Seconds())
	}
}

// sampleExecution generates the epoch's deterministic sample app
// (seeded by Config.Seed + epoch, so a restarted server replays the
// same draw), places it greedily on the published environment and
// executes the placement through the backend. Sizes are kept modest —
// the sample validates calibration, it should not congest the fleet.
func (s *Server) sampleExecution(ctx context.Context, snap *Snapshot) (backend.Execution, error) {
	rng := rand.New(rand.NewSource(s.cfg.Seed + snap.Epoch))
	app, err := workload.Generate(rng, workload.Config{
		MinTasks: 3, MaxTasks: 4, MeanBytes: 32 * units.Megabyte,
	})
	if err != nil {
		return backend.Execution{}, err
	}
	p, err := place.Greedy(app, snap.Env, s.cfg.Model)
	if err != nil {
		return backend.Execution{}, err
	}
	return s.cfg.Backend.Execute(ctx, s.cfg.Cell, app, snap.Env, p, s.cfg.Model)
}

// Run re-measures every cfg.Interval until ctx is canceled. A failing
// epoch is logged and counted; the loop keeps going with the stale
// snapshot. Run returns nil on cancellation — shutdown is the expected
// exit.
func (s *Server) Run(ctx context.Context) error {
	if s.cfg.Interval <= 0 {
		<-ctx.Done()
		return nil
	}
	ticker := time.NewTicker(s.cfg.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return nil
		case <-ticker.C:
			if err := s.Refresh(ctx); err != nil {
				if ctx.Err() != nil {
					return nil // shutdown canceled the in-flight mesh
				}
				s.logf("epoch failed (snapshot %d stays live): %v", s.currentEpoch(), err)
			}
		}
	}
}

func (s *Server) currentEpoch() int64 {
	if snap := s.store.Current(); snap != nil {
		return snap.Epoch
	}
	return 0
}
