package main

import (
	"context"
	"fmt"
	"time"

	"choreo/internal/cluster"
	"choreo/internal/obs"
	"choreo/internal/place"
	"choreo/internal/probe"
	"choreo/internal/sweep/backend"
	"choreo/internal/sweep/backend/livetest"
	"choreo/internal/units"
)

// liveAgents is the loopback fleet size: 30 ordered pairs per epoch.
const liveAgents = 6

// liveTrain is each pair's packet train: 5 bursts of 20 × 512 B with a
// 2 ms gap, which keeps an epoch near 300 ms — long enough that
// scheduler noise is a small share of it.
func liveTrain() probe.Config {
	return probe.Config{
		PacketSize:  units.ByteSize(512),
		Bursts:      5,
		BurstLength: 20,
		Gap:         2 * time.Millisecond,
		MSS:         1460,
	}
}

// liveBench measures the full mesh of an in-process loopback agent
// fleet, one backend.Live.Measure epoch per op. Nothing it reports
// depends on the measured rates, which loopback makes nondeterministic.
type liveBench struct {
	mesh   *livetest.Mesh
	plain  *backend.Live // uninstrumented
	traced *backend.Live // instrumented with the traced run's observer
	cell   backend.Cell
	epochs []time.Duration // traced epochs
}

func setupLive(o options, tr *tracing) (instance, error) {
	mesh, err := livetest.Start(liveAgents)
	if err != nil {
		return nil, err
	}
	b := &liveBench{mesh: mesh, cell: backend.Cell{Topology: "loopback", VMs: liveAgents, Seed: o.seed}}
	addrs := mesh.Addrs()
	health, healthy := cluster.NewCoordinator(addrs, 5*time.Second).CheckFleet(context.Background())
	if healthy != len(addrs) {
		mesh.Close()
		for _, h := range health {
			if !h.OK() {
				return nil, fmt.Errorf("agent %s failed the health preflight: %w", h.Addr, h.Err)
			}
		}
		return nil, fmt.Errorf("%d of %d agents healthy", healthy, len(addrs))
	}
	cfg := backend.LiveConfig{Agents: addrs, Timeout: 10 * time.Second, Train: liveTrain()}
	if b.plain, err = backend.NewLive(cfg); err != nil {
		mesh.Close()
		return nil, err
	}
	if tr != nil {
		cfg.Obs = tr.o
		if b.traced, err = backend.NewLive(cfg); err != nil {
			mesh.Close()
			return nil, err
		}
	}
	if err := b.epoch(context.Background(), b.plain); err != nil {
		mesh.Close()
		return nil, fmt.Errorf("warm-up epoch: %w", err)
	}
	return b, nil
}

// epoch measures the mesh once and checks the environment: valid
// shape, and finite positive rates off the diagonal.
func (b *liveBench) epoch(ctx context.Context, be *backend.Live) error {
	env, err := be.Measure(ctx, b.cell)
	if err != nil {
		return err
	}
	return checkEnv(env, liveAgents)
}

func checkEnv(env *place.Environment, machines int) error {
	if err := env.Validate(); err != nil {
		return fmt.Errorf("%w: %v", errCheck, err)
	}
	if env.Machines() != machines {
		return fmt.Errorf("%w: environment has %d machines, want %d", errCheck, env.Machines(), machines)
	}
	for i, row := range env.Rates {
		for j, r := range row {
			if i != j && (r <= 0 || !finite(float64(r))) {
				return fmt.Errorf("%w: rate %d->%d is %v", errCheck, i, j, r)
			}
		}
	}
	return nil
}

// run measures epochs until the deadline; a failed epoch is a failed op.
func (b *liveBench) run(deadline time.Time, rec *recorder, tr *tracing) error {
	be := b.plain
	if tr != nil {
		be = b.traced
	}
	for time.Now().Before(deadline) {
		sp := tr.span("bench.epoch")
		ctx := context.Background()
		if tr != nil {
			ctx = obs.ContextWithSpan(ctx, sp)
		}
		start := time.Now()
		err := b.epoch(ctx, be)
		took := time.Since(start)
		sp.End()
		failed := int64(0)
		if err != nil {
			failed = 1
		}
		rec.add(1, failed, took, err)
		if tr != nil {
			b.epochs = append(b.epochs, took)
		}
	}
	return nil
}

// quality is 1: a mesh epoch places nothing, and a quality figure from
// loopback rates would not repeat.
func (b *liveBench) quality() float64 { return 1 }

func (b *liveBench) report(l *lineSet, e2e endToEnd) {
	l.add("epochs_per_s", e2e.okPerSecond(), "1/s")
	l.latency("epoch_p50_ms", "epoch_tail_ms", e2e, 1, "ms")
}

// layers reads the coordinator's pair histogram and the sleep floor a
// sequential mesh cannot go below: the configured inter-burst gaps of
// every pair, as a share of the epoch.
func (b *liveBench) layers(lm layerMetrics, tr *tracing) error {
	h := tr.o.Metrics.Histogram("choreo_cluster_pair_seconds", "", obs.DurationBuckets())
	if h.Count() > 0 {
		lm.set("cluster.pair_ms", h.Sum()/float64(h.Count())*1e3)
	}
	cfg := liveTrain()
	pairs := float64(liveAgents * (liveAgents - 1))
	lm.set("measure.pairs", pairs)
	if len(b.epochs) > 0 {
		var sum time.Duration
		for _, e := range b.epochs {
			sum += e
		}
		epoch := sum / time.Duration(len(b.epochs))
		gaps := time.Duration(cfg.Bursts-1) * cfg.Gap * time.Duration(pairs)
		lm.set("cluster.gap_share", gaps.Seconds()/epoch.Seconds())
	}
	return nil
}

func (b *liveBench) close() { b.mesh.Close() }

// clusterSpans sets the live layer metrics the agents' stitched spans
// carry: RTT probe and receive-side train time per pair, control time
// (the pair minus both), and failed pairs.
func clusterSpans(lm layerMetrics, spans []obs.SpanRecord) {
	var rtt, train []float64
	failures := 0
	for _, s := range spans {
		switch {
		case s.Name == "agent.rtt":
			rtt = append(rtt, float64(s.DurNs)/1e6)
		case s.Name == "agent.train" && s.Attrs["role"] == "recv":
			train = append(train, float64(s.DurNs)/1e6)
		case s.Name == "cluster.pair" && s.Attrs["outcome"] != "ok":
			failures++
		}
	}
	if len(rtt) == 0 || len(train) == 0 {
		return
	}
	lm.set("cluster.rtt_ms", mean(rtt))
	lm.set("cluster.train_ms", mean(train))
	lm.set("cluster.failures", float64(failures))
	if pair := lm["cluster.pair_ms"].Value; pair > 0 {
		lm.set("cluster.control_ms", pair-mean(rtt)-mean(train))
	}
}
