package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"time"

	"choreo/internal/obs"
)

// clusterMetrics holds the coordinator's obs handles. A nil
// *clusterMetrics (the uninstrumented default) no-ops on every method,
// so the measurement paths record unconditionally.
type clusterMetrics struct {
	pairSeconds *obs.Histogram  // choreo_cluster_pair_seconds
	rttSeconds  *obs.Histogram  // choreo_cluster_rtt_seconds
	pairs       *obs.Counter    // choreo_cluster_pairs_total
	failures    *obs.CounterVec // choreo_cluster_failures_total{agent,cause}
}

func newClusterMetrics(r *obs.Registry) *clusterMetrics {
	return &clusterMetrics{
		pairSeconds: r.Histogram("choreo_cluster_pair_seconds",
			"Wall-clock duration of one pairwise path measurement (RTT probe + packet train).",
			obs.DurationBuckets()),
		rttSeconds: r.Histogram("choreo_cluster_rtt_seconds",
			"Measured RTT between agent pairs.", obs.DurationBuckets()),
		pairs: r.Counter("choreo_cluster_pairs_total",
			"Pairwise path measurements completed."),
		failures: r.CounterVec("choreo_cluster_failures_total",
			"Agent operation failures by agent address and cause.", "agent", "cause"),
	}
}

func (m *clusterMetrics) fail(agent, cause string) {
	if m != nil {
		m.failures.With(agent, cause).Inc()
	}
}

func (m *clusterMetrics) pairDone(seconds, rttSeconds float64) {
	if m != nil {
		m.pairs.Inc()
		m.pairSeconds.Observe(seconds)
		m.rttSeconds.Observe(rttSeconds)
	}
}

// Instrument attaches an observer to the coordinator: pair/RTT
// histograms and per-agent failure counters land in its registry, mesh
// and pair spans in its tracer. Returns the coordinator for chaining.
// Instrument before use; a nil observer leaves the coordinator
// uninstrumented.
func (c *Coordinator) Instrument(o *obs.Observer) *Coordinator {
	if o == nil {
		return c
	}
	c.obs = o
	c.m = newClusterMetrics(o.Registry())
	// The trace ID scopes every span ID this coordinator hands to
	// agents; a stale agent response from another run fails the echo
	// check and its spans are dropped instead of stitched under the
	// wrong parent. Wall-clock uniqueness is plenty for that.
	c.traceID = fmt.Sprintf("%016x", time.Now().UnixNano())
	return c
}

// spanCtx stashes a real span in the context for child parenting; when
// tracing is off (zero span) the context passes through untouched, so
// the uninstrumented mesh allocates nothing per epoch.
func spanCtx(ctx context.Context, s obs.Span) context.Context {
	if s.ID() == 0 {
		return ctx
	}
	return obs.ContextWithSpan(ctx, s)
}

// failureCause classifies a session-level error for the failure
// counter: the caller supplies the operation-specific fallback ("dial",
// "send", "io"); cancellation and deadline expiry override it, because
// "the context died" and "the agent went silent" need separate counters
// to mean anything during an incident.
func failureCause(ctx context.Context, err error, fallback string) string {
	if ctx.Err() != nil {
		return "canceled"
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return "deadline"
	}
	return fallback
}
