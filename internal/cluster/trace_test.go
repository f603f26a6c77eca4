package cluster_test

// Cross-process trace tests: the agents ship their spans back to the
// coordinator, which stitches them under the issuing pair spans so one
// event log holds the whole distributed measurement; the fleet answers
// the health preflight and serves its metrics over the control protocol.

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"choreo/internal/cluster"
	"choreo/internal/obs"
	"choreo/internal/sweep/backend/livetest"
)

// measureInstrumented runs a full mesh over the given fleet with both
// metrics and tracing on, returning the observer and the decoded,
// validated event stream.
func measureInstrumented(t *testing.T, mesh *livetest.Mesh) (*obs.Observer, []obs.Event) {
	t.Helper()
	var events bytes.Buffer
	o := &obs.Observer{Metrics: obs.NewRegistry(), Trace: obs.NewTracer(&events)}
	coord := cluster.NewCoordinator(mesh.Addrs(), 5*time.Second).Instrument(o)
	if _, err := coord.MeasureMesh(context.Background(), livetest.QuickTrain()); err != nil {
		t.Fatal(err)
	}
	if err := o.Trace.Flush(); err != nil {
		t.Fatal(err)
	}
	evs, err := obs.DecodeEvents(bytes.NewReader(events.Bytes()))
	if err != nil {
		t.Fatalf("stitched event log invalid: %v\n%s", err, events.String())
	}
	return o, evs
}

// spanStarts indexes the start events of a decoded stream by name.
func spanStarts(evs []obs.Event) map[string][]obs.Event {
	by := make(map[string][]obs.Event)
	for _, e := range evs {
		if e.Ev == "start" {
			by[e.Name] = append(by[e.Name], e)
		}
	}
	return by
}

func TestCrossProcessSpanStitching(t *testing.T) {
	mesh, err := livetest.Start(2)
	if err != nil {
		t.Fatal(err)
	}
	defer mesh.Close()
	_, evs := measureInstrumented(t, mesh)
	by := spanStarts(evs)

	// Two ordered pairs under one mesh span.
	pairParents := make(map[int64]bool)
	for _, e := range by["cluster.pair"] {
		pairParents[e.Span] = true
	}
	if len(pairParents) != 2 {
		t.Fatalf("pair spans = %d, want 2", len(pairParents))
	}

	// Each pair ran one RTT probe on the source and a send/recv train
	// pair, all shipped back by the agents and re-parented under the
	// coordinator's pair span — the single stitched cross-process tree.
	if got := len(by["agent.rtt"]); got != 2 {
		t.Errorf("agent.rtt spans = %d, want 2", got)
	}
	roles := map[string]int{}
	for _, e := range by["agent.train"] {
		roles[e.Attrs["role"]]++
	}
	if roles["send"] != 2 || roles["recv"] != 2 {
		t.Errorf("agent.train roles = %v, want 2 send + 2 recv", roles)
	}
	// Stitched spans arrive as completed records, so their merged attrs
	// (peer, outcome) all ride the start event.
	for _, name := range []string{"agent.rtt", "agent.train"} {
		for _, e := range by[name] {
			if !pairParents[e.Parent] {
				t.Errorf("%s span %d parented under %d, not a cluster.pair span", name, e.Span, e.Parent)
			}
			if peer := e.Attrs["peer"]; peer == "" || peer == "unknown" {
				t.Errorf("%s span %d peer label = %q, want a control address", name, e.Span, peer)
			}
			if e.Attrs["outcome"] != "ok" {
				t.Errorf("%s span %d outcome = %v", name, e.Span, e.Attrs)
			}
		}
	}
}

func TestMixedFleetHealthAndMetricsScrape(t *testing.T) {
	mesh, err := livetest.Start(2)
	if err != nil {
		t.Fatal(err)
	}
	defer mesh.Close()
	coord := cluster.NewCoordinator(mesh.Addrs(), 5*time.Second)
	ctx := context.Background()

	// Uptime is reported in whole milliseconds; wait past the first so
	// a fresh agent reads non-zero.
	time.Sleep(5 * time.Millisecond)
	fleet, healthy := coord.CheckFleet(ctx)
	if healthy != 2 {
		t.Fatalf("healthy = %d, want 2: %+v", healthy, fleet)
	}
	for _, h := range fleet {
		if h.Uptime <= 0 {
			t.Errorf("agent %d reported uptime %v, want > 0", h.Index, h.Uptime)
		}
	}

	// Every agent serves its registry over the metrics op.
	for i := range fleet {
		text, err := coord.ScrapeMetrics(ctx, i)
		if err != nil {
			t.Fatal(err)
		}
		stats, err := obs.ValidatePrometheus(strings.NewReader(text))
		if err != nil {
			t.Fatalf("agent %d exposition invalid: %v\n%s", i, err, text)
		}
		for _, fam := range []string{"choreo_agent_ops_total", "choreo_agent_sessions", "choreo_go_goroutines"} {
			found := false
			for _, n := range stats.Names {
				if n == fam {
					found = true
				}
			}
			if !found {
				t.Errorf("agent %d: family %s missing from exposition (have %v)", i, fam, stats.Names)
			}
		}
	}
}
