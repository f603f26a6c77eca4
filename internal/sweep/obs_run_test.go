package sweep

import (
	"bytes"
	"strings"
	"testing"

	"choreo/internal/obs"
)

// streamBytes runs the golden grid through the streaming pipeline and
// returns the emitted bytes, optionally under full instrumentation.
func streamBytes(t *testing.T, o *obs.Observer, workers int) []byte {
	t.Helper()
	g := goldenGrid()
	var buf bytes.Buffer
	sw := NewStreamWriter(&buf)
	hdr, err := g.Summary()
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Header(hdr); err != nil {
		t.Fatal(err)
	}
	sum, err := RunStream(g, RunOptions{Workers: workers, Emit: sw.Result, Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Finish(sum.Algorithms); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestObservabilityOffDataPath is the tentpole guarantee: turning on
// metrics and span tracing changes NOTHING about the result bytes. The
// instrumented stream must be byte-identical to the bare one — spans
// and histograms live strictly off the data path.
func TestObservabilityOffDataPath(t *testing.T) {
	bare := streamBytes(t, nil, 4)

	var events bytes.Buffer
	o := &obs.Observer{Metrics: obs.NewRegistry(), Trace: obs.NewTracer(&events)}
	instrumented := streamBytes(t, o, 4)
	if err := o.Trace.Flush(); err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(bare, instrumented) {
		t.Fatal("instrumented sweep output differs from uninstrumented output")
	}

	g := goldenGrid()
	scenarios, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}

	// The event log is schema-valid with balanced start/end pairs.
	evs, err := obs.DecodeEvents(bytes.NewReader(events.Bytes()))
	if err != nil {
		t.Fatalf("event log invalid: %v", err)
	}
	counts := map[string]int{}
	var runID int64
	for _, e := range evs {
		if e.Ev != "start" {
			continue
		}
		counts[e.Name]++
		if e.Name == "sweep.run" {
			runID = e.Span
		}
	}
	if counts["sweep.run"] != 1 {
		t.Errorf("sweep.run spans = %d, want 1", counts["sweep.run"])
	}
	if counts["sweep.cell"] != len(scenarios) {
		t.Errorf("sweep.cell spans = %d, want %d", counts["sweep.cell"], len(scenarios))
	}
	if counts["sweep.report"] != len(scenarios) {
		t.Errorf("sweep.report spans = %d, want %d", counts["sweep.report"], len(scenarios))
	}
	if counts["sweep.place"] != len(scenarios) {
		t.Errorf("sweep.place spans = %d, want %d", counts["sweep.place"], len(scenarios))
	}
	// Cells built once per unique cloud: build/measure spans count the
	// cells, not the scenarios.
	cells := len(g.Topologies) * len(g.Workloads) * len(g.MeanSizes) * len(g.Seeds)
	if counts["sweep.build"] != cells {
		t.Errorf("sweep.build spans = %d, want %d (one per unique cell)", counts["sweep.build"], cells)
	}
	if counts["sweep.measure"] != cells {
		t.Errorf("sweep.measure spans = %d, want %d", counts["sweep.measure"], cells)
	}
	for _, e := range evs {
		if e.Ev == "start" && e.Name == "sweep.cell" && e.Parent != runID {
			t.Errorf("sweep.cell span %d parented under %d, want run span %d", e.Span, e.Parent, runID)
		}
		if e.Ev == "end" && e.Name == "sweep.run" && e.Attrs["outcome"] != "ok" {
			t.Errorf("sweep.run ended with attrs %v, want outcome ok", e.Attrs)
		}
	}

	// Metrics landed in the registry and the exposition is well-formed.
	var expo bytes.Buffer
	if err := o.Metrics.WritePrometheus(&expo); err != nil {
		t.Fatal(err)
	}
	out := expo.String()
	if _, err := obs.ValidatePrometheus(strings.NewReader(out)); err != nil {
		t.Fatalf("exposition invalid: %v", err)
	}
	for _, want := range []string{
		"choreo_sweep_cell_seconds_count 32",
		"choreo_sweep_workers 4",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}
