package sweep

// Executed-sweep tests: the live backend runs chosen placements as real
// bulk transfers over the loopback mesh, and the stream must carry
// measured-vs-predicted columns, the grid echo must record execution
// (so executed and predicted-only runs never merge), the accuracy
// metrics must populate, and the whole JSONL must round-trip through
// the `choreo obs accuracy` loader.

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"choreo/internal/obs"
	"choreo/internal/sweep/backend"
	"choreo/internal/sweep/backend/livetest"
	"choreo/internal/units"
)

// executedGrid is liveGrid with execution on and transfer sizes small
// enough for loopback CI.
func executedGrid(t *testing.T, agents []string, reg *obs.Registry) Grid {
	t.Helper()
	live, err := backend.NewLive(backend.LiveConfig{
		Agents:  agents,
		Timeout: 10 * time.Second,
		Train:   livetest.QuickTrain(),
		Execute: true,
		Obs:     &obs.Observer{Metrics: reg},
	})
	if err != nil {
		t.Fatal(err)
	}
	g := liveGrid(t, agents)
	g.Backend = live
	g.MeanSizes = []units.ByteSize{2 * units.Megabyte}
	return g
}

func TestExecutedLiveSweepStreamsMeasured(t *testing.T) {
	mesh, err := livetest.Start(3)
	if err != nil {
		t.Fatal(err)
	}
	defer mesh.Close()
	reg := obs.NewRegistry()
	g := executedGrid(t, mesh.Addrs(), reg)

	var buf bytes.Buffer
	sw := NewStreamWriter(&buf)
	hdr, err := g.Summary()
	if err != nil {
		t.Fatal(err)
	}
	if !hdr.Execute {
		t.Fatal("executed grid echo does not record execute; predicted-only and executed runs would merge")
	}
	if err := sw.Header(hdr); err != nil {
		t.Fatal(err)
	}
	runReg := obs.NewRegistry()
	sum, err := RunStream(g, RunOptions{
		Workers: 2,
		Emit:    sw.Result,
		Obs:     &obs.Observer{Metrics: runReg},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Finish(sum.Algorithms); err != nil {
		t.Fatal(err)
	}

	executed := 0
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	for _, ln := range lines[1 : len(lines)-1] {
		var res Result
		if err := json.Unmarshal([]byte(ln), &res); err != nil {
			t.Fatalf("bad result line %q: %v", ln, err)
		}
		// A fully co-located placement legitimately carries no measured
		// columns; everything else must carry all three, consistently.
		if res.MeasuredSeconds == nil {
			if res.PredictedSeconds != nil || res.ErrorPct != nil {
				t.Errorf("partial measured columns in %q", ln)
			}
			continue
		}
		executed++
		if res.PredictedSeconds == nil || res.ErrorPct == nil {
			t.Fatalf("measured row missing predicted/error columns: %q", ln)
		}
		if *res.MeasuredSeconds <= 0 {
			t.Errorf("measured %v <= 0 in %q", *res.MeasuredSeconds, ln)
		}
		if res.CompletionSeconds != *res.MeasuredSeconds {
			t.Errorf("executed completion %v != measured %v: executed rows report the wall clock", res.CompletionSeconds, *res.MeasuredSeconds)
		}
		wantPct := 100 * (*res.PredictedSeconds - *res.MeasuredSeconds) / *res.MeasuredSeconds
		if diff := *res.ErrorPct - wantPct; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("errorPct %v inconsistent with predicted/measured (want %v)", *res.ErrorPct, wantPct)
		}
	}
	if executed == 0 {
		t.Fatal("no scenario executed any transfer; the random baseline should always spread tasks")
	}

	// The sweep layer must have fed the accuracy plane.
	var promBuf bytes.Buffer
	if err := runReg.WritePrometheus(&promBuf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"choreo_executions_total{", "choreo_prediction_error_ratio_count{"} {
		if !strings.Contains(promBuf.String(), want) {
			t.Errorf("run registry missing %s after an executed sweep", want)
		}
	}

	// And the stream must aggregate through the accuracy loader.
	rep, err := LoadAccuracy(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Executed != executed {
		t.Errorf("LoadAccuracy counted %d executed rows, stream has %d", rep.Executed, executed)
	}
	if len(rep.Algorithms) == 0 {
		t.Fatal("LoadAccuracy produced no per-algorithm summaries")
	}
	if out := rep.Render(); !strings.Contains(out, "prediction error by algorithm") {
		t.Errorf("accuracy render missing the per-algorithm table:\n%s", out)
	}
}

// TestExecutedSweepAgentDeathFailsFast pins the partial-fleet behavior:
// an agent dying under an executed sweep surfaces as a prompt run error
// (with the cell named), never a wedged sweep.
func TestExecutedSweepAgentDeathFailsFast(t *testing.T) {
	mesh, err := livetest.Start(3)
	if err != nil {
		t.Fatal(err)
	}
	defer mesh.Close()
	g := executedGrid(t, mesh.Addrs(), obs.NewRegistry())
	if err := mesh.Kill(2); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := RunStream(g, RunOptions{Workers: 2, Emit: func(Result) error { return nil }})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("executed sweep over a dead agent succeeded")
		}
	case <-time.After(60 * time.Second):
		t.Fatal("executed sweep wedged on a dead agent")
	}
}
