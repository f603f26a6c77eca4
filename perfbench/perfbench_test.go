package main

import (
	"encoding/json"
	"errors"
	"io"
	"math"
	"os"
	"testing"
	"time"

	"choreo/internal/api"
	"choreo/internal/place"
	"choreo/internal/units"
)

// benchmarkSpec is the part of the repository's BENCHMARK.json the
// tests hold the program to.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func shortRun(t *testing.T, workload string, trace bool) *result {
	t.Helper()
	res, err := run(options{
		workload: workload, seed: 3, seconds: 0.6, trace: trace,
		out: t.TempDir(), setups: 1, small: true,
	}, io.Discard)
	if err != nil {
		t.Fatalf("%s (trace %v): %v", workload, trace, err)
	}
	return res
}

// TestEveryMetricEmitted runs each workload briefly, untraced and
// traced, and checks the final line carries exactly the metrics
// BENCHMARK.json declares, each with its declared unit.
func TestEveryMetricEmitted(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			for _, trace := range []bool{false, true} {
				want := spec.EndToEnd
				if trace {
					want = spec.PerLayer
				}
				res := shortRun(t, w.Name, trace)
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("trace %v: correct %v, %d of %d failed", trace, res.Correct, res.Failed, res.Attempted)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("trace %v: %d metrics emitted, BENCHMARK.json declares %d", trace, len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("trace %v: metric %s not emitted", trace, m.Name)
					case got.Unit != m.Unit:
						t.Errorf("trace %v: metric %s in %q, declared %q", trace, m.Name, got.Unit, m.Unit)
					case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
						t.Errorf("trace %v: metric %s = %v", trace, m.Name, got.Value)
					case !trace && got.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, got.Value)
					}
				}
			}
		})
	}
}

// TestCorruptSweepStreamFails changes one byte of a sub-grid's
// reference stream: every cell of every pass over that sub-grid must
// count as failed, and only those.
func TestCorruptSweepStreamFails(t *testing.T) {
	inst, err := setupSweepSnapshot(options{seed: 5, small: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	b := inst.(*sweepBench)
	b.ref[0][len(b.ref[0])/2] ^= 1
	rec := &recorder{}
	if err := b.run(time.Now().Add(300*time.Millisecond), rec, nil); err != nil {
		t.Fatal(err)
	}
	if rec.failed == 0 {
		t.Fatal("a pass over the corrupted sub-grid was not counted as failed")
	}
	if rec.failed%int64(b.want[0]) != 0 {
		t.Errorf("%d cells failed, want a multiple of the sub-grid's %d", rec.failed, b.want[0])
	}
	if err := passError(b.ref[1], b.ref[1], b.want[1]-1, b.want[1]); !errors.Is(err, errCheck) {
		t.Errorf("a missing result passed the check: %v", err)
	}
}

// TestWrongPlacementFails serves against a benchmark whose view of the
// environment has fewer machines than the server's: placements onto
// the missing machines must fail the check and count in the run.
func TestWrongPlacementFails(t *testing.T) {
	inst, err := setupServe(options{seed: 5, small: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.close()
	b := inst.(*serveBench)
	// A fresh two-machine copy: the snapshot's own slices stay intact.
	shrunk := &place.Environment{CPUCap: append([]float64(nil), b.env.CPUCap[:2]...)}
	for _, row := range b.env.Rates[:2] {
		shrunk.Rates = append(shrunk.Rates, append([]units.Rate(nil), row[:2]...))
	}
	b.env = shrunk
	rec := &recorder{}
	if err := b.run(time.Now().Add(200*time.Millisecond), rec, nil); err != nil {
		t.Fatal(err)
	}
	if rec.failed == 0 {
		t.Fatalf("none of %d requests failed the placement check", rec.ops)
	}
}

func TestReplyChecks(t *testing.T) {
	env := &place.Environment{
		Rates:  [][]units.Rate{{1, 1}, {1, 1}},
		CPUCap: []float64{2, 2},
	}
	app, err := api.AppSpec{Name: "three", CPU: []float64{1, 1, 1}}.ToApplication()
	if err != nil {
		t.Fatal(err)
	}
	r := request{path: "/v1/place", app: app}
	hashes := &hashLog{seen: make(map[int64]string)}
	for name, tc := range map[string]struct {
		status int
		body   string
	}{
		"non-2xx":           {500, `{"error":"boom"}`},
		"machine missing":   {200, `{"epoch":1,"envHash":"a","machineOf":[0,1,2]}`},
		"cpu oversubscribe": {200, `{"epoch":1,"envHash":"a","machineOf":[0,0,0]}`},
		"short placement":   {200, `{"epoch":1,"envHash":"a","machineOf":[0,1]}`},
		"not json":          {200, `{`},
	} {
		if _, err := checkReply(r, tc.status, []byte(tc.body), env, hashes); !errors.Is(err, errCheck) {
			t.Errorf("%s: got %v, want a failed check", name, err)
		}
	}
	if _, err := checkReply(r, 200, []byte(`{"epoch":1,"envHash":"a","machineOf":[0,0,1]}`), env, hashes); err != nil {
		t.Fatalf("valid reply failed: %v", err)
	}
	// The same epoch served with a second hash is a torn snapshot.
	if _, err := checkReply(r, 200, []byte(`{"epoch":1,"envHash":"b","machineOf":[0,0,1]}`), env, hashes); !errors.Is(err, errCheck) {
		t.Errorf("torn snapshot passed: %v", err)
	}
	if _, err := checkReply(r, 200, []byte(`{"epoch":2,"envHash":"b","machineOf":[0,0,1]}`), env, hashes); err != nil {
		t.Errorf("a new epoch with a new hash failed: %v", err)
	}
}

func TestCheckEnv(t *testing.T) {
	good := func() *place.Environment {
		return &place.Environment{
			Rates:  [][]units.Rate{{4000, 90}, {85, 4000}},
			CPUCap: []float64{4, 4},
		}
	}
	if err := checkEnv(good(), 2); err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func(e *place.Environment){
		"zero rate":     func(e *place.Environment) { e.Rates[0][1] = 0 },
		"infinite rate": func(e *place.Environment) { e.Rates[1][0] = units.Rate(math.Inf(1)) },
		"NaN rate":      func(e *place.Environment) { e.Rates[1][0] = units.Rate(math.NaN()) },
		"short row":     func(e *place.Environment) { e.Rates[1] = e.Rates[1][:1] },
	} {
		e := good()
		mutate(e)
		if err := checkEnv(e, 2); !errors.Is(err, errCheck) {
			t.Errorf("%s: got %v, want a failed check", name, err)
		}
	}
	if err := checkEnv(good(), 3); !errors.Is(err, errCheck) {
		t.Errorf("wrong machine count passed: %v", err)
	}
}

func TestTailQuantile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{{1, 0.5}, {19, 0.5}, {20, 0.5}, {40, 0.75}, {100, 0.9}, {1000, 0.99}, {100000, 0.99}} {
		if got := tailQuantile(tc.n); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("tailQuantile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}
