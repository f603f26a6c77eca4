package api

import (
	"encoding/json"
	"errors"
	"runtime"
	"strings"
	"testing"

	"choreo/internal/core"
	"choreo/internal/place"
	"choreo/internal/units"
)

func TestVersionHandshake(t *testing.T) {
	if err := CheckClientVersion(Version); err != nil {
		t.Errorf("matching client version rejected: %v", err)
	}
	if err := CheckServerVersion(Version); err != nil {
		t.Errorf("matching server version rejected: %v", err)
	}
	err := CheckClientVersion(0)
	if err == nil || !strings.Contains(err.Error(), "client speaks v0, server needs v1") {
		t.Errorf("server-side mismatch error imprecise: %v", err)
	}
	err = CheckServerVersion(2)
	if err == nil || !strings.Contains(err.Error(), "server speaks v2, client needs v1") {
		t.Errorf("client-side mismatch error imprecise: %v", err)
	}
}

func TestAppSpecToApplication(t *testing.T) {
	spec := AppSpec{
		Name:        "pipeline",
		CPU:         []float64{1, 2, 1},
		TransfersMB: [][3]float64{{0, 1, 100}, {1, 2, 50}},
	}
	app, err := spec.ToApplication()
	if err != nil {
		t.Fatal(err)
	}
	if app.Tasks() != 3 {
		t.Errorf("Tasks() = %d, want 3", app.Tasks())
	}
	if got := float64(app.TM.Total()); got != 150e6 {
		t.Errorf("total traffic = %v bytes, want 150e6", got)
	}

	// A zero size and integral indices written with a fraction part
	// convert.
	var zero AppSpec
	if err := json.Unmarshal([]byte(`{"name":"z","cpu":[1,1],"transfersMB":[[0,1,0],[1.0,0,-0]]}`), &zero); err != nil {
		t.Fatal(err)
	}
	if app, err := zero.ToApplication(); err != nil || app.TM.Total() != 0 {
		t.Errorf("zero-size transfers: %v", err)
	}

	// Rejected specs, decoded from the JSON a client or file carries.
	for _, tc := range []struct{ name, json, want string }{
		{"absent cpu", `{"name":"e"}`, "no tasks"},
		{"empty cpu", `{"name":"e","cpu":[]}`, "no tasks"},
		{"out-of-range endpoint", `{"name":"oob","cpu":[1],"transfersMB":[[0,5,1]]}`, "transfer [0 5 1]"},
		// A negative size once vanished from the traffic matrix, and
		// fractional indices were truncated to other tasks.
		{"negative size", `{"name":"neg","cpu":[1,1],"transfersMB":[[0,1,-500]]}`, "transfer [0 1 -500]: size must not be negative"},
		{"tiny negative size", `{"name":"neg","cpu":[1,1],"transfersMB":[[0,1,-1e-9]]}`, "size must not be negative"},
		{"fractional indices", `{"name":"frac","cpu":[1,1,1],"transfersMB":[[0.9,1.7,100]]}`, "transfer [0.9 1.7 100]: task indices must be integers"},
		{"fractional source", `{"name":"frac","cpu":[1,1],"transfersMB":[[0.5,1,100]]}`, "task indices must be integers"},
		{"fractional destination", `{"name":"frac","cpu":[1,1],"transfersMB":[[1,0.5,100]]}`, "task indices must be integers"},
	} {
		var spec AppSpec
		if err := json.Unmarshal([]byte(tc.json), &spec); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if _, err := spec.ToApplication(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: ToApplication error = %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}

// TestAppSpecCaps pins MaxTasks and MaxTransfers: a spec at a cap
// converts, one over it is refused with the named error before its
// traffic matrix is allocated.
func TestAppSpecCaps(t *testing.T) {
	cpu := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = 1
		}
		return v
	}
	if _, err := (AppSpec{Name: "at-cap", CPU: cpu(MaxTasks)}).ToApplication(); err != nil {
		t.Fatalf("%d tasks refused: %v", MaxTasks, err)
	}
	atCap := AppSpec{Name: "at-cap", CPU: cpu(2), TransfersMB: make([][3]float64, MaxTransfers)}
	for i := range atCap.TransfersMB {
		atCap.TransfersMB[i] = [3]float64{0, 1, 1}
	}
	if _, err := atCap.ToApplication(); err != nil {
		t.Fatalf("%d transfers refused: %v", MaxTransfers, err)
	}
	overTransfers := atCap
	overTransfers.TransfersMB = append(overTransfers.TransfersMB, [3]float64{1, 0, 1})

	for _, tc := range []struct {
		name string
		spec AppSpec
		want error
	}{
		// 4,000 tasks once asked for a 122 MB traffic matrix.
		{"tasks", AppSpec{Name: "wide", CPU: cpu(4000)}, ErrTooManyTasks},
		{"transfers", overTransfers, ErrTooManyTransfers},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := tc.spec.ToApplication()
		runtime.ReadMemStats(&after)
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: ToApplication error = %v, want %v", tc.name, err, tc.want)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
			t.Errorf("%s: refusing the spec allocated %d bytes", tc.name, grew)
		}
	}
}

// TestEnvToEnvironment pins the rate-matrix wire schema both `choreo
// place -rates` and GET /v1/env speak: it round-trips, defaults an
// absent cpuCap to 4 cores per machine, and rejects malformed matrices
// with an error instead of a panic.
func TestEnvToEnvironment(t *testing.T) {
	env, err := Env{RatesMbps: [][]float64{{4000, 900}, {800, 4000}}}.ToEnvironment()
	if err != nil {
		t.Fatal(err)
	}
	if env.Rates[1][0] != units.Mbps(800) || len(env.CPUCap) != 2 || env.CPUCap[1] != 4 {
		t.Errorf("environment = %+v", env)
	}
	if back := EnvFrom(env); back.RatesMbps[0][1] != 900 || back.CPUCap[0] != 4 {
		t.Errorf("round trip = %+v", back)
	}
	for _, tc := range []struct{ name, json, want string }{
		{"no machines", `{"ratesMbps":[]}`, "no machines"},
		{"ragged", `{"ratesMbps":[[4000,900,800],[900,4000],[700,800,4000]]}`, "row 1 has 2 entries, want 3"},
		{"zero rate", `{"ratesMbps":[[4000,0],[900,4000]]}`, "must be positive"},
		{"short cpuCap", `{"ratesMbps":[[4000,900],[900,4000]],"cpuCap":[4]}`, "CPUCap has 1 entries"},
		{"empty cpuCap", `{"ratesMbps":[[4000,900],[900,4000]],"cpuCap":[]}`, "CPUCap has 0 entries"},
	} {
		var w Env
		if err := json.Unmarshal([]byte(tc.json), &w); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if _, err := w.ToEnvironment(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: ToEnvironment error = %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}

func TestParseAlgorithm(t *testing.T) {
	cases := map[string]core.Algorithm{
		"":             core.AlgChoreo,
		"choreo":       core.AlgChoreo,
		"greedy":       core.AlgChoreo,
		"random":       core.AlgRandom,
		"round-robin":  core.AlgRoundRobin,
		"min-machines": core.AlgMinMachines,
	}
	for name, want := range cases {
		got, err := ParseAlgorithm(name)
		if err != nil || got != want {
			t.Errorf("ParseAlgorithm(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	for _, name := range []string{"ilp", "optimal", "round robin"} {
		if _, err := ParseAlgorithm(name); err == nil {
			t.Errorf("ParseAlgorithm(%q) accepted; the service speaks only online wire names", name)
		}
	}
	for _, alg := range []core.Algorithm{core.AlgChoreo, core.AlgRandom, core.AlgRoundRobin, core.AlgMinMachines} {
		rt, err := ParseAlgorithm(alg.Name())
		if err != nil || rt != alg {
			t.Errorf("wire-name round-trip for %v: got %v, %v", alg, rt, err)
		}
	}
}

func TestParseModel(t *testing.T) {
	if m, err := ParseModel("", place.Pipe); err != nil || m != place.Pipe {
		t.Errorf("empty model did not fall back: %v, %v", m, err)
	}
	if m, err := ParseModel("hose", place.Pipe); err != nil || m != place.Hose {
		t.Errorf("hose: %v, %v", m, err)
	}
	for _, name := range []string{"bogus", "pipx", "Hose"} {
		if _, err := ParseModel(name, place.Hose); err == nil {
			t.Errorf("model %q accepted", name)
		}
	}
}
