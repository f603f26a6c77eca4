package workload

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"strings"
	"testing"
	"time"

	"choreo/internal/profile"
)

func TestTraceRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	apps, err := GenerateSequence(rng, Default(), 5, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewTrace("unit-test", apps)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(tr); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != "unit-test" {
		t.Errorf("name = %q", back.Name)
	}
	restored, err := back.ToApplications()
	if err != nil {
		t.Fatal(err)
	}
	if len(restored) != len(apps) {
		t.Fatalf("restored %d apps, want %d", len(restored), len(apps))
	}
	for i := range apps {
		if restored[i].Name != apps[i].Name {
			t.Errorf("app %d name %q != %q", i, restored[i].Name, apps[i].Name)
		}
		if restored[i].Start != apps[i].Start.Truncate(time.Nanosecond) {
			// Seconds round-trip can lose sub-ns only; compare loosely.
			d := restored[i].Start - apps[i].Start
			if d < -time.Microsecond || d > time.Microsecond {
				t.Errorf("app %d start %v != %v", i, restored[i].Start, apps[i].Start)
			}
		}
		if restored[i].TM.Total() != apps[i].TM.Total() {
			t.Errorf("app %d bytes %d != %d", i, restored[i].TM.Total(), apps[i].TM.Total())
		}
		if restored[i].Tasks() != apps[i].Tasks() {
			t.Errorf("app %d tasks %d != %d", i, restored[i].Tasks(), apps[i].Tasks())
		}
	}
}

func TestTraceRejectsInvalid(t *testing.T) {
	if _, err := ReadTrace(strings.NewReader("{nope")); err == nil {
		t.Error("garbage JSON should fail")
	}
	bad := &Trace{Applications: []TraceApplication{{Name: "x"}}}
	if _, err := bad.ToApplications(); err == nil {
		t.Error("taskless application should fail")
	}
	bad2 := &Trace{Applications: []TraceApplication{{
		Name: "y", CPU: []float64{1, 1}, Transfers: [][3]int64{{0, 5, 100}},
	}}}
	if _, err := bad2.ToApplications(); err == nil {
		t.Error("out-of-range transfer should fail")
	}
	// NewTrace validates inputs too.
	rng := rand.New(rand.NewSource(1))
	app, err := Generate(rng, Default())
	if err != nil {
		t.Fatal(err)
	}
	app.CPU = app.CPU[:1]
	if _, err := NewTrace("bad", []*profile.Application{app}); err == nil {
		t.Error("invalid application should fail")
	}
}
