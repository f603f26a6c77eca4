package backend_test

import (
	"context"
	"strings"
	"testing"
	"time"

	"choreo/internal/place"
	"choreo/internal/profile"
	"choreo/internal/sweep/backend"
	"choreo/internal/sweep/backend/livetest"
	"choreo/internal/units"
)

func liveOverMesh(t *testing.T, agents int) (*backend.Live, *livetest.Mesh) {
	t.Helper()
	mesh, err := livetest.Start(agents)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mesh.Close)
	live, err := backend.NewLive(backend.LiveConfig{
		Agents:  mesh.Addrs(),
		Timeout: 5 * time.Second,
		Train:   livetest.QuickTrain(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return live, mesh
}

// TestLiveMeasureAssemblesEnvironment runs a real loopback mesh
// measurement and checks the assembled environment is a valid placement
// input: full rate matrix, mem-bus diagonal, CPU capacities.
func TestLiveMeasureAssemblesEnvironment(t *testing.T) {
	live, _ := liveOverMesh(t, 3)
	cell := backend.Cell{Topology: "live-test", VMs: 3, Seed: 42}
	env, err := live.Measure(context.Background(), cell)
	if err != nil {
		t.Fatal(err)
	}
	if err := env.Validate(); err != nil {
		t.Fatalf("measured environment invalid: %v", err)
	}
	if env.Machines() != 3 {
		t.Fatalf("environment has %d machines, want 3", env.Machines())
	}
	for i := 0; i < 3; i++ {
		if env.CPUCap[i] != 4 {
			t.Errorf("CPUCap[%d] = %v, want the default 4", i, env.CPUCap[i])
		}
		for j := 0; j < 3; j++ {
			if env.Rates[i][j] <= 0 {
				t.Errorf("rate[%d][%d] = %v, want positive", i, j, env.Rates[i][j])
			}
		}
		if env.Rates[i][i] != units.Gbps(4) {
			t.Errorf("diagonal rate[%d][%d] = %v, want the 4 Gbit/s mem-bus default", i, i, env.Rates[i][i])
		}
	}
}

// TestLiveExecutePredictsCompletion checks Execute reports the paper's
// predicted completion-time objective on the measured rates — the live
// backend's execution semantics.
func TestLiveExecutePredictsCompletion(t *testing.T) {
	live, _ := liveOverMesh(t, 2)
	cell := backend.Cell{Topology: "live-test", VMs: 2, Seed: 7}
	env := &place.Environment{
		Rates: [][]units.Rate{
			{units.Gbps(4), units.Mbps(100)},
			{units.Mbps(100), units.Gbps(4)},
		},
		CPUCap: []float64{4, 4},
	}
	tm := profile.NewTrafficMatrix(2)
	if err := tm.Add(0, 1, 100*units.Megabyte); err != nil {
		t.Fatal(err)
	}
	app := &profile.Application{Name: "pair", CPU: []float64{1, 1}, TM: tm}
	exec, err := live.Execute(context.Background(), cell, app, env, place.Placement{MachineOf: []int{0, 1}}, place.Hose)
	if err != nil {
		t.Fatal(err)
	}
	if exec.Executed {
		t.Error("Execute without cfg.Execute reported Executed")
	}
	// 100 MB over 100 Mbit/s = 8 seconds: Execute must report the
	// predicted objective on the measured rates, not run anything.
	want := 8 * time.Second
	if exec.Completion < want-time.Millisecond || exec.Completion > want+time.Millisecond {
		t.Errorf("predicted completion = %v, want ~%v", exec.Completion, want)
	}
}

// TestLiveCapacityChecks pins the precise errors for a fleet that is
// too small, either statically (CheckCapacity at grid validation) or
// for one cell (Measure).
func TestLiveCapacityChecks(t *testing.T) {
	live, _ := liveOverMesh(t, 2)
	if err := live.CheckCapacity(context.Background(), 3); err == nil || !strings.Contains(err.Error(), "only 2 agents") {
		t.Errorf("CheckCapacity(3) = %v, want an only-2-agents error", err)
	}
	if err := live.CheckCapacity(context.Background(), 2); err != nil {
		t.Errorf("CheckCapacity(2) = %v, want nil", err)
	}
	if _, err := live.Measure(context.Background(), backend.Cell{Topology: "t", VMs: 5, Seed: 1}); err == nil {
		t.Error("Measure with 5 VM slots on 2 agents succeeded")
	}
}

// TestNewLiveValidation pins the constructor's input checking.
func TestNewLiveValidation(t *testing.T) {
	if _, err := backend.NewLive(backend.LiveConfig{Agents: []string{"h:1"}}); err == nil {
		t.Error("NewLive accepted a single agent")
	}
	if _, err := backend.NewLive(backend.LiveConfig{Agents: []string{"h:1", "h:1"}}); err == nil {
		t.Error("NewLive accepted duplicate agents")
	}
	live, err := backend.NewLive(backend.LiveConfig{Agents: []string{"h:1", "h:2"}})
	if err != nil {
		t.Fatal(err)
	}
	if live.Name() != "live" {
		t.Errorf("Name() = %q, want live", live.Name())
	}
}
