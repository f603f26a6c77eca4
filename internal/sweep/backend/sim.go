package backend

import (
	"context"
	"fmt"

	"choreo/internal/core"
	"choreo/internal/place"
	"choreo/internal/profile"
)

// Sim is the simulated measurement backend: every cell gets a fresh
// netsim cloud rebuilt from the deterministic cell seed, measured with
// simulated packet trains and executed by draining the profiled bytes
// through the flow-level simulator. Rebuilding from the same seed yields
// a bit-identical cloud, which is what lets the environment cache reuse
// one measurement across a cell group while every execution still gets a
// pristine simulator.
type Sim struct{}

// NewSim returns the simulated backend.
func NewSim() *Sim { return &Sim{} }

// Name identifies the backend.
func (s *Sim) Name() string { return "sim" }

// MeshEpoch is always 0: simulated measurements are pure functions of
// the cell, so entries are shareable wherever the cell keys agree.
func (s *Sim) MeshEpoch() int64 { return 0 }

// CheckCapacity always succeeds: the simulator allocates as many VMs as
// the profile's hosts can carry, and per-cell allocation errors surface
// from Measure with the cell's coordinates attached.
func (s *Sim) CheckCapacity(ctx context.Context, maxVMs int) error { return nil }

// Executes is false: the simulator's transfer IS the ground truth, so
// there is no separate measured-vs-predicted observation to make.
func (s *Sim) Executes() bool { return false }

// orchestrator rebuilds the cell's simulated cloud from the cell seed.
func (s *Sim) orchestrator(c Cell) (*core.Choreo, error) {
	orch, err := core.NewSimulated(c.Profile, c.Seed, c.VMs, core.Options{})
	if err != nil {
		return nil, fmt.Errorf("backend: %s: %w", c.Topology, err)
	}
	return orch, nil
}

// Measure builds the cell's cloud and runs the full-mesh packet-train
// measurement on it.
func (s *Sim) Measure(ctx context.Context, c Cell) (*place.Environment, error) {
	orch, err := s.orchestrator(c)
	if err != nil {
		return nil, err
	}
	return orch.MeasureEnvironment()
}

// Execute runs the placement on a freshly rebuilt cloud — one flow per
// task-pair transfer, simulated until the last byte drains. env and
// model are unused: the simulator is its own ground truth.
func (s *Sim) Execute(ctx context.Context, c Cell, app *profile.Application, env *place.Environment, p place.Placement, model place.Model) (Execution, error) {
	orch, err := s.orchestrator(c)
	if err != nil {
		return Execution{}, err
	}
	d, err := orch.Execute(app, p)
	if err != nil {
		return Execution{}, err
	}
	return Execution{Completion: d}, nil
}
