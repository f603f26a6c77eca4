package backend

import (
	"context"
	"fmt"

	"choreo/internal/core"
	"choreo/internal/netsim"
	"choreo/internal/place"
	"choreo/internal/profile"
	"choreo/internal/topology"
)

// Sim is the simulated measurement backend. A cell's cloud is its
// Cell.Cloud when the caller built one (the sweep builds one per cell
// group and keeps it while the group runs), and is otherwise built from
// the deterministic cell seed. Measure runs simulated packet trains on
// it; Execute drains the profiled bytes through a fresh flow simulator
// over it. A cloud is read-only once built and a simulator starts
// pristine, so every execution of a cell sees the cloud its measurement
// saw, and executions may run concurrently on one cloud.
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

// cloud returns the cell's cloud: c.Cloud, or one built from the cell
// seed.
func (s *Sim) cloud(c Cell) (*topology.Provider, error) {
	if c.Cloud != nil {
		return c.Cloud, nil
	}
	cloud, err := core.NewCloud(c.Profile, c.Seed, c.VMs)
	if err != nil {
		return nil, fmt.Errorf("backend: %s: %w", c.Topology, err)
	}
	return cloud, nil
}

// Measure runs the full-mesh packet-train measurement on the cell's
// cloud.
func (s *Sim) Measure(ctx context.Context, c Cell) (*place.Environment, error) {
	cloud, err := s.cloud(c)
	if err != nil {
		return nil, err
	}
	orch, err := core.NewOnCloud(cloud, c.Seed, core.Options{})
	if err != nil {
		return nil, fmt.Errorf("backend: %s: %w", c.Topology, err)
	}
	return orch.MeasureEnvironment()
}

// Execute runs the placement on a fresh simulator over the cell's cloud
// — one flow per task-pair transfer, simulated until the last byte
// drains. env and model are unused: the simulator is its own ground
// truth.
func (s *Sim) Execute(ctx context.Context, c Cell, app *profile.Application, env *place.Environment, p place.Placement, model place.Model) (Execution, error) {
	cloud, err := s.cloud(c)
	if err != nil {
		return Execution{}, err
	}
	d, err := core.Execute(netsim.New(cloud), cloud.VMs(), app, p)
	if err != nil {
		return Execution{}, err
	}
	return Execution{Completion: d}, nil
}
