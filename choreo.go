// Package choreo is a network-aware task placement system for cloud
// applications, reproducing LaCurts et al., "Choreo: Network-Aware Task
// Placement for Cloud Applications" (IMC 2013).
//
// Choreo has three sub-systems, all exposed here:
//
//   - measurement: packet-train throughput estimation between a tenant's
//     VMs (sub-second per path), cross-traffic estimation, and
//     bottleneck/hose detection — over a calibrated datacenter simulator
//     or over real sockets via the agent/coordinator in cmd/choreo-agent;
//   - profiling: inter-task traffic matrices built from flow records,
//     with hour-ahead predictability analysis;
//   - placement: the paper's greedy Algorithm 1 plus Random, Round-Robin,
//     Minimum-Machines baselines, an exact branch-and-bound optimum and
//     the Appendix ILP, with applications executed on a max-min-fair flow
//     simulator.
//
// The quickest path from zero is NewSimulatedCloud followed by RunOnce:
//
//	cloud, _ := choreo.NewSimulatedCloud(choreo.EC22013(), 1, 10)
//	app, _ := choreo.GenerateApplication(rand.New(rand.NewSource(1)), choreo.DefaultWorkload())
//	completion, _ := cloud.RunOnce(app, choreo.AlgChoreo)
//
// See examples/ for runnable scenarios and internal/experiments for the
// reproduction of every figure in the paper's evaluation.
package choreo

import (
	"math/rand"

	"choreo/internal/core"
	"choreo/internal/netsim"
	"choreo/internal/place"
	"choreo/internal/probe"
	"choreo/internal/profile"
	"choreo/internal/topology"
	"choreo/internal/units"
	"choreo/internal/workload"
)

// Re-exported quantity types.
type (
	// Rate is a network rate in bits per second.
	Rate = units.Rate
	// ByteSize is a quantity of data in bytes.
	ByteSize = units.ByteSize
)

// Rate and size constructors.
var (
	// Mbps builds a Rate from Mbit/s.
	Mbps = units.Mbps
	// Gbps builds a Rate from Gbit/s.
	Gbps = units.Gbps
)

// Size constants.
const (
	Kilobyte = units.Kilobyte
	Megabyte = units.Megabyte
	Gigabyte = units.Gigabyte
)

// Application profiling types.
type (
	// Application is a profiled tenant application: per-task CPU demands
	// plus an inter-task traffic matrix.
	Application = profile.Application
	// TrafficMatrix records bytes sent between tasks.
	TrafficMatrix = profile.TrafficMatrix
)

// NewTrafficMatrix creates an empty n-task traffic matrix.
func NewTrafficMatrix(n int) *TrafficMatrix { return profile.NewTrafficMatrix(n) }

// CombineApplications merges applications into one placement problem
// (block-diagonal traffic, concatenated CPU).
func CombineApplications(apps []*Application) (*Application, []int, error) {
	return profile.Combine(apps)
}

// Placement types.
type (
	// Placement maps each task to a machine (VM) index.
	Placement = place.Placement
	// Environment is the measured cloud: pairwise rates, optional hose
	// rates, cross-traffic estimates and CPU capacities.
	Environment = place.Environment
	// Model selects the rate model (PipeModel or HoseModel).
	Model = place.Model
)

// Rate models for Algorithm 1.
const (
	PipeModel = place.Pipe
	HoseModel = place.Hose
)

// Placement algorithms.
type Algorithm = core.Algorithm

// Algorithms compared in the paper's evaluation.
const (
	AlgChoreo      = core.AlgChoreo
	AlgRandom      = core.AlgRandom
	AlgRoundRobin  = core.AlgRoundRobin
	AlgMinMachines = core.AlgMinMachines
	AlgOptimal     = core.AlgOptimal
)

// Greedy runs the paper's Algorithm 1 directly against a measured
// environment.
func Greedy(app *Application, env *Environment, model Model) (Placement, error) {
	return place.Greedy(app, env, model)
}

// CompletionTime evaluates the paper's completion-time objective.
var CompletionTime = place.CompletionTime

// Optimal computes the exact best placement by branch and bound.
var Optimal = place.Optimal

// Provider profiles for the simulated clouds.
type Profile = topology.Profile

// Provider profile constructors.
var (
	// EC22013 models Amazon EC2 as measured in May 2013 (paper Fig 2(a)).
	EC22013 = topology.EC22013
	// EC22012 models the far more variable EC2 of May 2012 (Fig 1).
	EC22012 = topology.EC22012
	// Rackspace models Rackspace 8 GB instances (Fig 2(b)).
	Rackspace = topology.Rackspace
	// PrivateCloud models an un-hosed enterprise fabric.
	PrivateCloud = topology.PrivateCloud
)

// Workload generation.
type WorkloadConfig = workload.Config

// DefaultWorkload returns the HP-Cloud-like generator configuration used
// by the Figure 10 experiments.
func DefaultWorkload() WorkloadConfig { return workload.Default() }

// GenerateApplication draws one application from the generator.
func GenerateApplication(rng *rand.Rand, cfg WorkloadConfig) (*Application, error) {
	return workload.Generate(rng, cfg)
}

// GenerateSequence draws applications with Poisson arrivals ordered by
// start time.
var GenerateSequence = workload.GenerateSequence

// Packet-train measurement configuration.
type TrainConfig = probe.Config

// Packet-train configurations the paper calibrated (§4.1).
var (
	// DefaultEC2Train is 10 bursts of 200 x 1472-byte packets.
	DefaultEC2Train = probe.DefaultEC2
	// DefaultRackspaceTrain is 10 bursts of 2000 packets.
	DefaultRackspaceTrain = probe.DefaultRackspace
)

// Options configures a Cloud's orchestrator.
type Options = core.Options

// SequenceOptions configures in-sequence placement (§6.3).
type SequenceOptions = core.SequenceOptions

// SequenceResult reports per-application running times.
type SequenceResult = core.SequenceResult

// Cloud couples a simulated provider fabric, a tenant VM allocation and a
// Choreo orchestrator. It is the top-level handle most users want.
type Cloud struct {
	// Orchestrator exposes measure/place/execute directly.
	*core.Choreo
	// Network is the underlying flow simulator (cross traffic, timers).
	Net *netsim.Network
	// Provider owns the fabric and the VM allocation.
	Provider *topology.Provider
}

// NewSimulatedCloud builds a provider fabric from the profile, allocates
// nVMs tenant VMs onto it, and wires up an orchestrator with default
// options (hose model, paper's EC2 train configuration, 4 cores per VM).
func NewSimulatedCloud(profile Profile, seed int64, nVMs int) (*Cloud, error) {
	return NewSimulatedCloudWithOptions(profile, seed, nVMs, Options{Model: HoseModel})
}

// NewSimulatedCloudWithOptions is NewSimulatedCloud with explicit
// orchestrator options.
func NewSimulatedCloudWithOptions(profile Profile, seed int64, nVMs int, opts Options) (*Cloud, error) {
	prov, err := topology.NewProvider(profile, seed)
	if err != nil {
		return nil, err
	}
	vms, err := prov.AllocateVMs(nVMs)
	if err != nil {
		return nil, err
	}
	net := netsim.New(prov)
	orch, err := core.New(net, vms, rand.New(rand.NewSource(seed+1)), opts)
	if err != nil {
		return nil, err
	}
	return &Cloud{Choreo: orch, Net: net, Provider: prov}, nil
}
