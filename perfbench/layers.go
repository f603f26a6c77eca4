package main

import (
	"fmt"
	"math/rand"

	"choreo/internal/core"
	"choreo/internal/netsim"
	"choreo/internal/place"
	"choreo/internal/profile"
	"choreo/internal/sweep"
	"choreo/internal/sweep/sequence"
	"choreo/internal/topology"
	"choreo/internal/units"
	"choreo/internal/workload"
)

// The traced run times each layer from outside: the benchmark builds
// cells like the workload's own, calls the layer's public function and
// times that call under a span named after the layer. Inputs come from
// the benchmark seed, offset so they never repeat the timed phase's.
const replaySalt = 0x5eed

// simCell builds a cell's provider fabric and VM allocation (timed as
// topology.build) and a fresh orchestrator on it.
func simCell(d durations, tr *tracing, prof topology.Profile, vms int, seed int64) (*core.Choreo, error) {
	var prov *topology.Provider
	var vmList []topology.VM
	took, err := tr.call("topology.build", func() error {
		var err error
		if prov, err = topology.NewProvider(prof, seed); err != nil {
			return err
		}
		vmList, err = prov.AllocateVMs(vms)
		return err
	})
	if err != nil {
		return nil, err
	}
	d.add("topology.build_us", took, 1e3)
	return core.New(netsim.New(prov), vmList, rand.New(rand.NewSource(seed+1)), core.Options{Model: place.Hose})
}

// measureCell times the packet-train mesh measurement of orch.
func measureCell(d durations, tr *tracing, orch *core.Choreo) (*place.Environment, error) {
	var env *place.Environment
	took, err := tr.call("measure.sim", func() error {
		var err error
		env, err = orch.MeasureEnvironment()
		return err
	})
	if err != nil {
		return nil, err
	}
	d.add("measure.sim_ms", took, 1)
	n := float64(len(orch.VMs()))
	d["measure.pairs"] = append(d["measure.pairs"], n*(n-1))
	return env, nil
}

// placeLayers times greedy placement, each baseline and the completion
// time of the greedy placement, and returns the greedy placement.
func placeLayers(d durations, tr *tracing, app *profile.Application, env *place.Environment, rng *rand.Rand) (place.Placement, error) {
	var greedy place.Placement
	took, err := tr.call("place.greedy", func() error {
		var err error
		greedy, err = core.PlaceWith(app, env, core.AlgChoreo, place.Hose, rng)
		return err
	})
	if err != nil {
		return greedy, err
	}
	d.add("place.greedy_us", took, 1e3)
	for _, alg := range []core.Algorithm{core.AlgRandom, core.AlgRoundRobin, core.AlgMinMachines} {
		took, err := tr.call("place.baseline", func() error {
			_, err := core.PlaceWith(app, env, alg, place.Hose, rng)
			return err
		})
		if err != nil {
			return greedy, err
		}
		d.add("place.baseline_us", took, 1e3)
	}
	took, err = tr.call("place.completion", func() error {
		_, err := place.CompletionTime(app, env, greedy, place.Hose)
		return err
	})
	if err != nil {
		return greedy, err
	}
	d.add("place.completion_us", took, 1e3)
	return greedy, nil
}

// replaySnapshot times every layer a snapshot cell crosses, once per
// cell shape of the grid: topology build, measurement, placement,
// completion time, the exact optimum and the simulated execution.
func replaySnapshot(lm layerMetrics, tr *tracing, o options) error {
	g := snapshotGrid(o.small)
	rng := rand.New(rand.NewSource(o.seed + replaySalt))
	d := durations{}
	for _, tp := range g.Topologies {
		for _, wl := range g.Workloads {
			for _, vms := range g.VMCounts {
				for _, size := range g.MeanSizes {
					if err := replaySnapshotCell(d, tr, rng, tp, wl, vms, size); err != nil {
						return fmt.Errorf("replaying %s/%s/%d VMs: %w", tp.Name, wl.Name, vms, err)
					}
				}
			}
		}
	}
	lm.setMeans(d)
	return nil
}

func replaySnapshotCell(d durations, tr *tracing, rng *rand.Rand, tp sweep.Topology, wl sweep.Workload, vms int, size units.ByteSize) error {
	seed := rng.Int63()
	orch, err := simCell(d, tr, tp.Profile, vms, seed)
	if err != nil {
		return err
	}
	env, err := measureCell(d, tr, orch)
	if err != nil {
		return err
	}
	app, err := workload.Generate(rng, workload.Config{MinTasks: 4, MaxTasks: 6, MeanBytes: size, Patterns: wl.Patterns})
	if err != nil {
		return err
	}
	greedy, err := placeLayers(d, tr, app, env, rng)
	if err != nil {
		return err
	}
	took, err := tr.call("place.optimal", func() error {
		_, err := place.Optimal(app, env, place.Hose, 0)
		return err
	})
	if err != nil {
		return err
	}
	d.add("place.optimal_ms", took, 1)
	// Execution runs on a pristine cloud, as the sim backend's does.
	fresh, err := simCell(durations{}, nil, tp.Profile, vms, seed)
	if err != nil {
		return err
	}
	took, err = tr.call("netsim.execute", func() error {
		_, err := fresh.Execute(app, greedy)
		return err
	})
	if err != nil {
		return err
	}
	d.add("netsim.execute_ms", took, 1)
	return nil
}

// replaySequence times a choreo sequence run per cell shape of the
// grid and splits it into placement (the PlaceLatency sequence.Run
// reports: re-measuring and placing each arrival) and simulation.
func replaySequence(lm layerMetrics, tr *tracing, o options) error {
	g := sequenceGrid(o.small)
	rng := rand.New(rand.NewSource(o.seed + replaySalt))
	d := durations{}
	for _, tp := range g.Topologies {
		for _, inter := range g.Interarrivals {
			for _, reeval := range g.Reevals {
				p := sequence.Params{Apps: g.SeqApps[0], Interarrival: inter, Reeval: reeval, MigrationGain: 0.2, MaxMigrations: 3}
				if err := replaySequenceCell(d, tr, rng, tp, g, p); err != nil {
					return fmt.Errorf("replaying %s sequence: %w", tp.Name, err)
				}
			}
		}
	}
	lm.setMeans(d)
	return nil
}

func replaySequenceCell(d durations, tr *tracing, rng *rand.Rand, tp sweep.Topology, g sweep.Grid, p sequence.Params) error {
	seed := rng.Int63()
	vms := g.VMCounts[0]
	orch, err := simCell(d, tr, tp.Profile, vms, seed)
	if err != nil {
		return err
	}
	env, err := measureCell(d, tr, orch)
	if err != nil {
		return err
	}
	seq, err := sequence.Generate(rng, workload.Config{
		MinTasks: 4, MaxTasks: 6, MeanBytes: g.MeanSizes[0], Patterns: g.Workloads[0].Patterns,
	}, p)
	if err != nil {
		return err
	}
	fresh, err := simCell(durations{}, nil, tp.Profile, vms, seed)
	if err != nil {
		return err
	}
	var res sequence.CellResult
	took, err := tr.call("sequence.run", func() error {
		var err error
		res, err = sequence.Run(fresh, seq, core.AlgChoreo, env.Clone(), p)
		return err
	})
	if err != nil {
		return err
	}
	d.add("sequence.place_ms", res.PlaceLatency, 1)
	d.add("sequence.sim_ms", took-res.PlaceLatency, 1)
	d["sequence.migrations"] = append(d["sequence.migrations"], float64(res.Migrations))
	return nil
}
