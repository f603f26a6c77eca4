package shard

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"choreo/internal/place"
	"choreo/internal/sweep"
	"choreo/internal/units"
)

// pick returns 1 to max of vals, distinct, in random order.
func pick[T any](rng *rand.Rand, vals []T, max int) []T {
	perm := rng.Perm(len(vals))[:1+rng.Intn(min(max, len(vals)))]
	out := make([]T, len(perm))
	for i, p := range perm {
		out[i] = vals[p]
	}
	return out
}

// byName resolves names through one of the sweep's name lookups.
func byName[T any](t *testing.T, names []string, lookup func(string) (T, error)) []T {
	t.Helper()
	out := make([]T, len(names))
	for i, name := range names {
		v, err := lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = v
	}
	return out
}

// randomGrid draws a grid of at most 48 scenarios: a sequence grid, or
// a snapshot grid that sometimes replays a trace workload too.
func randomGrid(t *testing.T, rng *rand.Rand, sequence bool) sweep.Grid {
	t.Helper()
	for {
		g := sweep.Grid{
			Model:      place.Hose,
			MinTasks:   3,
			MaxTasks:   4,
			Topologies: byName(t, pick(rng, []string{"tworack", "dumbbell", "ec2-2013"}, 2), sweep.TopologyByName),
			Workloads:  byName(t, pick(rng, []string{"shuffle", "uniform", "skewed"}, 2), sweep.WorkloadByName),
			Algorithms: byName(t, pick(rng, []string{"choreo", "random", "round-robin"}, 3), sweep.AlgorithmByName),
			Seeds:      pick(rng, []int64{1, 2, 3}, 2),
			VMCounts:   pick(rng, []int{4, 6}, 2),
			MeanSizes:  pick(rng, []units.ByteSize{8 * units.Megabyte, 32 * units.Megabyte}, 2),
		}
		if sequence {
			g.Mode = sweep.Sequence
			g.Interarrivals = pick(rng, []time.Duration{2 * time.Second, 8 * time.Second}, 2)
			g.SeqApps = pick(rng, []int{2, 3}, 2)
			g.Reevals = pick(rng, []time.Duration{0, 4 * time.Second}, 2)
		} else if rng.Intn(2) == 0 {
			g.Workloads = append(g.Workloads, sweep.TraceWorkload(unitTrace(t)))
		}
		hdr, err := g.Summary()
		if err != nil {
			t.Fatal(err)
		}
		if hdr.Scenarios <= 48 {
			return g
		}
	}
}

// TestShardPlanProperties runs random small grids — snapshot and
// sequence, some with a trace workload — as 1 to 5 shards, and two
// fixed grids as 3: testGrid with a trace workload, which skips the
// transfer-size dimension, and the default sequence grid. For each: the
// merged shards equal the unsharded stream byte for byte, every shard
// holds whole clouds, and the clouds measured, summed over the shards,
// equal the clouds the unsharded run measures — 4 for the default
// sequence grid.
func TestShardPlanProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 12; trial++ {
		g := randomGrid(t, rng, trial%2 == 1)
		n := 1 + rng.Intn(5)
		t.Run(fmt.Sprintf("trial%d-%s-%dshards", trial, g.Mode, n), func(t *testing.T) {
			checkShards(t, g, n)
		})
	}
	t.Run("trace-3shards", func(t *testing.T) {
		g := testGrid()
		g.Workloads = append(g.Workloads, sweep.TraceWorkload(unitTrace(t)))
		checkShards(t, g, 3)
	})
	t.Run("default-sequence-3shards", func(t *testing.T) {
		if clouds := checkShards(t, sweep.DefaultSequence(), 3); clouds != 4 {
			t.Errorf("the default sequence grid has %d clouds, want 4", clouds)
		}
	})
}

// checkShards checks g run as n shards against the unsharded run and
// returns the grid's number of clouds.
func checkShards(t *testing.T, g sweep.Grid, n int) int {
	t.Helper()
	scenarios, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	full, fullSum := streamBytes(t, g, sweep.RunOptions{Workers: 4})
	shards, sums := runShards(t, g, n)
	if merged, _ := mergeBytes(t, shards); !bytes.Equal(merged, full) {
		t.Fatalf("merged shards differ from the unsharded stream:\nmerged:\n%s\nfull:\n%s", merged, full)
	}

	cloudShard := make(map[sweep.Coord]int)
	measured := int64(0)
	for s := 1; s <= n; s++ {
		include, err := Plan(g, Spec{Index: s, Count: n})
		if err != nil {
			t.Fatal(err)
		}
		for i := range include {
			key := scenarios[i].Cloud()
			if prev, ok := cloudShard[key]; ok && prev != s {
				t.Errorf("cloud %s split across shards %d and %d", key, prev, s)
			}
			cloudShard[key] = s
		}
		measured += sums[s-1].Cache.MeasurementMisses
	}
	clouds := int64(len(cloudShard))
	if fullSum.Cache.MeasurementMisses != clouds || measured != clouds {
		t.Errorf("clouds measured: %d unsharded, %d over %d shards; the grid has %d",
			fullSum.Cache.MeasurementMisses, measured, n, clouds)
	}
	return len(cloudShard)
}
