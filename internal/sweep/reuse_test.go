package sweep

import (
	"runtime"
	"slices"
	"testing"
)

// reuseTopologies puts a jellyfish cloud before a larger ec2 one, so a
// reused simulator, rng or measurement scratch moves between fabrics of
// different shapes and VM counts.
func reuseTopologies(g Grid) Grid {
	g.Topologies = nil
	for _, name := range []string{"jellyfish-12", "ec2-2013"} {
		tp, err := TopologyByName(name)
		if err != nil {
			panic(err)
		}
		g.Topologies = append(g.Topologies, tp)
	}
	return g
}

// reuseSnapshotGrid is sharingGrid (two transfer sizes, the Random
// baseline, the optimal reference) on reuseTopologies.
func reuseSnapshotGrid() Grid { return reuseTopologies(sharingGrid()) }

// reuseSequenceGrid is tinySeqGrid on reuseTopologies.
func reuseSequenceGrid() Grid { return reuseTopologies(tinySeqGrid()) }

// freshLines runs each of g's clouds (topology and seed) as a grid of
// its own, after two garbage collections, which empty every sync.Pool:
// its cell group starts from new simulators, rngs and scratch. It
// returns the result lines, sorted.
func freshLines(t *testing.T, g Grid) []string {
	t.Helper()
	var lines []string
	for _, tp := range g.Topologies {
		for _, seed := range g.Seeds {
			one := g
			one.Topologies, one.Seeds = []Topology{tp}, []int64{seed}
			runtime.GC()
			runtime.GC()
			lines = append(lines, resultLines(streamGrid(t, one, 1))...)
		}
	}
	slices.Sort(lines)
	return lines
}

// TestReuseAcrossGrids runs the snapshot grid, the sequence grid and the
// snapshot grid again in one process, so each reuses the simulators,
// rngs and scratch the previous ones released, across clouds of
// different shapes. The two snapshot streams must be byte-identical,
// and every result line must equal the line its cloud writes when swept
// alone on new state.
func TestReuseAcrossGrids(t *testing.T) {
	freshSnap, freshSeq := freshLines(t, reuseSnapshotGrid()), freshLines(t, reuseSequenceGrid())
	for _, workers := range []int{1, 3} {
		snap := streamGrid(t, reuseSnapshotGrid(), workers)
		seq := streamGrid(t, reuseSequenceGrid(), workers)
		if again := streamGrid(t, reuseSnapshotGrid(), workers); again != snap {
			t.Errorf("workers %d: the snapshot stream differs after the sequence grid ran", workers)
		}
		if lines := slices.Sorted(slices.Values(resultLines(snap))); !slices.Equal(lines, freshSnap) {
			t.Errorf("workers %d: snapshot lines differ from the lines each cloud writes alone on new state", workers)
		}
		if lines := slices.Sorted(slices.Values(resultLines(seq))); !slices.Equal(lines, freshSeq) {
			t.Errorf("workers %d: sequence lines differ from the lines each cloud writes alone on new state", workers)
		}
	}
}
