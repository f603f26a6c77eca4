package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"choreo/internal/obs"
)

// TestMeasurementKeyStripsArrivalProcess pins which coordinates the
// measurement key drops: sim cells differing only in arrival process
// share one measured cloud, everything else stays distinct.
func TestMeasurementKeyStripsArrivalProcess(t *testing.T) {
	a := CellKey{Topology: "t", Workload: "w", CloudSeed: 9, VMs: 4, Interarrival: 5, SeqApps: 8}
	b := a
	b.Interarrival, b.SeqApps = 30, 12
	if a.MeasurementKey() != b.MeasurementKey() {
		t.Error("cells differing only in arrival process do not share a measurement key")
	}
	c := a
	c.CloudSeed = 10
	if a.MeasurementKey() == c.MeasurementKey() {
		t.Error("cells with different clouds share a measurement key")
	}
}

// resultLines returns the result lines of a stream: everything between
// the grid echo and the aggregates line.
func resultLines(stream string) []string {
	lines := strings.Split(strings.TrimSpace(stream), "\n")
	return lines[1 : len(lines)-1]
}

// sharingGrid is goldenGrid plus the Random baseline and ec2-2013's
// skewed rates, so that a run which changed its cell's measurement
// would change what a later algorithm of the cell places.
func sharingGrid() Grid {
	g := goldenGrid()
	tp, _ := TopologyByName("ec2-2013")
	g.Topologies = append(g.Topologies, tp)
	alg, _ := AlgorithmByName("random")
	g.Algorithms = append(g.Algorithms, alg)
	return g
}

// TestGroupSharingDeterministic shows that running a group's scenarios
// on its one shared cell leaks nothing between them. Each result line
// of the full grid's stream must equal both the line its algorithm
// writes when swept alone as a one-algorithm grid, and the line its
// scenario writes when run on a cell built for it alone. The cloud seed
// and the Random baseline's rng do not depend on the algorithm, so any
// difference would be state one run left on the shared cloud,
// measurement, application or optimal reference for another.
func TestGroupSharingDeterministic(t *testing.T) {
	for name, grid := range map[string]func() Grid{"snapshot": sharingGrid, "sequence": tinySeqGrid} {
		full := grid()
		lines := resultLines(streamGrid(t, full, 4))
		byAlg := map[string][]string{}
		for _, ln := range lines {
			var r Result
			if err := json.Unmarshal([]byte(ln), &r); err != nil {
				t.Fatalf("%s: bad result line %q: %v", name, ln, err)
			}
			byAlg[r.Algorithm] = append(byAlg[r.Algorithm], ln)
		}
		for _, alg := range full.Algorithms {
			g := grid()
			g.Algorithms = []Algorithm{alg}
			alone := resultLines(streamGrid(t, g, 4))
			want := byAlg[alg.Name]
			if len(alone) != len(want) {
				t.Fatalf("%s %s: %d result lines alone, %d in the full grid", name, alg.Name, len(alone), len(want))
			}
			for i := range alone {
				if alone[i] != want[i] {
					t.Errorf("%s %s line %d differs when the algorithm runs alone:\nalone: %s\nfull:  %s",
						name, alg.Name, i, alone[i], want[i])
				}
			}
		}

		// Run each cell group's scenarios one after another on its
		// shared cells, and each scenario on cells built for it alone:
		// both must write the full grid's line, and afterwards the
		// shared cells must still equal freshly built ones.
		scs, err := full.Expand()
		if err != nil {
			t.Fatal(err)
		}
		var order []CellKey
		groups := map[CellKey][]int{}
		for i, sc := range scs {
			key := full.CellKey(sc).MeasurementKey()
			if _, ok := groups[key]; !ok {
				order = append(order, key)
			}
			groups[key] = append(groups[key], i)
		}
		for _, key := range order {
			idx := groups[key]
			grp := make([]Scenario, len(idx))
			for j, i := range idx {
				grp[j] = scs[i]
			}
			shared := buildCells(t, full, grp)
			for j, i := range idx {
				for arm, c := range []*cell{shared[j], buildCells(t, full, grp[j:j+1])[0]} {
					if got := runLine(t, full, grp[j], c); got != lines[i] {
						t.Errorf("%s scenario %d differs on %s cell:\ngot:  %s\nfull: %s",
							name, i, []string{"its group's shared", "a"}[arm], got, lines[i])
					}
				}
			}
			// The clouds are left out: two builds of one cloud are not
			// DeepEqual, and a changed cloud would change a later
			// execution's completion above.
			for j, c := range buildCells(t, full, grp) {
				s := *shared[j]
				s.cloud = c.cloud
				if !reflect.DeepEqual(s, *c) {
					t.Errorf("%s scenario %d: its group's runs changed the shared cell", name, idx[j])
				}
			}
		}
	}
}

// buildCells builds scs's cells as one cell group.
func buildCells(t *testing.T, g Grid, scs []Scenario) []*cell {
	t.Helper()
	cells, _, err := g.buildGroup(context.Background(), scs, newRunObs(nil))
	if err != nil {
		t.Fatal(err)
	}
	return cells
}

// runLine runs sc on c and returns the stream line its result writes.
func runLine(t *testing.T, g Grid, sc Scenario, c *cell) string {
	t.Helper()
	r, err := g.runOn(context.Background(), sc, c, newRunObs(nil))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := NewStreamWriter(&buf).Result(r); err != nil {
		t.Fatal(err)
	}
	return strings.TrimSpace(buf.String())
}

// TestSequenceBuildSpansCountCells: a sequence cell group opens one
// sweep.build span per cell it builds and one sweep.measure span per
// cloud, not one per scenario. tinySeqGrid's 8 scenarios are 2 cells
// (interarrivals) on one cloud.
func TestSequenceBuildSpansCountCells(t *testing.T) {
	var events bytes.Buffer
	o := &obs.Observer{Trace: obs.NewTracer(&events)}
	if _, err := RunStream(tinySeqGrid(), RunOptions{Workers: 2, Obs: o}); err != nil {
		t.Fatal(err)
	}
	if err := o.Trace.Flush(); err != nil {
		t.Fatal(err)
	}
	evs, err := obs.DecodeEvents(bytes.NewReader(events.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, e := range evs {
		if e.Ev == "start" {
			counts[e.Name]++
		}
	}
	if counts["sweep.cell"] != 8 || counts["sweep.build"] != 2 || counts["sweep.measure"] != 1 {
		t.Errorf("cell/build/measure spans = %d/%d/%d, want 8/2/1",
			counts["sweep.cell"], counts["sweep.build"], counts["sweep.measure"])
	}
}
