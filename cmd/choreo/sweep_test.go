package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"choreo/internal/sweep"
)

// sweepLines runs `choreo sweep -stream` with args and returns the
// report's lines: the grid echo first, then one line per scenario.
func sweepLines(t *testing.T, args ...string) [][]byte {
	t.Helper()
	out := filepath.Join(t.TempDir(), "sweep.jsonl")
	if err := runSweep(append(args, "-stream", "-out", out)); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Split(bytes.TrimSpace(data), []byte("\n"))
}

// gridEcho decodes the "grid" object of a stream's first line.
func gridEcho(t *testing.T, line []byte) json.RawMessage {
	t.Helper()
	var head struct {
		Grid json.RawMessage `json:"grid"`
	}
	if err := json.Unmarshal(line, &head); err != nil {
		t.Fatal(err)
	}
	return head.Grid
}

// TestSweepDefaultsAreStockGrids: with no dimension flag, `choreo
// sweep` echoes exactly sweep.Default()'s grid, and `-mode sequence`
// exactly sweep.DefaultSequence()'s, so the CLI and the package keep one
// default per mode.
func TestSweepDefaultsAreStockGrids(t *testing.T) {
	for _, tc := range []struct {
		args []string
		grid sweep.Grid
	}{
		{nil, sweep.Default()},
		{[]string{"-mode", "sequence"}, sweep.DefaultSequence()},
	} {
		sum, err := tc.grid.Summary()
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(sum)
		if err != nil {
			t.Fatal(err)
		}
		if got := gridEcho(t, sweepLines(t, tc.args...)[0]); !bytes.Equal(got, want) {
			t.Errorf("choreo sweep %s echoes\n%s\nwant\n%s", strings.Join(tc.args, " "), got, want)
		}
	}
}

// TestSweepRefusesZeroKnobs: the engine reads a zero knob as its
// default, so an explicit 0 on any of these flags is refused rather than
// silently echoed as the default, and the error names the fix.
func TestSweepRefusesZeroKnobs(t *testing.T) {
	for _, tc := range []struct {
		args []string
		fix  string
	}{
		{[]string{"-min-tasks", "0"}, "pass at least 2"},
		{[]string{"-max-tasks", "0"}, "pass at least -min-tasks"},
		{[]string{"-optimal-max-tasks", "0"}, "-optimal-max-tasks -1"},
		{[]string{"-mode", "sequence", "-max-migrations", "0"}, "-reeval 0"},
		{[]string{"-mode", "sequence", "-migration-gain", "0"}, "(0, 1)"},
	} {
		flag := tc.args[len(tc.args)-2]
		err := runSweep(append(tc.args, "-out", filepath.Join(t.TempDir(), "out.json")))
		if err == nil || !strings.Contains(err.Error(), flag+" 0 would silently mean the default") || !strings.Contains(err.Error(), tc.fix) {
			t.Errorf("%s: err = %v, want a refusal naming %q", strings.Join(tc.args, " "), err, tc.fix)
		}
	}
}

// TestSweepOptimalMaxTasks: -optimal-max-tasks -1 turns the optimal
// reference off.
func TestSweepOptimalMaxTasks(t *testing.T) {
	lines := sweepLines(t, "-optimal-max-tasks", "-1", "-topologies", "ec2-2013", "-seeds", "1")
	var echo sweep.GridSummary
	if err := json.Unmarshal(gridEcho(t, lines[0]), &echo); err != nil {
		t.Fatal(err)
	}
	if echo.OptimalMaxTasks != -1 {
		t.Errorf("echo optimalMaxTasks = %d, want -1", echo.OptimalMaxTasks)
	}
	// Lines between the echo and the aggregates footer are results.
	results := lines[1 : len(lines)-1]
	if len(results) == 0 {
		t.Fatal("no result lines")
	}
	for _, line := range results {
		if bytes.Contains(line, []byte(`"optimalSeconds"`)) {
			t.Errorf("-optimal-max-tasks -1 still computed the optimum: %s", line)
		}
	}
}
