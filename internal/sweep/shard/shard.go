// Package shard makes one declarative sweep grid executable as n
// independent slices and reassemblable into one canonical report — the
// layer that turns the single-process sweep engine into a
// multi-machine one.
//
// Three pieces:
//
//   - Plan strides the expanded scenario list across n shards a whole
//     cloud at a time: every scenario of one cloud lands in the same
//     shard, so each shard builds and measures every cloud it touches
//     exactly once and no cloud is measured twice across the fleet.
//   - Writer emits a self-describing JSONL shard: the full grid echo
//     (byte-identical to the unsharded stream header), a shard header
//     carrying the grid hash and shard coordinates, the slice's result
//     lines in expansion order, and a completeness footer.
//   - ReadShard + Merge validate n shard files against each other (same
//     grid hash, disjoint coverage, no gaps, no truncation) and splice
//     the result lines back into expansion order, recomputing the final
//     aggregates — the merged output is byte-identical to what an
//     unsharded streaming run of the same grid would have written.
//
// LoadPrior closes the loop for interrupted runs: it reads any prior
// JSONL output (stream or shard, complete or truncated mid-line) and
// returns the results it already contains keyed by expansion index, so
// a resumed run re-executes only the missing cells.
//
// Both Merge and LoadPrior tie a result line to its grid cell by its
// coordinates (sweep.Coord) through the grid echo's expansion
// (sweep.GridSummary.Index), never by file position.
package shard

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"choreo/internal/sweep"
)

// Spec names one slice of a sharded sweep: shard Index of Count, with
// Index 1-based as on the command line (`-shard 2/3`).
type Spec struct {
	Index int
	Count int
}

// ParseSpec parses a CLI shard spec of the form "i/n".
func ParseSpec(s string) (Spec, error) {
	before, after, ok := strings.Cut(s, "/")
	if !ok {
		return Spec{}, fmt.Errorf("shard: spec %q is not of the form i/n (e.g. 2/3)", s)
	}
	idx, err1 := strconv.Atoi(strings.TrimSpace(before))
	cnt, err2 := strconv.Atoi(strings.TrimSpace(after))
	if err1 != nil || err2 != nil {
		return Spec{}, fmt.Errorf("shard: spec %q is not of the form i/n (e.g. 2/3)", s)
	}
	sp := Spec{Index: idx, Count: cnt}
	return sp, sp.validate()
}

func (s Spec) String() string { return fmt.Sprintf("%d/%d", s.Index, s.Count) }

func (s Spec) validate() error {
	if s.Count < 1 || s.Index < 1 || s.Index > s.Count {
		return fmt.Errorf("shard: invalid shard %d/%d (want 1 <= i <= n)", s.Index, s.Count)
	}
	return nil
}

// Plan returns the expansion indices shard spec executes, as a set.
// Scenarios are assigned a whole cloud at a time (sweep.Coord.Cloud),
// the unit sweep.RunStream builds and measures on one worker: clouds
// stride round-robin across shards in first-appearance order, so no
// cloud is built or measured on two machines, and the clouds measured
// over all shards are the clouds the unsharded run measures. The
// assignment is a pure function of the grid and the spec: every machine
// running Plan over the same grid computes the same partition.
func Plan(g sweep.Grid, spec Spec) (map[int]bool, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	scenarios, err := g.Expand()
	if err != nil {
		return nil, err
	}
	clouds := make(map[sweep.Coord]int)
	include := make(map[int]bool)
	for _, sc := range scenarios {
		key := sc.Cloud()
		ci, ok := clouds[key]
		if !ok {
			ci = len(clouds)
			clouds[key] = ci
		}
		if ci%spec.Count == spec.Index-1 {
			include[sc.Index] = true
		}
	}
	return include, nil
}

// gridLine renders the header line for a grid echo, byte-identical to
// sweep.StreamWriter.Header's output (both marshal the same shape).
func gridLine(s sweep.GridSummary) ([]byte, error) {
	b, err := json.Marshal(struct {
		Grid sweep.GridSummary `json:"grid"`
	}{s})
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// HashSummary fingerprints a grid echo. Shards carry it in their header
// line so the merger (and a resumed run) can refuse to combine files
// from different sweeps with a precise error instead of a corrupt
// report.
func HashSummary(s sweep.GridSummary) (string, error) {
	line, err := gridLine(s)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(line)
	return hex.EncodeToString(sum[:8]), nil
}

// headerLine is the shard's self-description, the second line of every
// shard file. Backend echoes the grid's measurement backend (absent for
// sim, matching the grid echo), so a merger can refuse to splice
// simulated and live shards with a precise error even before comparing
// the full echoes.
type headerLine struct {
	Index     int    `json:"index"`
	Count     int    `json:"count"`
	GridHash  string `json:"gridHash"`
	Backend   string `json:"backend,omitempty"`
	Scenarios int    `json:"scenarios"`
}

// backendLabel names a grid echo's measurement backend, spelling the
// implicit default out for error messages.
func backendLabel(name string) string {
	if name == "" {
		return "sim"
	}
	return name
}

// footerLine marks a shard file as complete; a shard without it is
// truncated (or still running) and only good for -resume.
type footerLine struct {
	Index   int `json:"index"`
	Results int `json:"results"`
}

// lineProbe classifies one JSONL line by which top-level key it
// carries: grid echo, shard header, shard footer, final aggregates, or
// (via Topology) a scenario result.
type lineProbe struct {
	Grid          *sweep.GridSummary `json:"grid"`
	Shard         *headerLine        `json:"shard"`
	ShardComplete *footerLine        `json:"shardComplete"`
	Algorithms    json.RawMessage    `json:"algorithms"`
	Topology      string             `json:"topology"`
}
