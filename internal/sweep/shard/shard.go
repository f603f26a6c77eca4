// Package shard makes one declarative sweep grid executable as n
// independent slices and reassemblable into one canonical report — the
// layer that turns the single-process sweep engine into a
// multi-machine one.
//
// Three pieces:
//
//   - Plan strides the expanded scenario list across n shards at cell-
//     group granularity: every algorithm of a cell lands in the same
//     shard, so each shard builds every cell it touches exactly once
//     and no cell is built twice across the fleet.
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
// returns the results it already contains keyed by scenario identity,
// so a resumed run re-executes only the missing cells.
//
// Scenario identity is the cell-group coordinate plus the algorithm —
// the same inputs sweep.CellKey derives the cell's key from — so
// matching result lines to grid cells never depends on file position.
package shard

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"time"

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

// Identity names one scenario of a grid: the cell-group coordinates
// (which also derive sweep.CellKey) plus the algorithm — and, for
// sequence cells, the swept arrival-process and re-evaluation
// coordinates, which are all zero on snapshot cells. Result lines carry
// exactly these fields, so identity — not file position — is what ties
// a line in a shard or resume file back to its grid cell.
type Identity struct {
	Topology  string
	Workload  string
	Algorithm string
	Seed      int64
	VMs       int
	MeanBytes int64
	// Interarrival and Reeval are in nanoseconds, as result lines carry
	// them; SeqApps > 0 marks a sequence cell.
	Interarrival int64
	SeqApps      int
	Reeval       int64
}

func (id Identity) String() string {
	s := fmt.Sprintf("%s/%s/%s seed %d vms %d meanBytes %d",
		id.Topology, id.Workload, id.Algorithm, id.Seed, id.VMs, id.MeanBytes)
	if id.SeqApps > 0 {
		s += fmt.Sprintf(" interarrival %v apps %d reeval %v",
			time.Duration(id.Interarrival), id.SeqApps, time.Duration(id.Reeval))
	}
	return s
}

func resultIdentity(r sweep.Result) Identity {
	return Identity{
		Topology:     r.Topology,
		Workload:     r.Workload,
		Algorithm:    r.Algorithm,
		Seed:         r.Seed,
		VMs:          r.VMs,
		MeanBytes:    r.MeanBytes,
		Interarrival: r.InterarrivalNs,
		SeqApps:      r.SeqApps,
		Reeval:       r.ReevalNs,
	}
}

func scenarioIdentity(sc sweep.Scenario) Identity {
	return Identity{
		Topology:     sc.Topology.Name,
		Workload:     sc.Workload.Name,
		Algorithm:    sc.Algorithm.Name,
		Seed:         sc.Seed,
		VMs:          sc.VMs,
		MeanBytes:    int64(sc.MeanBytes),
		Interarrival: int64(sc.Interarrival),
		SeqApps:      sc.SeqApps,
		Reeval:       int64(sc.Reeval),
	}
}

// Plan returns the expansion indices shard spec executes, as a set.
// Scenarios are assigned at cell-group granularity — all algorithms of
// one cell (one sweep.CellKey) go to the same shard, groups striding
// round-robin across shards in first-appearance order — so every shard
// sees complete cell groups, builds each of its cells exactly once, and
// no cell is built on two machines. The
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
	groups := make(map[sweep.CellKey]int)
	include := make(map[int]bool)
	for _, sc := range scenarios {
		key := g.CellKey(sc)
		gi, ok := groups[key]
		if !ok {
			gi = len(groups)
			groups[key] = gi
		}
		if gi%spec.Count == spec.Index-1 {
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

// summaryIndex enumerates a grid echo's scenario identities in
// expansion order, returning both the identity→index map and the
// ordered list. It mirrors sweep.Grid.Expand — topology, workload, VM
// count, transfer size, interarrival, sequence length, re-evaluation
// period, algorithm, seed, with trace workloads skipping the
// transfer-size dimension and snapshot grids collapsing the sequence
// dimensions to single zero placeholders — and a unit test cross-checks
// the two, so the merger can recover expansion order from nothing but
// the grid echo at the head of each shard.
func summaryIndex(s sweep.GridSummary) (map[Identity]int, []Identity, error) {
	inters, seqApps, reevals := []int64{0}, []int{0}, []int64{0}
	if s.Mode == "sequence" {
		inters, seqApps, reevals = s.InterarrivalNs, s.SeqApps, s.ReevalNs
	}
	order := make([]Identity, 0, s.Scenarios)
	idx := make(map[Identity]int, s.Scenarios)
	for _, tp := range s.Topologies {
		for _, wl := range s.Workloads {
			sizes := s.MeanBytes
			if strings.HasPrefix(wl, "trace:") {
				sizes = []int64{0}
			}
			for _, vms := range s.VMCounts {
				for _, size := range sizes {
					for _, inter := range inters {
						for _, apps := range seqApps {
							for _, reeval := range reevals {
								for _, alg := range s.Algorithms {
									for _, seed := range s.Seeds {
										id := Identity{Topology: tp, Workload: wl, Algorithm: alg,
											Seed: seed, VMs: vms, MeanBytes: size,
											Interarrival: inter, SeqApps: apps, Reeval: reeval}
										if _, dup := idx[id]; dup {
											return nil, nil, fmt.Errorf("shard: grid echo repeats scenario %s", id)
										}
										idx[id] = len(order)
										order = append(order, id)
									}
								}
							}
						}
					}
				}
			}
		}
	}
	if len(order) != s.Scenarios {
		return nil, nil, fmt.Errorf("shard: grid echo declares %d scenarios but its dimensions expand to %d",
			s.Scenarios, len(order))
	}
	return idx, order, nil
}
