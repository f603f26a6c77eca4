package shard

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"

	"choreo/internal/sweep"
)

// Shard is one parsed, internally-validated shard file.
type Shard struct {
	// Name labels the shard in error messages (usually the file path).
	Name string
	// Header is the shard's self-description line.
	Header headerLine
	// Grid is the parsed full-grid echo.
	Grid sweep.GridSummary

	gridLine []byte
	results  []resultLine
}

// resultLine retains a scenario line both raw (spliced verbatim into
// the merged output, guaranteeing byte-identity) and parsed (for
// identity lookup and aggregate recomputation).
type resultLine struct {
	raw  []byte
	line int
	res  sweep.Result
}

// ReadShard parses one shard file and validates it in isolation: the
// two header lines, the footer, internal hash consistency, and the
// declared result counts. Truncation — a partial last line or a missing
// footer — is rejected with a precise error; an interrupted shard is
// input for -resume, not for merge.
func ReadShard(name string, r io.Reader) (*Shard, error) {
	br := bufio.NewReader(r)
	sh := &Shard{Name: name}
	sawFooter := false
	for lineno := 1; ; lineno++ {
		raw, readErr := br.ReadBytes('\n')
		if readErr == io.EOF {
			if len(raw) > 0 {
				return nil, fmt.Errorf("%s:%d: truncated shard: partial last line (interrupted write? resume it with `choreo sweep -shard -resume`)", name, lineno)
			}
			break
		}
		if readErr != nil {
			return nil, fmt.Errorf("%s: %w", name, readErr)
		}
		var probe lineProbe
		if err := json.Unmarshal(raw, &probe); err != nil {
			return nil, fmt.Errorf("%s:%d: bad JSON line: %v", name, lineno, err)
		}
		switch {
		case sawFooter:
			return nil, fmt.Errorf("%s:%d: content after the shardComplete footer", name, lineno)
		case lineno == 1:
			if probe.Grid == nil {
				return nil, fmt.Errorf(`%s:1: not a shard file: first line must be the grid echo {"grid":...}`, name)
			}
			sh.Grid = *probe.Grid
			sh.gridLine = append([]byte(nil), raw...)
		case lineno == 2:
			if probe.Shard == nil {
				return nil, fmt.Errorf(`%s:2: not a shard file: second line must be the shard header {"shard":...} (a plain -stream report has no shard coordinates)`, name)
			}
			sh.Header = *probe.Shard
		case probe.Topology != "":
			var res sweep.Result
			if err := json.Unmarshal(raw, &res); err != nil {
				return nil, fmt.Errorf("%s:%d: bad result line: %v", name, lineno, err)
			}
			sh.results = append(sh.results, resultLine{raw: append([]byte(nil), raw...), line: lineno, res: res})
		case probe.ShardComplete != nil:
			f := *probe.ShardComplete
			if f.Index != sh.Header.Index {
				return nil, fmt.Errorf("%s:%d: footer belongs to shard %d, header to shard %d", name, lineno, f.Index, sh.Header.Index)
			}
			if f.Results != len(sh.results) {
				return nil, fmt.Errorf("%s:%d: footer declares %d results but the file has %d (truncated or spliced?)", name, lineno, f.Results, len(sh.results))
			}
			sawFooter = true
		case probe.Algorithms != nil:
			return nil, fmt.Errorf("%s:%d: unexpected aggregates line (shard files carry none — is this a -stream report?)", name, lineno)
		default:
			return nil, fmt.Errorf("%s:%d: unrecognized line", name, lineno)
		}
	}
	if sh.gridLine == nil {
		return nil, fmt.Errorf("%s: empty file", name)
	}
	if !sawFooter {
		return nil, fmt.Errorf("%s: truncated shard: missing shardComplete footer (interrupted run? resume it with `choreo sweep -shard -resume`)", name)
	}
	spec := Spec{Index: sh.Header.Index, Count: sh.Header.Count}
	if err := spec.validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	hash, err := HashSummary(sh.Grid)
	if err != nil {
		return nil, err
	}
	if hash != sh.Header.GridHash {
		return nil, fmt.Errorf("%s: recorded grid hash %s does not match the file's own grid echo (%s) — spliced from different sweeps?", name, sh.Header.GridHash, hash)
	}
	if sh.Header.Backend != sh.Grid.Backend {
		return nil, fmt.Errorf("%s: shard header claims the %s backend but the grid echo says %s — spliced from different sweeps?",
			name, backendLabel(sh.Header.Backend), backendLabel(sh.Grid.Backend))
	}
	if sh.Header.Scenarios != len(sh.results) {
		return nil, fmt.Errorf("%s: shard header plans %d scenarios but the file has %d result lines", name, sh.Header.Scenarios, len(sh.results))
	}
	return sh, nil
}

// Merge validates the shards against each other — same grid hash, a
// complete 1..n set, disjoint coverage, no gaps — and splices their
// result lines back into expansion order, recomputing the final
// aggregates line. The output is byte-identical to the unsharded
// streaming run of the same grid. Returns the merged run's summary for
// human-facing reporting.
//
// Memory on the merge host is the merged report's size (every shard's
// lines are held for validation and reordering), not the grid's
// simulation state — fine far beyond the grids the engine can run
// today. If reports ever outgrow RAM, the shards' per-file expansion
// order admits an n-way streaming merge; see ROADMAP.
func Merge(w io.Writer, shards []*Shard) (*sweep.Summary, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("shard: nothing to merge")
	}
	base := shards[0]
	byIndex := make(map[int]*Shard, len(shards))
	for _, sh := range shards {
		if sh.Grid.Backend != base.Grid.Backend {
			// The backend is part of the grid echo, so the hash check below
			// would also fire — but "you are splicing a simulated sweep with
			// a live one" deserves its own message.
			return nil, fmt.Errorf("shard: measurement backend mismatch: %s was measured by the %s backend, %s by %s — simulated and live sweeps cannot be spliced",
				base.Name, backendLabel(base.Grid.Backend), sh.Name, backendLabel(sh.Grid.Backend))
		}
		if sh.Header.GridHash != base.Header.GridHash {
			return nil, fmt.Errorf("shard: grid hash mismatch: %s has %s, %s has %s — shards of different sweeps",
				base.Name, base.Header.GridHash, sh.Name, sh.Header.GridHash)
		}
		if !bytes.Equal(sh.gridLine, base.gridLine) {
			return nil, fmt.Errorf("shard: grid echo differs between %s and %s", base.Name, sh.Name)
		}
		if sh.Header.Count != base.Header.Count {
			return nil, fmt.Errorf("shard: %s is one of %d shards, %s one of %d",
				base.Name, base.Header.Count, sh.Name, sh.Header.Count)
		}
		if prev, dup := byIndex[sh.Header.Index]; dup {
			return nil, fmt.Errorf("shard: %s and %s are both shard %d/%d",
				prev.Name, sh.Name, sh.Header.Index, sh.Header.Count)
		}
		byIndex[sh.Header.Index] = sh
	}
	var missing []string
	for i := 1; i <= base.Header.Count; i++ {
		if byIndex[i] == nil {
			missing = append(missing, strconv.Itoa(i))
		}
	}
	if len(missing) > 0 {
		return nil, fmt.Errorf("shard: incomplete set: missing shard %s of %d",
			strings.Join(missing, ","), base.Header.Count)
	}

	idx, err := base.Grid.Index()
	if err != nil {
		return nil, err
	}
	lines := make([]*resultLine, len(idx))
	owner := make([]*Shard, len(idx))
	for i := 1; i <= base.Header.Count; i++ {
		sh := byIndex[i]
		for k := range sh.results {
			rl := &sh.results[k]
			id := rl.res.Coord
			pos, ok := idx[id]
			if !ok {
				return nil, fmt.Errorf("%s:%d: result %s is not a scenario of the grid", sh.Name, rl.line, id)
			}
			if owner[pos] != nil {
				return nil, fmt.Errorf("shard: duplicate scenario line for %s (%s:%d and %s:%d)",
					id, owner[pos].Name, lines[pos].line, sh.Name, rl.line)
			}
			lines[pos], owner[pos] = rl, sh
		}
	}
	gaps, firstGap := 0, -1
	for pos := range lines {
		if lines[pos] == nil {
			gaps++
			if firstGap < 0 {
				firstGap = pos
			}
		}
	}
	if gaps > 0 {
		var gap sweep.Coord
		for id, pos := range idx {
			if pos == firstGap {
				gap = id
				break
			}
		}
		return nil, fmt.Errorf("shard: shards cover only %d of %d scenarios (%d missing; first gap: %s)",
			len(lines)-gaps, len(lines), gaps, gap)
	}

	if _, err := w.Write(base.gridLine); err != nil {
		return nil, err
	}
	agg := sweep.NewAggregator(base.Grid.Algorithms, false)
	for _, rl := range lines {
		agg.Add(rl.res)
		if _, err := w.Write(rl.raw); err != nil {
			return nil, err
		}
	}
	aggs, err := agg.Aggregates()
	if err != nil {
		return nil, err
	}
	if err := sweep.NewStreamWriter(w).Finish(aggs); err != nil {
		return nil, err
	}
	return &sweep.Summary{Grid: base.Grid, Algorithms: aggs}, nil
}
