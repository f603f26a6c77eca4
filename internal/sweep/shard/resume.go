package shard

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"choreo/internal/sweep"
)

// LoadPrior reads a prior run's JSONL output — a plain -stream report
// or a shard file, complete or interrupted mid-write — and returns the
// results it already contains, keyed by the current grid's expansion
// indices for use as sweep.RunOptions.Prefilled. Matching is by the
// result's coordinates (sweep.Coord), never by file position, so a
// resumed run re-executes exactly the cells with no result line.
//
// The prior file's grid echo must match the current grid byte for byte;
// resuming under different flags would silently mix incompatible
// scenarios. Only a truncated final line — the signature of an
// interrupted write — is tolerated and dropped; corruption anywhere
// else is an error.
func LoadPrior(g sweep.Grid, r io.Reader) (map[int]sweep.Result, error) {
	hdr, err := g.Summary()
	if err != nil {
		return nil, err
	}
	wantGrid, err := gridLine(hdr)
	if err != nil {
		return nil, err
	}
	idx, err := hdr.Index()
	if err != nil {
		return nil, err
	}

	done := make(map[int]sweep.Result)
	br := bufio.NewReader(r)
	for lineno := 1; ; lineno++ {
		raw, readErr := br.ReadBytes('\n')
		last := readErr == io.EOF
		if readErr != nil && !last {
			return nil, fmt.Errorf("resume: line %d: %w", lineno, readErr)
		}
		if last && len(raw) == 0 {
			break
		}
		var probe lineProbe
		if err := json.Unmarshal(raw, &probe); err != nil {
			if last && lineno > 1 {
				// Partial last line after a validated grid echo: the run
				// was interrupted mid-write. Dropping it is the whole
				// point of resume. An unparseable *first* line means the
				// file was never a sweep report at all.
				break
			}
			return nil, fmt.Errorf("resume: line %d: bad JSON: %v", lineno, err)
		}
		switch {
		case lineno == 1:
			if probe.Grid == nil {
				return nil, fmt.Errorf("resume: not a JSONL sweep report (first line is not the grid echo; collecting-mode JSON reports cannot be resumed)")
			}
			if !bytes.Equal(raw, wantGrid) {
				return nil, fmt.Errorf("resume: the prior run used a different grid (its echo does not match the current flags)")
			}
		case probe.Topology != "":
			var res sweep.Result
			if err := json.Unmarshal(raw, &res); err != nil {
				return nil, fmt.Errorf("resume: line %d: bad result line: %v", lineno, err)
			}
			id := res.Coord
			pos, ok := idx[id]
			if !ok {
				return nil, fmt.Errorf("resume: line %d: result %s is not a scenario of the grid", lineno, id)
			}
			if _, dup := done[pos]; dup {
				return nil, fmt.Errorf("resume: line %d: duplicate result for %s", lineno, id)
			}
			done[pos] = res
		case probe.Grid != nil:
			return nil, fmt.Errorf("resume: line %d: unexpected second grid echo", lineno)
		default:
			// Shard header/footer and aggregates lines carry no results.
		}
		if last {
			break
		}
	}
	return done, nil
}
