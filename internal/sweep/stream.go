package sweep

import (
	"encoding/json"
	"fmt"
	"io"
)

// StreamWriter renders a sweep as JSON lines, incrementally: one header
// line echoing the grid, one compact line per scenario result in
// expansion order, and one final aggregates line. Results are written
// as they stream in rather than collected, so a 100k-scenario sweep
// retains only its aggregate series in memory — and the bytes are
// identical for a given grid regardless of worker count.
//
//	{"grid":{...}}
//	{"topology":"ec2-2013","workload":"shuffle",...}
//	...
//	{"algorithms":[{...},...]}
//
// Wire it to RunStream:
//
//	sw := sweep.NewStreamWriter(f)
//	hdr, err := g.Summary()
//	err = sw.Header(hdr)
//	sum, err := sweep.RunStream(g, sweep.RunOptions{Emit: sw.Result})
//	if err == nil {
//	    err = sw.Finish(sum.Algorithms)
//	}
type StreamWriter struct {
	w        io.Writer
	wroteHdr bool
}

// NewStreamWriter wraps w; nothing is written until Header.
func NewStreamWriter(w io.Writer) *StreamWriter {
	return &StreamWriter{w: w}
}

// Header writes the grid-echo line (see Grid.Summary).
func (sw *StreamWriter) Header(grid GridSummary) error {
	if sw.wroteHdr {
		return fmt.Errorf("sweep: stream header written twice")
	}
	sw.wroteHdr = true
	return sw.writeLine(struct {
		Grid GridSummary `json:"grid"`
	}{grid})
}

// Result writes one scenario line. Pass it as RunOptions.Emit; RunStream
// guarantees expansion order.
func (sw *StreamWriter) Result(r Result) error {
	return sw.writeLine(r)
}

// WriteLine writes one arbitrary value as a compact JSON line. Derived
// stream formats (the shard files of internal/sweep/shard) use it to
// interleave their own marker lines with the standard header, result
// and aggregates lines, so every line of every format goes through the
// identical encoding.
func (sw *StreamWriter) WriteLine(v interface{}) error {
	return sw.writeLine(v)
}

// Finish writes the final aggregates line.
func (sw *StreamWriter) Finish(algorithms []Aggregate) error {
	return sw.writeLine(struct {
		Algorithms []Aggregate `json:"algorithms"`
	}{algorithms})
}

func (sw *StreamWriter) writeLine(v interface{}) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = sw.w.Write(b)
	return err
}
