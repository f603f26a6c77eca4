package workload

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"choreo/internal/profile"
	"choreo/internal/units"
)

// Trace is the on-disk format for a sequence of profiled applications —
// the repository's equivalent of the paper's three-week HP Cloud trace.
// It serializes to JSON so traces can be generated once, shared, and
// replayed against any placement algorithm (cmd/choreo consumes the same
// per-application schema).
type Trace struct {
	// Name describes the trace's origin.
	Name string `json:"name"`
	// Applications in arrival order.
	Applications []TraceApplication `json:"applications"`
}

// TraceApplication is one serialized application.
type TraceApplication struct {
	Name string `json:"name"`
	// StartSeconds is the observed start time offset.
	StartSeconds float64 `json:"startSeconds"`
	// CPU[i] is cores demanded by task i.
	CPU []float64 `json:"cpu"`
	// Transfers is a list of [fromTask, toTask, bytes] triples.
	Transfers [][3]int64 `json:"transfers"`
}

// NewTrace converts applications into the serializable form.
func NewTrace(name string, apps []*profile.Application) (*Trace, error) {
	tr := &Trace{Name: name}
	for _, app := range apps {
		if err := app.Validate(); err != nil {
			return nil, err
		}
		ta := TraceApplication{
			Name:         app.Name,
			StartSeconds: app.Start.Seconds(),
			CPU:          append([]float64(nil), app.CPU...),
		}
		for _, t := range app.TM.Transfers() {
			ta.Transfers = append(ta.Transfers, [3]int64{int64(t.From), int64(t.To), int64(t.Bytes)})
		}
		tr.Applications = append(tr.Applications, ta)
	}
	return tr, nil
}

// Applications reconstructs the profile.Application values.
func (tr *Trace) ToApplications() ([]*profile.Application, error) {
	var out []*profile.Application
	for ai, ta := range tr.Applications {
		if len(ta.CPU) == 0 {
			return nil, fmt.Errorf("workload: trace application %d has no tasks", ai)
		}
		app := &profile.Application{
			Name:  ta.Name,
			CPU:   append([]float64(nil), ta.CPU...),
			TM:    profile.NewTrafficMatrix(len(ta.CPU)),
			Start: time.Duration(ta.StartSeconds * float64(time.Second)),
		}
		for ti, t := range ta.Transfers {
			if err := app.TM.Add(int(t[0]), int(t[1]), units.ByteSize(t[2])); err != nil {
				return nil, fmt.Errorf("workload: trace application %d transfer %d: %w", ai, ti, err)
			}
		}
		if err := app.Validate(); err != nil {
			return nil, fmt.Errorf("workload: trace application %d: %w", ai, err)
		}
		out = append(out, app)
	}
	return out, nil
}

// ReadTrace parses a serialized trace.
func ReadTrace(r io.Reader) (*Trace, error) {
	var tr Trace
	if err := json.NewDecoder(r).Decode(&tr); err != nil {
		return nil, fmt.Errorf("workload: decoding trace: %w", err)
	}
	return &tr, nil
}
