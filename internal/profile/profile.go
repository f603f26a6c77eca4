// Package profile implements Choreo's application profiling (paper §2.1):
// building inter-task traffic matrices from observed flow records, merging
// multiple applications into a combined placement problem, and the
// predictability analysis that justifies profiling offline — the previous
// hour and the time-of-day are good predictors of the bytes an application
// moves in the next hour.
//
// Choreo deliberately profiles the number of bytes sent, not the rate: the
// bytes an application moves are a property of the application, while the
// rate depends on whatever else shares the network.
package profile

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"choreo/internal/units"
)

// TrafficMatrix records bytes sent between tasks: entry (i,j) is how much
// task i transfers to task j over the profiled run.
type TrafficMatrix struct {
	n     int
	bytes []units.ByteSize // row-major n×n
}

// NewTrafficMatrix creates an empty n-task matrix.
func NewTrafficMatrix(n int) *TrafficMatrix {
	if n < 0 {
		n = 0
	}
	return &TrafficMatrix{n: n, bytes: make([]units.ByteSize, n*n)}
}

// Tasks returns the number of tasks.
func (m *TrafficMatrix) Tasks() int { return m.n }

func (m *TrafficMatrix) idx(i, j int) (int, error) {
	if i < 0 || i >= m.n || j < 0 || j >= m.n {
		return 0, fmt.Errorf("profile: task pair (%d,%d) out of range for %d tasks", i, j, m.n)
	}
	return i*m.n + j, nil
}

// At returns the bytes task i sends to task j.
func (m *TrafficMatrix) At(i, j int) units.ByteSize {
	k, err := m.idx(i, j)
	if err != nil {
		return 0
	}
	return m.bytes[k]
}

// Set overwrites the bytes from task i to task j.
func (m *TrafficMatrix) Set(i, j int, b units.ByteSize) error {
	k, err := m.idx(i, j)
	if err != nil {
		return err
	}
	if i == j && b != 0 {
		return fmt.Errorf("profile: task %d cannot transfer to itself", i)
	}
	m.bytes[k] = b
	return nil
}

// Add accumulates bytes from task i to task j.
func (m *TrafficMatrix) Add(i, j int, b units.ByteSize) error {
	k, err := m.idx(i, j)
	if err != nil {
		return err
	}
	if i == j {
		return fmt.Errorf("profile: task %d cannot transfer to itself", i)
	}
	m.bytes[k] += b
	return nil
}

// Row returns the bytes task i sends to each task, indexed by
// destination. It aliases the matrix: callers must not modify it.
func (m *TrafficMatrix) Row(i int) []units.ByteSize {
	return m.bytes[i*m.n : (i+1)*m.n : (i+1)*m.n]
}

// Total returns the bytes summed over all pairs.
func (m *TrafficMatrix) Total() units.ByteSize {
	var t units.ByteSize
	for _, b := range m.bytes {
		t += b
	}
	return t
}

// Transfer is one directed task-pair demand.
type Transfer struct {
	From, To int
	Bytes    units.ByteSize
}

// Transfers lists the non-zero demands in descending byte order — the
// order Algorithm 1 consumes them. Ties break deterministically by
// (from, to).
func (m *TrafficMatrix) Transfers() []Transfer {
	out := make([]Transfer, 0, len(m.bytes)/4)
	for i := 0; i < m.n; i++ {
		for j := 0; j < m.n; j++ {
			if b := m.bytes[i*m.n+j]; b > 0 {
				out = append(out, Transfer{From: i, To: j, Bytes: b})
			}
		}
	}
	// (From, To) is unique, so this is a total order and any sort gives
	// the same sequence.
	slices.SortFunc(out, func(a, b Transfer) int {
		if c := cmp.Compare(b.Bytes, a.Bytes); c != 0 {
			return c
		}
		if c := cmp.Compare(a.From, b.From); c != 0 {
			return c
		}
		return cmp.Compare(a.To, b.To)
	})
	return out
}

// Application is one profiled tenant application: a traffic matrix plus
// per-task CPU demands (cores) and the observed start time used when
// applications arrive in sequence (§6.3).
type Application struct {
	Name  string
	CPU   []float64
	TM    *TrafficMatrix
	Start time.Duration
}

// Validate checks internal consistency.
func (a *Application) Validate() error {
	if a.TM == nil {
		return fmt.Errorf("profile: application %q has no traffic matrix", a.Name)
	}
	if len(a.CPU) != a.TM.Tasks() {
		return fmt.Errorf("profile: application %q has %d CPU entries for %d tasks",
			a.Name, len(a.CPU), a.TM.Tasks())
	}
	for i, c := range a.CPU {
		if c <= 0 {
			return fmt.Errorf("profile: application %q task %d has CPU demand %v", a.Name, i, c)
		}
	}
	return nil
}

// Tasks returns the task count.
func (a *Application) Tasks() int { return a.TM.Tasks() }

// Combine merges applications into one placement problem "in the obvious
// way" (paper §6.2): traffic matrices become blocks of a block-diagonal
// matrix and CPU vectors concatenate. The returned offsets give each
// application's first task index in the combined numbering.
func Combine(apps []*Application) (*Application, []int, error) {
	total := 0
	offsets := make([]int, len(apps))
	for i, a := range apps {
		if err := a.Validate(); err != nil {
			return nil, nil, err
		}
		offsets[i] = total
		total += a.Tasks()
	}
	combined := &Application{
		Name: "combined",
		CPU:  make([]float64, 0, total),
		TM:   NewTrafficMatrix(total),
	}
	for ai, a := range apps {
		combined.CPU = append(combined.CPU, a.CPU...)
		off := offsets[ai]
		n := a.Tasks()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if b := a.TM.At(i, j); b > 0 {
					if err := combined.TM.Set(off+i, off+j, b); err != nil {
						return nil, nil, err
					}
				}
			}
		}
	}
	return combined, offsets, nil
}
