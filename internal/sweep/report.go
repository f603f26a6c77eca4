package sweep

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"

	"choreo/internal/stats"
)

// Aggregate summarizes one algorithm across every scenario it ran in.
type Aggregate struct {
	Algorithm string `json:"algorithm"`
	// Scenarios is how many grid cells this algorithm ran.
	Scenarios int `json:"scenarios"`
	// Completion summarizes completion times in seconds.
	Completion stats.Summary `json:"completionSeconds"`
	// Slowdown summarizes slowdown vs the exact optimum, over the
	// scenarios where the optimum was computable (nil when none were).
	Slowdown *stats.Summary `json:"slowdown,omitempty"`
	// PredictionError summarizes signed prediction error in percent —
	// 100 × (predicted − measured) / measured — over the scenarios that
	// executed their placement as real transfers (nil when none did, so
	// sim and predicted-only aggregates are byte-identical to the
	// pre-execution schema).
	PredictionError *stats.Summary `json:"predictionErrorPct,omitempty"`
	// Migrations summarizes per-scenario migration counts; present only
	// for sequence cells (snapshot aggregates are byte-identical to what
	// they were before sequence mode existed).
	Migrations *stats.Summary `json:"migrations,omitempty"`
	// PlaceLatency summarizes wall-clock placement latency in seconds.
	// Nondeterministic; populated only when the grid's Timing knob is
	// on, so default reports stay byte-reproducible.
	PlaceLatency *stats.Summary `json:"placementLatencySeconds,omitempty"`

	// latency retains the raw wall-clock summary for String() even
	// when Timing keeps it out of the JSON encoding.
	latency stats.Summary
}

// Report is the deterministic output of a collecting sweep run.
type Report struct {
	// Grid echoes the swept dimensions.
	Grid GridSummary `json:"grid"`
	// Scenarios holds every cell's result in expansion order.
	Scenarios []Result `json:"scenarios"`
	// Algorithms holds per-algorithm aggregates in grid order.
	Algorithms []Aggregate `json:"algorithms"`
	// Cache counts how the run shared built cells. Kept out of the JSON
	// encoding: a shard or a resumed run builds a different share of
	// the cells, and the report bytes must not depend on that.
	Cache CacheStats `json:"-"`
}

// Summary is what a streaming run retains: the grid echo, per-algorithm
// aggregates and the cell-sharing counts — everything except the
// per-scenario results, which went through the Emit hook.
type Summary struct {
	Grid       GridSummary `json:"grid"`
	Algorithms []Aggregate `json:"algorithms"`
	Cache      CacheStats  `json:"-"`
}

// GridSummary is the serializable echo of a Grid. It carries every knob
// that shapes result lines — the swept dimensions plus the scalar
// generation and reference bounds — because shard merging and resume
// compare (and hash) this echo to refuse combining runs produced under
// different flags.
type GridSummary struct {
	// Mode is "sequence" for §6.3 in-sequence grids; absent for
	// snapshot grids, whose echoes stay byte-identical to what they
	// were before sequence mode existed (resume and merge compare them
	// verbatim).
	Mode string `json:"mode,omitempty"`
	// Backend names the measurement plane for non-sim grids ("live");
	// absent for simulated grids, whose echoes (and hence grid hashes
	// and golden reports) are unchanged. Because resume and merge
	// compare echoes verbatim, a sim report can never be completed by —
	// or spliced with — a live one.
	Backend string `json:"backend,omitempty"`
	// Execute marks grids whose placements ran as real transfers
	// (measured completions). Part of the echo — and hence the grid
	// hash — so an executed run is never resumed by, or spliced with, a
	// predicted-only one.
	Execute    bool     `json:"execute,omitempty"`
	Topologies []string `json:"topologies"`
	Workloads  []string `json:"workloads"`
	Algorithms []string `json:"algorithms"`
	Seeds      []int64  `json:"seeds"`
	VMCounts   []int    `json:"vms"`
	MeanBytes  []int64  `json:"meanBytes"`
	// InterarrivalNs, SeqApps and ReevalNs are the sequence dimensions
	// in nanoseconds / applications-per-sequence; sequence grids only.
	InterarrivalNs []int64 `json:"interarrivalNs,omitempty"`
	SeqApps        []int   `json:"seqApps,omitempty"`
	ReevalNs       []int64 `json:"reevalNs,omitempty"`
	// MigrationGain and MaxMigrations are the sequence grids' scalar
	// migration knobs; they shape result lines, so they are part of the
	// echo (and hence the grid hash) like every other knob.
	MigrationGain float64 `json:"migrationGain,omitempty"`
	MaxMigrations int     `json:"maxMigrations,omitempty"`
	Apps          int     `json:"apps"`
	MinTasks      int     `json:"minTasks"`
	MaxTasks      int     `json:"maxTasks"`
	Model         string  `json:"model"`
	// OptimalMaxTasks/OptimalMaxNodes bound the slowdown-vs-optimal
	// reference, so they change result lines too.
	OptimalMaxTasks int  `json:"optimalMaxTasks"`
	OptimalMaxNodes int  `json:"optimalMaxNodes,omitempty"`
	Timing          bool `json:"timing,omitempty"`
	Scenarios       int  `json:"scenarios"`
}

// Summary validates and expands the grid's dimensions into the
// serializable echo that heads reports and streams, without running
// anything.
func (g *Grid) Summary() (GridSummary, error) {
	scenarios, err := g.Expand()
	if err != nil {
		return GridSummary{}, err
	}
	return g.summary(len(scenarios)), nil
}

// summary builds the grid echo. Call after applyDefaults (Expand does).
func (g *Grid) summary(scenarios int) GridSummary {
	sum := GridSummary{
		Seeds:           append([]int64(nil), g.Seeds...),
		VMCounts:        append([]int(nil), g.VMCounts...),
		Apps:            g.Apps,
		MinTasks:        g.MinTasks,
		MaxTasks:        g.MaxTasks,
		Model:           g.Model.String(),
		OptimalMaxTasks: g.OptimalMaxTasks,
		OptimalMaxNodes: g.OptimalMaxNodes,
		Timing:          g.Timing,
		Scenarios:       scenarios,
	}
	for _, size := range g.MeanSizes {
		sum.MeanBytes = append(sum.MeanBytes, int64(size))
	}
	for _, t := range g.Topologies {
		sum.Topologies = append(sum.Topologies, t.Name)
	}
	for _, w := range g.Workloads {
		sum.Workloads = append(sum.Workloads, w.Name)
	}
	sum.Algorithms = g.algorithmNames()
	if name := g.backendName(); name != "sim" {
		sum.Backend = name
		sum.Execute = g.backend().Executes()
	}
	if g.Mode == Sequence {
		sum.Mode = Sequence.String()
		for _, ia := range g.Interarrivals {
			sum.InterarrivalNs = append(sum.InterarrivalNs, int64(ia))
		}
		sum.SeqApps = append([]int(nil), g.SeqApps...)
		for _, rv := range g.Reevals {
			sum.ReevalNs = append(sum.ReevalNs, int64(rv))
		}
		sum.MigrationGain = g.MigrationGain
		sum.MaxMigrations = g.MaxMigrations
	}
	return sum
}

// Aggregator accumulates per-algorithm series incrementally, so a
// streaming run aggregates without retaining Results. Results must be
// added in a deterministic order (RunStream adds in expansion order) for
// the summaries to be byte-reproducible. It is exported so the shard
// merger can recompute the final aggregates line from spliced result
// lines: adding the same results in the same order reproduces the
// unsharded run's aggregates byte for byte.
type Aggregator struct {
	names       []string
	timing      bool
	completions map[string][]float64
	slowdowns   map[string][]float64
	latencies   map[string][]float64
	migrations  map[string][]float64
	errorPcts   map[string][]float64
}

// NewAggregator aggregates over the given algorithm names in that
// (grid) order. timing mirrors Grid.Timing: when set, wall-clock
// placement-latency summaries are included in the JSON aggregates.
func NewAggregator(algorithms []string, timing bool) *Aggregator {
	return &Aggregator{
		names:       algorithms,
		timing:      timing,
		completions: make(map[string][]float64),
		slowdowns:   make(map[string][]float64),
		latencies:   make(map[string][]float64),
		migrations:  make(map[string][]float64),
		errorPcts:   make(map[string][]float64),
	}
}

// Add folds one result into the per-algorithm series. Sequence results
// (recognizable by their sequence coordinates, so the shard merger's
// recomputation needs no extra mode plumbing) also feed the migration
// series.
func (a *Aggregator) Add(r Result) {
	a.completions[r.Algorithm] = append(a.completions[r.Algorithm], r.CompletionSeconds)
	a.latencies[r.Algorithm] = append(a.latencies[r.Algorithm], r.PlaceLatency.Seconds())
	if r.Slowdown != nil {
		a.slowdowns[r.Algorithm] = append(a.slowdowns[r.Algorithm], *r.Slowdown)
	}
	if r.ErrorPct != nil {
		a.errorPcts[r.Algorithm] = append(a.errorPcts[r.Algorithm], *r.ErrorPct)
	}
	if r.SeqApps > 0 {
		a.migrations[r.Algorithm] = append(a.migrations[r.Algorithm], float64(r.Migrations))
	}
}

// Aggregates summarizes every algorithm in grid order.
func (a *Aggregator) Aggregates() ([]Aggregate, error) {
	var out []Aggregate
	for _, name := range a.names {
		completions := a.completions[name]
		if len(completions) == 0 {
			continue
		}
		agg := Aggregate{Algorithm: name, Scenarios: len(completions)}
		var err error
		if agg.Completion, err = stats.Summarize(completions); err != nil {
			return nil, err
		}
		if agg.latency, err = stats.Summarize(a.latencies[name]); err != nil {
			return nil, err
		}
		if slowdowns := a.slowdowns[name]; len(slowdowns) > 0 {
			s, err := stats.Summarize(slowdowns)
			if err != nil {
				return nil, err
			}
			agg.Slowdown = &s
		}
		if errorPcts := a.errorPcts[name]; len(errorPcts) > 0 {
			s, err := stats.Summarize(errorPcts)
			if err != nil {
				return nil, err
			}
			agg.PredictionError = &s
		}
		if migrations := a.migrations[name]; len(migrations) > 0 {
			s, err := stats.Summarize(migrations)
			if err != nil {
				return nil, err
			}
			agg.Migrations = &s
		}
		if a.timing {
			lat := agg.latency
			agg.PlaceLatency = &lat
		}
		out = append(out, agg)
	}
	return out, nil
}

// WriteJSON encodes the report as indented JSON. The encoding is
// byte-identical for identical grids and seeds regardless of worker
// count or host speed.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteCSV writes one deterministic row per scenario. Sequence reports
// swap the snapshot-only optimal/slowdown columns for the sequence
// coordinates and migration count (the completion column then carries
// the §6.3 total running time). Executed grids append the
// measured-vs-predicted columns; everything else keeps the exact
// pre-execution column set.
func (r *Report) WriteCSV(w io.Writer) error {
	sequence := r.Grid.Mode == Sequence.String()
	executed := r.Grid.Execute
	cw := csv.NewWriter(w)
	header := []string{
		"topology", "workload", "algorithm", "seed", "vms", "mean_bytes", "tasks",
		"completion_seconds", "optimal_seconds", "slowdown",
	}
	if sequence {
		header = []string{
			"topology", "workload", "algorithm", "seed", "vms", "mean_bytes",
			"interarrival_seconds", "seq_apps", "reeval_seconds", "tasks",
			"total_running_seconds", "migrations",
		}
	}
	if executed {
		header = append(header, "predicted_s", "measured_s", "error_pct")
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	// fp renders an optional value; absent references render empty so
	// "no reference" and "reference is zero" stay distinguishable.
	fp := func(v *float64) string {
		if v == nil {
			return ""
		}
		return f(*v)
	}
	for _, s := range r.Scenarios {
		row := []string{
			s.Topology, s.Workload, s.Algorithm,
			strconv.FormatInt(s.Seed, 10),
			strconv.Itoa(s.VMs), strconv.FormatInt(s.MeanBytes, 10),
		}
		if sequence {
			row = append(row,
				f(float64(s.InterarrivalNs)/1e9), strconv.Itoa(s.SeqApps), f(float64(s.ReevalNs)/1e9),
				strconv.Itoa(s.Tasks), f(s.CompletionSeconds), strconv.Itoa(s.Migrations))
		} else {
			row = append(row,
				strconv.Itoa(s.Tasks), f(s.CompletionSeconds), fp(s.OptimalSeconds), fp(s.Slowdown))
		}
		if executed {
			row = append(row, fp(s.PredictedSeconds), fp(s.MeasuredSeconds), fp(s.ErrorPct))
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// String renders the human-facing summary: one row per algorithm with
// completion, slowdown and wall-clock placement latency.
func (r *Report) String() string {
	return renderSummary(r.Grid, r.Algorithms)
}

// String renders the same human-facing summary for a streaming run.
func (s *Summary) String() string {
	return renderSummary(s.Grid, s.Algorithms)
}

func renderSummary(grid GridSummary, algorithms []Aggregate) string {
	var b strings.Builder
	if grid.Mode == Sequence.String() {
		fmt.Fprintf(&b, "sweep: %d sequence scenarios (%d topologies x %d workloads x %d vm-counts x %d sizes x %d interarrivals x %d lengths x %d reevals x %d algorithms x %d seeds)\n",
			grid.Scenarios, len(grid.Topologies), len(grid.Workloads),
			len(grid.VMCounts), len(grid.MeanBytes),
			len(grid.InterarrivalNs), len(grid.SeqApps), len(grid.ReevalNs),
			len(grid.Algorithms), len(grid.Seeds))
		fmt.Fprintf(&b, "%-14s %5s %14s %14s %12s %14s\n",
			"algorithm", "n", "mean total-run", "p95 total-run", "mean migr", "mean place")
		for _, a := range algorithms {
			migr := "-"
			if a.Migrations != nil {
				migr = fmt.Sprintf("%.2f", a.Migrations.Mean)
			}
			fmt.Fprintf(&b, "%-14s %5d %13.2fs %13.2fs %12s %13.2fms\n",
				a.Algorithm, a.Scenarios, a.Completion.Mean, a.Completion.P95,
				migr, a.latency.Mean*1e3)
		}
		return b.String()
	}
	fmt.Fprintf(&b, "sweep: %d scenarios (%d topologies x %d workloads x %d vm-counts x %d sizes x %d algorithms x %d seeds)\n",
		grid.Scenarios, len(grid.Topologies), len(grid.Workloads),
		len(grid.VMCounts), len(grid.MeanBytes),
		len(grid.Algorithms), len(grid.Seeds))
	if grid.Execute {
		fmt.Fprintf(&b, "%-14s %5s %14s %14s %12s %12s %14s\n",
			"algorithm", "n", "mean compl", "p95 compl", "mean slow", "mean err", "mean place")
		for _, a := range algorithms {
			slow := "-"
			if a.Slowdown != nil {
				slow = fmt.Sprintf("%.3fx", a.Slowdown.Mean)
			}
			errPct := "-"
			if a.PredictionError != nil {
				errPct = fmt.Sprintf("%+.1f%%", a.PredictionError.Mean)
			}
			fmt.Fprintf(&b, "%-14s %5d %13.2fs %13.2fs %12s %12s %13.2fms\n",
				a.Algorithm, a.Scenarios, a.Completion.Mean, a.Completion.P95,
				slow, errPct, a.latency.Mean*1e3)
		}
		return b.String()
	}
	fmt.Fprintf(&b, "%-14s %5s %14s %14s %12s %14s\n",
		"algorithm", "n", "mean compl", "p95 compl", "mean slow", "mean place")
	for _, a := range algorithms {
		slow := "-"
		if a.Slowdown != nil {
			slow = fmt.Sprintf("%.3fx", a.Slowdown.Mean)
		}
		fmt.Fprintf(&b, "%-14s %5d %13.2fs %13.2fs %12s %13.2fms\n",
			a.Algorithm, a.Scenarios, a.Completion.Mean, a.Completion.P95,
			slow, a.latency.Mean*1e3)
	}
	return b.String()
}
