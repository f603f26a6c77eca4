// Package experiments regenerates every figure and in-text quantitative
// result of the paper's evaluation. Each experiment is a pure function of
// a Config (seed + scale), returns a typed result whose String method
// prints the same rows/series the paper plots, and is wrapped both by
// cmd/choreo-bench and by the root bench_test.go benchmarks. Because
// experiments are independent, RunAll executes them across the sweep
// engine's worker pool (internal/sweep) with outcomes in paper order.
//
// All maps each function here to its paper artifact; `choreo-bench`
// prints the measured values.
package experiments

import (
	"fmt"
	"math/rand"
	"strings"
)

// Config controls experiment scale and determinism.
type Config struct {
	// Seed fixes all randomness.
	Seed int64
	// Quick shrinks sample counts so the full suite runs in seconds
	// (used by unit tests); the default scale matches the paper.
	Quick bool
}

// runs picks between full and quick scale.
func (c Config) runs(full, quick int) int {
	if c.Quick {
		return quick
	}
	return full
}

// rng derives a deterministic sub-generator per experiment label.
func (c Config) rng(label string) *rand.Rand {
	h := int64(0)
	for _, r := range label {
		h = h*131 + int64(r)
	}
	return rand.New(rand.NewSource(c.Seed*1_000_003 + h))
}

// Named is one experiment in the registry.
type Named struct {
	ID    string // e.g. "fig2a"
	Title string
	Run   func(Config) (fmt.Stringer, error)
}

// All lists every experiment in paper order.
func All() []Named {
	return []Named{
		{"fig1", "Figure 1: EC2 May-2012 throughput CDF by availability zone", func(c Config) (fmt.Stringer, error) { return Fig1(c) }},
		{"fig2a", "Figure 2(a): EC2 May-2013 throughput CDF (1710 paths)", func(c Config) (fmt.Stringer, error) { return Fig2a(c) }},
		{"fig2b", "Figure 2(b): Rackspace throughput CDF (360 paths)", func(c Config) (fmt.Stringer, error) { return Fig2b(c) }},
		{"fig4a", "Figure 4(a): cross-traffic estimation, simple topology", func(c Config) (fmt.Stringer, error) { return Fig4a(c) }},
		{"fig4b", "Figure 4(b): cross-traffic estimation, cloud topology", func(c Config) (fmt.Stringer, error) { return Fig4b(c) }},
		{"fig6a", "Figure 6(a): packet-train error vs burst length, EC2", func(c Config) (fmt.Stringer, error) { return Fig6(c, EC2Variant) }},
		{"fig6b", "Figure 6(b): packet-train error vs burst length, Rackspace", func(c Config) (fmt.Stringer, error) { return Fig6(c, RackspaceVariant) }},
		{"fig7a", "Figure 7(a): temporal stability, EC2", func(c Config) (fmt.Stringer, error) { return Fig7(c, EC2Variant) }},
		{"fig7b", "Figure 7(b): temporal stability, Rackspace", func(c Config) (fmt.Stringer, error) { return Fig7(c, RackspaceVariant) }},
		{"fig8", "Figure 8: path length vs bandwidth", func(c Config) (fmt.Stringer, error) { return Fig8(c) }},
		{"fig9", "Figure 9: greedy counterexample", func(c Config) (fmt.Stringer, error) { return Fig9(c) }},
		{"fig10a", "Figure 10(a): relative speed-up, all applications at once", func(c Config) (fmt.Stringer, error) { return Fig10a(c) }},
		{"fig10b", "Figure 10(b): relative speed-up, applications in sequence", func(c Config) (fmt.Stringer, error) { return Fig10b(c) }},
		{"text-g-vs-opt", "§5: greedy vs optimal on 111 applications", func(c Config) (fmt.Stringer, error) { return GreedyVsOptimal(c) }},
		{"text-bottleneck", "§4.3: same-source vs disjoint interference", func(c Config) (fmt.Stringer, error) { return BottleneckSurvey(c) }},
		{"text-train", "§4.1: packet-train accuracy and mesh cost", func(c Config) (fmt.Stringer, error) { return TrainAccuracy(c) }},
		{"text-predict", "§2.1/§6.1: hour-ahead predictability", func(c Config) (fmt.Stringer, error) { return Predictability(c) }},
		{"text-hose", "§3.2: second connection halves a path", func(c Config) (fmt.Stringer, error) { return HoseFairShare(c) }},
	}
}

// Find returns the experiment with the given ID.
func Find(id string) (Named, bool) {
	for _, n := range All() {
		if n.ID == id {
			return n, true
		}
	}
	return Named{}, false
}

// header renders a section banner shared by result printers.
func header(title string) string {
	return fmt.Sprintf("== %s ==\n", title)
}

// table renders aligned rows.
func table(rows [][]string) string {
	widths := map[int]int{}
	for _, row := range rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	for _, row := range rows {
		for i, cell := range row {
			fmt.Fprintf(&b, "%-*s  ", widths[i], cell)
		}
		b.WriteString("\n")
	}
	return b.String()
}
