package obs

import (
	"sort"
)

// SpanNode is one span in a reconstructed forest: its record plus its
// children in start order. Offline analysis shape — built once from a
// decoded event log, never on the tracing hot path.
type SpanNode struct {
	SpanRecord
	Children []*SpanNode
}

// EndNs is the span's wall-clock end time.
func (n *SpanNode) EndNs() int64 { return n.WallNs + n.DurNs }

// BuildForest reconstructs the span trees from a validated event stream
// (DecodeEvents output). Roots — spans with no parent, plus spans whose
// parent never appears (a log sliced out of a larger run) — are returned
// in start order; children keep start order too, so traversal replays
// the run's shape deterministically.
func BuildForest(events []Event) []*SpanNode {
	records := FlattenSpans(events)
	nodes := make(map[int64]*SpanNode, len(records))
	ordered := make([]*SpanNode, 0, len(records))
	for _, rec := range records {
		n := &SpanNode{SpanRecord: rec}
		nodes[rec.ID] = n
		ordered = append(ordered, n)
	}
	var roots []*SpanNode
	for _, n := range ordered {
		if parent, ok := nodes[n.Parent]; ok && n.Parent != 0 {
			parent.Children = append(parent.Children, n)
			continue
		}
		roots = append(roots, n)
	}
	return roots
}

// NameStats aggregates every span of one name: count, total duration
// and exact quantiles (offline, so quantiles come from the sorted raw
// durations, not bucket interpolation).
type NameStats struct {
	Name    string
	Count   int
	TotalNs int64
	P50Ns   int64
	P99Ns   int64
	MaxNs   int64
}

// AggregateByName folds an event stream into per-span-name statistics,
// sorted by total duration descending (the names that cost the most
// wall-clock lead).
func AggregateByName(events []Event) []NameStats {
	durs := make(map[string][]int64)
	for _, rec := range FlattenSpans(events) {
		durs[rec.Name] = append(durs[rec.Name], rec.DurNs)
	}
	out := make([]NameStats, 0, len(durs))
	for name, ds := range durs {
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		st := NameStats{Name: name, Count: len(ds)}
		for _, d := range ds {
			st.TotalNs += d
		}
		st.P50Ns = quantileAt(ds, 0.5)
		st.P99Ns = quantileAt(ds, 0.99)
		st.MaxNs = ds[len(ds)-1]
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].TotalNs != out[j].TotalNs {
			return out[i].TotalNs > out[j].TotalNs
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// quantileAt reads the q-th quantile of an ascending-sorted slice using
// the nearest-rank method.
func quantileAt(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(q*float64(len(sorted)) + 0.5)
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// CriticalPath walks the last-finisher chain from a root: at every
// level, descend into the child whose end time is latest — the span the
// parent was waiting on when it finished. For a serial run this is the
// deepest slow chain; for a parallel phase (a sweep's worker pool) it is
// the straggler chain that set the wall clock. The returned path starts
// at the root.
func CriticalPath(root *SpanNode) []*SpanNode {
	path := []*SpanNode{root}
	cur := root
	for len(cur.Children) > 0 {
		last := cur.Children[0]
		for _, c := range cur.Children[1:] {
			if c.EndNs() > last.EndNs() {
				last = c
			}
		}
		path = append(path, last)
		cur = last
	}
	return path
}
