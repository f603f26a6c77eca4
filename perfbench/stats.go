package main

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// recorder counts ops and keeps one sample per timed call. Safe for
// concurrent use by the service workload's clients.
type recorder struct {
	mu       sync.Mutex
	ops      int64    // ops attempted
	failed   int64    // ops that failed or failed a check
	samples  []sample // one per timed call, in completion order
	failures []string // the first few failure messages
}

// sample is one timed call: a request, an epoch, or a sweep pass of
// many cells.
type sample struct {
	end time.Time
	lat time.Duration
	ok  int64 // ops of the call that succeeded
}

// maxFailureMessages bounds what a broken run prints.
const maxFailureMessages = 5

// add records n ops, of which failed failed, that took lat together.
func (r *recorder) add(n, failed int64, lat time.Duration, cause error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ops += n
	r.failed += failed
	r.samples = append(r.samples, sample{end: time.Now(), lat: lat, ok: n - failed})
	if cause != nil && len(r.failures) < maxFailureMessages {
		r.failures = append(r.failures, cause.Error())
	}
}

// tailSamples is how many samples must lie beyond the reported tail
// percentile, so the tail is never one outlier.
const tailSamples = 10

// maxTailQuantile caps the tail percentile: beyond p99 a shared host's
// scheduler noise dominates whatever the program does.
const maxTailQuantile = 0.99

// tailQuantile is the highest quantile, up to maxTailQuantile, with at
// least tailSamples samples beyond it; below 2×tailSamples samples no
// quantile above the median qualifies and the median is used.
func tailQuantile(n int) float64 {
	q := 1 - float64(tailSamples)/float64(n)
	if q < 0.5 {
		return 0.5
	}
	if q > maxTailQuantile {
		return maxTailQuantile
	}
	return q
}

// window is the stretch the end-to-end figures are taken over: the op
// rate, and latency where windows hold enough samples, are medians over
// one-second windows, so a neighbour's transient stall on a shared host
// moves a few windows and not the median.
const window = time.Second

// minWindowSamples is the mean samples per window below which latency
// quantiles are taken over the whole run instead: coarse ops (sweep
// passes, mesh epochs) give a window only a few samples.
const minWindowSamples = 200

// summary is a timed phase's rate and latency.
type summary struct {
	rate      float64 // successful ops per second
	p50, tail float64 // ms
	q         float64 // the tail's quantile
	n         int     // latency samples
	windows   int     // windows the medians were taken over; 0 = whole run
}

// summarize computes the phase's figures from samples recorded between
// start and start+elapsed.
func summarize(samples []sample, start time.Time, elapsed time.Duration) summary {
	s := summary{n: len(samples)}
	k := int(elapsed / window)
	if k < 2 {
		var ok int64
		for _, x := range samples {
			ok += x.ok
		}
		if elapsed > 0 {
			s.rate = float64(ok) / elapsed.Seconds()
		}
		s.p50, s.tail, s.q = latencySummary(samples)
		return s
	}
	// Spread each call's successful ops evenly over its duration and
	// integrate that rate over every window.
	rates := make([]float64, k)
	for _, x := range samples {
		lo, hi := x.end.Add(-x.lat).Sub(start), x.end.Sub(start)
		if x.lat <= 0 {
			lo = hi - 1
		}
		perNs := float64(x.ok) / float64(hi-lo)
		for w := max(int(lo/window), 0); w < k && time.Duration(w)*window < hi; w++ {
			a, b := max(lo, time.Duration(w)*window), min(hi, time.Duration(w+1)*window)
			if a < b {
				rates[w] += perNs * float64(b-a) / window.Seconds()
			}
		}
	}
	s.rate = median(rates)
	if len(samples) < minWindowSamples*k {
		s.p50, s.tail, s.q = latencySummary(samples)
		return s
	}
	buckets := make([][]sample, k)
	for _, x := range samples {
		if w := int(x.end.Sub(start) / window); w >= 0 && w < k {
			buckets[w] = append(buckets[w], x)
		}
	}
	var p50s, tails []float64
	s.q = maxTailQuantile
	for _, in := range buckets {
		p50, tail, q := latencySummary(in)
		p50s, tails = append(p50s, p50), append(tails, tail)
		s.q = min(s.q, q)
	}
	s.p50, s.tail, s.windows = median(p50s), median(tails), k
	return s
}

// latencySummary returns the median, the tail and the tail's quantile
// of the samples' latencies (ms).
func latencySummary(samples []sample) (p50, tail, q float64) {
	if len(samples) == 0 {
		return 0, 0, 0
	}
	s := make([]float64, len(samples))
	for i, x := range samples {
		s[i] = float64(x.lat.Nanoseconds()) / 1e6
	}
	sort.Float64s(s)
	q = tailQuantile(len(s))
	return quantile(s, 0.5), quantile(s, q), q
}

// quantile interpolates linearly between the closest ranks of sorted.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// durations collects named layer timings taken from outside.
type durations map[string][]float64

// add records one call of the named layer function in the given unit
// (1e3 = µs, 1 = ms).
func (d durations) add(name string, took time.Duration, perMs float64) {
	d[name] = append(d[name], float64(took.Nanoseconds())/1e6*perMs)
}

// layerMetrics is the traced run's per-layer metric set.
type layerMetrics map[string]metric

func (lm layerMetrics) set(name string, v float64) {
	m, ok := lm[name]
	if !ok {
		panic(fmt.Sprintf("perfbench: per-layer metric %q is not declared", name))
	}
	m.Value = v
	lm[name] = m
}

// setMeans sets every layer timing in d to its mean.
func (lm layerMetrics) setMeans(d durations) {
	for name, v := range d {
		lm.set(name, mean(v))
	}
}
