// Package crosstraffic implements the paper's §3.2 estimator for the
// "equivalent number of concurrent bulk TCP connections" sharing a path:
// with a known path rate c1 and a measured foreground throughput c2, the
// load is c = c1/c2 − 1. The quantity is a measure of load, not discrete
// connections: 450 Mbit/s on a 1 Gbit/s path means "one connection's
// worth" of competing load whatever its composition.
package crosstraffic

import (
	"fmt"
	"time"

	"choreo/internal/bulk"
	"choreo/internal/units"
)

// Estimate returns c = pathRate/foreground − 1, clamped at zero.
func Estimate(pathRate, foreground units.Rate) (float64, error) {
	if pathRate <= 0 {
		return 0, fmt.Errorf("crosstraffic: non-positive path rate %v", pathRate)
	}
	if foreground <= 0 {
		return 0, fmt.Errorf("crosstraffic: non-positive foreground rate %v", foreground)
	}
	c := float64(pathRate)/float64(foreground) - 1
	if c < 0 {
		c = 0
	}
	return c, nil
}

// Point is one timestamped cross-traffic estimate.
type Point struct {
	At time.Duration
	C  float64
}

// Series converts the sampled throughput of a foreground bulk transfer
// into a cross-traffic time series, given the known path rate. Samples
// with zero rate are skipped (the estimator is undefined there).
func Series(samples []bulk.Sample, pathRate units.Rate) ([]Point, error) {
	if pathRate <= 0 {
		return nil, fmt.Errorf("crosstraffic: non-positive path rate %v", pathRate)
	}
	out := make([]Point, 0, len(samples))
	for _, s := range samples {
		if s.Rate <= 0 {
			continue
		}
		c, err := Estimate(pathRate, s.Rate)
		if err != nil {
			continue
		}
		out = append(out, Point{At: s.At, C: c})
	}
	return out, nil
}
