package experiments

import (
	"strings"
	"testing"
	"time"

	"choreo/internal/stats"
)

// quickCfg runs every experiment at reduced scale; the assertions below
// check the paper's qualitative shapes, which must hold even at quick
// scale.
func quickCfg() Config { return Config{Seed: 42, Quick: true} }

func TestFig1Shape(t *testing.T) {
	r, err := Fig1(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Zones) != 4 {
		t.Fatalf("zones = %d", len(r.Zones))
	}
	overallMin := 1e18
	for z := range r.Zones {
		if r.Zones[z].Len() != 90 {
			t.Errorf("zone %d has %d paths, want 90", z, r.Zones[z].Len())
		}
		min, _ := r.Zones[z].Min()
		max, _ := r.Zones[z].Max()
		if min < overallMin {
			overallMin = min
		}
		// 2012-era EC2: substantial spatial spread within each zone.
		if max/min < 1.3 {
			t.Errorf("zone %d spread [%0.f, %0.f] too narrow", z, min, max)
		}
	}
	// Across zones the paper saw paths as slow as ~100 Mbit/s.
	if overallMin > 450 {
		t.Errorf("slowest 2012 path %.0f Mbit/s; expected a low tail", overallMin)
	}
	// Zones differ: zone d (fast) should have a higher median than zone a.
	medA, _ := r.Zones[0].Median()
	medD, _ := r.Zones[3].Median()
	if medD <= medA {
		t.Errorf("zone medians not ordered: a=%.0f d=%.0f", medA, medD)
	}
	if !strings.Contains(r.String(), "us-east-1a") {
		t.Error("printout missing zone labels")
	}
}

func TestFig2aShape(t *testing.T) {
	r, err := Fig2a(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if r.Paths != 4*90 {
		t.Fatalf("paths = %d", r.Paths)
	}
	// Paper: ~80% of paths between 900 and 1100 Mbit/s.
	if r.InBand < 0.6 {
		t.Errorf("in-band fraction %.2f, want most paths in 900-1100", r.InBand)
	}
	if r.Mean < 850 || r.Mean > 1250 {
		t.Errorf("mean %.0f Mbit/s outside the paper's ballpark (957)", r.Mean)
	}
	min, _ := r.CDF.Min()
	if min > 700 {
		t.Errorf("no low tail: min %.0f", min)
	}
}

func TestFig2bShape(t *testing.T) {
	r, err := Fig2b(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	// Rackspace: almost every path at ~300 Mbit/s.
	if r.InBand < 0.9 {
		t.Errorf("in-band fraction %.2f, want ~1 at 300 Mbit/s", r.InBand)
	}
	if r.Median < 290 || r.Median > 310 {
		t.Errorf("median %.0f, want ~300", r.Median)
	}
}

func TestFig4aTracksActual(t *testing.T) {
	r, err := Fig4a(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Series) < 500 {
		t.Fatalf("series too short: %d", len(r.Series))
	}
	// Figure 4(a): estimates track the actual count closely for c < 10.
	if r.TrackingError > 1.0 {
		t.Errorf("tracking error %.2f connections, want < 1", r.TrackingError)
	}
}

func TestFig4bFloorsAtTen(t *testing.T) {
	r, err := Fig4b(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	// Figure 4(b): the smallest estimated value is ~10 because the shared
	// 10 Gbit/s uplink only saturates beyond ten 1 Gbit/s flows.
	if r.FlooredAt < 8 || r.FlooredAt > 11 {
		t.Errorf("estimate floor %.1f, want ~9-10", r.FlooredAt)
	}
}

func TestFig6Shapes(t *testing.T) {
	ec2, err := Fig6(quickCfg(), EC2Variant)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range ec2.Cells {
		if c.MeanError > 0.2 {
			t.Errorf("EC2 error at %dx%d = %.1f%%, want consistently low",
				c.Bursts, c.BurstLength, c.MeanError*100)
		}
	}
	rs, err := Fig6(quickCfg(), RackspaceVariant)
	if err != nil {
		t.Fatal(err)
	}
	short, ok1 := rs.Cell(200, 10)
	long, ok2 := rs.Cell(2000, 10)
	if !ok1 || !ok2 {
		t.Fatal("missing rackspace cells")
	}
	// Figure 6(b): error collapses once bursts exceed the token bucket.
	if short.MeanError < 0.15 {
		t.Errorf("short-burst Rackspace error %.1f%%, expected large", short.MeanError*100)
	}
	if long.MeanError > 0.10 {
		t.Errorf("2000-packet Rackspace error %.1f%%, want small", long.MeanError*100)
	}
	if long.MeanError >= short.MeanError {
		t.Errorf("error did not improve with burst length: %.3f -> %.3f",
			short.MeanError, long.MeanError)
	}
}

func TestFig7Stability(t *testing.T) {
	ec2, err := Fig7(quickCfg(), EC2Variant)
	if err != nil {
		t.Fatal(err)
	}
	for i, tau := range ec2.Taus {
		p95, _ := ec2.CDFs[i].Percentile(95)
		med, _ := ec2.CDFs[i].Median()
		// Paper: at least 95% of EC2 paths see <= 6% error for all τ;
		// median 0.4-0.5%.
		if p95 > 6 {
			t.Errorf("EC2 tau=%v p95 error %.2f%%, want <= 6%%", tau, p95)
		}
		if med > 1.5 {
			t.Errorf("EC2 tau=%v median error %.2f%%, want sub-percent", tau, med)
		}
	}
	rs, err := Fig7(quickCfg(), RackspaceVariant)
	if err != nil {
		t.Fatal(err)
	}
	for i, tau := range rs.Taus {
		p95, _ := rs.CDFs[i].Percentile(95)
		if p95 > 1.5 {
			t.Errorf("Rackspace tau=%v p95 error %.2f%%, want < 1.5%%", tau, p95)
		}
	}
}

func TestFig7EmptyCDFPrintsNoData(t *testing.T) {
	r := &Fig7Result{
		Variant: EC2Variant,
		Taus:    []time.Duration{time.Minute, 30 * time.Minute},
		CDFs:    make([]stats.CDF, 2),
	}
	r.CDFs[0].Add(1)
	r.CDFs[0].Add(3)
	out := r.String()
	if !strings.Contains(out, "tau=30m0s  n/a (0 samples)\n") {
		t.Errorf("empty CDF row not marked n/a:\n%s", out)
	}
	if !strings.Contains(out, "tau=1m0s  median=") {
		t.Errorf("non-empty CDF row lost its statistics:\n%s", out)
	}
	if strings.Count(out, "0.00%") != 0 {
		t.Errorf("output reports a statistic of an empty CDF:\n%s", out)
	}
}

func TestFig8Shape(t *testing.T) {
	r, err := Fig8(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	for h := range r.ByHops {
		switch h {
		case 1, 2, 4, 6, 8:
		default:
			t.Errorf("unexpected hop count %d", h)
		}
	}
	// Hop counts beyond one rack must appear.
	if _, ok := r.ByHops[6]; !ok {
		t.Error("no 6-hop paths")
	}
	// Same-machine paths are uniformly fast; multi-hop paths typically sit
	// near 1 Gbit/s (the paper also saw a handful of fast 6/8-hop paths,
	// so no strict ordering is asserted on maxima).
	if s, ok := r.ByHops[1]; ok && s.Median < 2000 {
		t.Errorf("same-machine median %.0f Mbit/s, want multi-Gbit", s.Median)
	}
	for _, h := range []int{2, 4, 6, 8} {
		if s, ok := r.ByHops[h]; ok && (s.Median < 700 || s.Median > 1300) {
			t.Errorf("hop-%d median %.0f Mbit/s, want near 1 Gbit/s", h, s.Median)
		}
	}
	// Weak correlation between hops and throughput (paper: "little").
	if r.Correlation > 0.2 || r.Correlation < -0.8 {
		t.Errorf("correlation r=%.2f outside the weakly-negative band", r.Correlation)
	}
}

func TestFig9Numbers(t *testing.T) {
	r, err := Fig9(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if r.GreedySeconds < 49.9 || r.GreedySeconds > 50.1 {
		t.Errorf("greedy = %.2f s, want 50", r.GreedySeconds)
	}
	if r.OptimalSeconds < 11.0 || r.OptimalSeconds > 11.2 {
		t.Errorf("optimal = %.2f s, want 11.11", r.OptimalSeconds)
	}
}

func TestFig10aShape(t *testing.T) {
	r, err := Fig10a(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Baselines) != 3 {
		t.Fatalf("baselines = %d", len(r.Baselines))
	}
	for _, b := range r.Baselines {
		// Choreo should win clearly more often than it loses.
		if b.ImprovedFraction < 0.5 {
			t.Errorf("vs %v: improved only %.0f%% of runs", b.Baseline, b.ImprovedFraction*100)
		}
		if b.MeanPct < 0 {
			t.Errorf("vs %v: negative mean speed-up %.1f%%", b.Baseline, b.MeanPct)
		}
	}
}

func TestFig10bShape(t *testing.T) {
	r, err := Fig10b(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range r.Baselines {
		if b.ImprovedFraction < 0.5 {
			t.Errorf("vs %v: improved only %.0f%% of runs", b.Baseline, b.ImprovedFraction*100)
		}
	}
}

func TestGreedyVsOptimalShape(t *testing.T) {
	r, err := GreedyVsOptimal(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if r.MedianOverhead < 0 {
		t.Errorf("median overhead %.3f negative", r.MedianOverhead)
	}
	// Paper: 13%. Allow slack but catch pathologies.
	if r.MedianOverhead > 0.3 {
		t.Errorf("median overhead %.1f%%, want near the paper's 13%%", r.MedianOverhead*100)
	}
}

func TestBottleneckSurveyShape(t *testing.T) {
	r, err := BottleneckSurvey(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Survey.DisjointFraction(); got != 0 {
		t.Errorf("disjoint interference %.2f, want 0", got)
	}
	if got := r.Survey.SameSourceFraction(); got != 1 {
		t.Errorf("same-source interference %.2f, want 1", got)
	}
	if !r.Hose.HoseDetected {
		t.Error("hose not detected")
	}
}

func TestTrainAccuracyShape(t *testing.T) {
	r, err := TrainAccuracy(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if r.EC2Error > 0.15 {
		t.Errorf("EC2 train error %.1f%%, paper reports 9%%", r.EC2Error*100)
	}
	if r.RackspaceError > 0.10 {
		t.Errorf("Rackspace train error %.1f%%, paper reports 4%%", r.RackspaceError*100)
	}
	if r.MeshPairs != 90 {
		t.Errorf("mesh pairs = %d", r.MeshPairs)
	}
	if r.MeshElapsed.Minutes() > 3 {
		t.Errorf("mesh took %v, paper: < 3 minutes", r.MeshElapsed)
	}
}

func TestPredictabilityShape(t *testing.T) {
	r, err := Predictability(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Evaluations) != 2 {
		t.Fatalf("evaluations = %d", len(r.Evaluations))
	}
	for _, e := range r.Evaluations {
		if e.Median > 0.25 {
			t.Errorf("%s median error %.2f, want predictable", e.Predictor, e.Median)
		}
	}
}

func TestHoseFairShareShape(t *testing.T) {
	r, err := HoseFairShare(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if r.Ratio < 0.45 || r.Ratio > 0.55 {
		t.Errorf("pair ratio %.2f, want ~0.5", r.Ratio)
	}
}

func TestRegistryRunsEverything(t *testing.T) {
	cfg := quickCfg()
	for _, n := range All() {
		n := n
		t.Run(n.ID, func(t *testing.T) {
			res, err := n.Run(cfg)
			if err != nil {
				t.Fatalf("%s: %v", n.ID, err)
			}
			out := res.String()
			if len(out) < 20 {
				t.Errorf("%s printed almost nothing: %q", n.ID, out)
			}
		})
	}
}

func TestFind(t *testing.T) {
	if _, ok := Find("fig9"); !ok {
		t.Error("fig9 not found")
	}
	if _, ok := Find("nonsense"); ok {
		t.Error("bogus ID found")
	}
}
