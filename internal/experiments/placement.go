package experiments

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"choreo/internal/bottleneck"
	"choreo/internal/core"
	"choreo/internal/place"
	"choreo/internal/profile"
	"choreo/internal/stats"
	"choreo/internal/topology"
	"choreo/internal/units"
	"choreo/internal/workload"
)

// ---------------------------------------------------------------- Fig 9

// Fig9Result reproduces the greedy-suboptimality counterexample.
type Fig9Result struct {
	GreedySeconds  float64
	OptimalSeconds float64
	Ratio          float64
}

// Fig9 builds the figure's four-machine topology: directed rates
// (3→1)=10, (2→3)=9, (2→0)=8 units, everything else 1, one task per
// machine, transfers J1→J2 100 MB, J1→J3 50 MB, J2→J4 50 MB.
func Fig9(cfg Config) (*Fig9Result, error) {
	unit := func(u float64) units.Rate { return units.Rate(u * 8e6) } // 1 unit = 1 MB/s
	env := &place.Environment{
		Rates:  make([][]units.Rate, 4),
		CPUCap: []float64{1, 1, 1, 1},
	}
	for i := range env.Rates {
		env.Rates[i] = make([]units.Rate, 4)
		for j := range env.Rates[i] {
			if i == j {
				env.Rates[i][j] = units.Gbps(32)
			} else {
				env.Rates[i][j] = unit(1)
			}
		}
	}
	env.Rates[3][1] = unit(10)
	env.Rates[2][3] = unit(9)
	env.Rates[2][0] = unit(8)

	app := &profile.Application{
		Name: "fig9",
		CPU:  []float64{1, 1, 1, 1},
		TM:   profile.NewTrafficMatrix(4),
	}
	if err := app.TM.Set(0, 1, 100*units.Megabyte); err != nil {
		return nil, err
	}
	if err := app.TM.Set(0, 2, 50*units.Megabyte); err != nil {
		return nil, err
	}
	if err := app.TM.Set(1, 3, 50*units.Megabyte); err != nil {
		return nil, err
	}

	g, err := place.Greedy(app, env, place.Pipe)
	if err != nil {
		return nil, err
	}
	gt, err := place.CompletionTime(app, env, g, place.Pipe)
	if err != nil {
		return nil, err
	}
	ot, err := place.OptimalTime(app, env, place.Pipe, 0)
	if err != nil {
		return nil, err
	}
	return &Fig9Result{
		GreedySeconds:  gt.Seconds(),
		OptimalSeconds: ot.Seconds(),
		Ratio:          gt.Seconds() / ot.Seconds(),
	}, nil
}

// String prints the comparison.
func (r *Fig9Result) String() string {
	var b strings.Builder
	b.WriteString(header("Figure 9: greedy sub-optimality counterexample"))
	fmt.Fprintf(&b, "greedy completion:  %.2f s (paper: 100MB on the 10-unit path, then stuck at rate 1)\n", r.GreedySeconds)
	fmt.Fprintf(&b, "optimal completion: %.2f s (paper: 100MB on the 9-unit path)\n", r.OptimalSeconds)
	fmt.Fprintf(&b, "greedy/optimal ratio: %.2f\n", r.Ratio)
	return b.String()
}

// --------------------------------------------------------------- Fig 10

// BaselineStats summarizes Choreo's speed-up against one baseline.
type BaselineStats struct {
	Baseline         core.Algorithm
	Speedups         stats.CDF // relative speed-up per run (fraction)
	MeanPct          float64
	MedianPct        float64
	MaxPct           float64
	ImprovedFraction float64
	// Restricted to improved runs.
	ImprovedMeanPct float64
	// Median slow-down among degraded runs (positive percentage).
	DegradedMedianPct float64
}

// Fig10Result is one of the two Figure 10 CDFs.
type Fig10Result struct {
	Scenario  string
	Runs      int
	Baselines []BaselineStats
}

var (
	fig10Baselines  = []core.Algorithm{core.AlgMinMachines, core.AlgRandom, core.AlgRoundRobin}
	fig10Algorithms = append([]core.Algorithm{core.AlgChoreo}, fig10Baselines...)
)

// Fig10a models a tenant placing all applications at once: one to three
// HP-like applications combined into one and placed on a ten-VM EC2-2013
// fabric with every algorithm, then actually executed on the simulator
// (§6.2). Measurement time is excluded, as in the paper.
func Fig10a(cfg Config) (*Fig10Result, error) {
	runs := cfg.runs(100, 8)
	res := &Fig10Result{Scenario: "all applications at once", Runs: runs}
	acc := map[core.Algorithm]*BaselineStats{}
	for _, alg := range fig10Baselines {
		acc[alg] = &BaselineStats{Baseline: alg}
	}
	for run := 0; run < runs; run++ {
		draw, err := DrawFeasible(topology.EC22013(), 10, fig10Algorithms,
			func(attempt int) int64 { return cfg.Seed + int64(run)*613 + int64(attempt)*100003 + 7 },
			func(rng *rand.Rand) int { return 1 + rng.Intn(3) })
		if err != nil {
			return nil, fmt.Errorf("experiments: fig10a run %d: %w", run, err)
		}
		for _, alg := range fig10Baselines {
			s := stats.RelativeSpeedup(draw.Completion[alg].Seconds(), draw.Completion[core.AlgChoreo].Seconds())
			acc[alg].Speedups.Add(s)
		}
	}
	for _, alg := range fig10Baselines {
		finalizeBaseline(acc[alg])
		res.Baselines = append(res.Baselines, *acc[alg])
	}
	return res, nil
}

// maxDraws bounds how often DrawFeasible redraws a workload.
const maxDraws = 8

// FeasibleDraw is a workload every compared algorithm could place, with
// each algorithm's completion time on it.
type FeasibleDraw struct {
	// Seed drove both the workload draw and the cloud.
	Seed int64
	// Apps are the drawn applications; they ran combined into one.
	Apps       []*profile.Application
	Completion map[core.Algorithm]time.Duration
}

// DrawFeasible is the §6.2 workload draw behind Fig 10(a): a tenant
// sizing its applications to its VMs. It draws applications (how many,
// count picks from the draw's rng) that each fit an even share of 80% of
// the VMs' 4 cores, combines them, and measures, places and executes the
// combination with every algorithm in algs on its own fresh cloud of
// prof rebuilt from the draw's seed (hose model). A draw that cannot be
// generated, or that some algorithm cannot place — CPU fragmentation —
// is redrawn, at most maxDraws times; seedOf gives each attempt's seed.
func DrawFeasible(prof topology.Profile, vms int, algs []core.Algorithm,
	seedOf func(attempt int) int64, count func(*rand.Rand) int) (*FeasibleDraw, error) {
	var err error
	for attempt := 0; attempt < maxDraws; attempt++ {
		var draw *FeasibleDraw
		if draw, err = drawOnce(prof, vms, algs, seedOf(attempt), count); err == nil {
			return draw, nil
		}
	}
	return nil, fmt.Errorf("no feasible workload in %d draws; last: %w", maxDraws, err)
}

// drawOnce is one DrawFeasible attempt.
func drawOnce(prof topology.Profile, vms int, algs []core.Algorithm, seed int64, count func(*rand.Rand) int) (*FeasibleDraw, error) {
	draw := &FeasibleDraw{Seed: seed, Completion: make(map[core.Algorithm]time.Duration, len(algs))}
	rng := rand.New(rand.NewSource(seed))
	n := count(rng)
	budget := float64(4*vms) * 0.8 / float64(n)
	wcfg := workload.Default()
	for k := 0; k < n; k++ {
		app, err := workload.GenerateFitting(rng, wcfg, budget)
		if err != nil {
			return nil, err
		}
		draw.Apps = append(draw.Apps, app)
	}
	combined, _, err := profile.Combine(draw.Apps)
	if err != nil {
		return nil, err
	}
	for _, alg := range algs {
		orch, err := core.NewSimulated(prof, seed, vms, core.Options{Model: place.Hose})
		if err != nil {
			return nil, err
		}
		if draw.Completion[alg], err = orch.RunOnce(combined, alg); err != nil {
			return nil, fmt.Errorf("%v: %w", alg, err)
		}
	}
	return draw, nil
}

// Fig10b models applications arriving in real time (§6.3): two to four
// applications ordered by start time, placed as they arrive (Choreo
// re-measures between arrivals), compared on the sum of running times.
func Fig10b(cfg Config) (*Fig10Result, error) {
	runs := cfg.runs(100, 6)
	res := &Fig10Result{Scenario: "applications in sequence", Runs: runs}
	acc := map[core.Algorithm]*BaselineStats{}
	for _, alg := range fig10Baselines {
		acc[alg] = &BaselineStats{Baseline: alg}
	}
	wcfg := workload.Default()
	for run := 0; run < runs; run++ {
		var totals map[core.Algorithm]time.Duration
		for attempt := 0; attempt < 8; attempt++ {
			seed := cfg.Seed + int64(run)*919 + int64(attempt)*100003 + 13
			rng := rand.New(rand.NewSource(seed))
			nApps := 2 + rng.Intn(3)
			apps := make([]*profile.Application, nApps)
			var at time.Duration
			genErr := error(nil)
			for k := range apps {
				// Overlapping applications share the ten 4-core VMs.
				app, err := workload.GenerateFitting(rng, wcfg, 32.0/float64(nApps))
				if err != nil {
					genErr = err
					break
				}
				app.Start = at
				at += time.Duration(rng.ExpFloat64() * float64(2*time.Second))
				apps[k] = app
			}
			if genErr != nil {
				continue
			}
			trial := map[core.Algorithm]time.Duration{}
			failed := false
			for _, alg := range fig10Algorithms {
				t, err := runSequenceOnFreshFabric(seed, apps, alg)
				if err != nil {
					failed = true
					break
				}
				trial[alg] = t
			}
			if !failed {
				totals = trial
				break
			}
		}
		if totals == nil {
			return nil, fmt.Errorf("experiments: fig10b run %d found no feasible workload", run)
		}
		for _, alg := range fig10Baselines {
			s := stats.RelativeSpeedup(totals[alg].Seconds(), totals[core.AlgChoreo].Seconds())
			acc[alg].Speedups.Add(s)
		}
	}
	for _, alg := range fig10Baselines {
		finalizeBaseline(acc[alg])
		res.Baselines = append(res.Baselines, *acc[alg])
	}
	return res, nil
}

// runSequenceOnFreshFabric plays the arrivals with one algorithm on a
// fresh ten-VM EC2-2013 cloud rebuilt from seed.
func runSequenceOnFreshFabric(seed int64, apps []*profile.Application, alg core.Algorithm) (time.Duration, error) {
	c, err := core.NewSimulated(topology.EC22013(), seed, 10, core.Options{Model: place.Hose})
	if err != nil {
		return 0, err
	}
	res, err := c.RunSequence(apps, alg, core.SequenceOptions{Remeasure: true})
	if err != nil {
		return 0, err
	}
	return res.TotalRunning, nil
}

// finalizeBaseline summarizes the speed-ups. Every run adds one sample per
// baseline and Fig 10 always makes runs, so the CDF is non-empty and none
// of its accessors can fail.
func finalizeBaseline(b *BaselineStats) {
	mean, _ := b.Speedups.Mean()
	median, _ := b.Speedups.Median()
	max, _ := b.Speedups.Max()
	b.MeanPct = mean * 100
	b.MedianPct = median * 100
	b.MaxPct = max * 100
	b.ImprovedFraction = b.Speedups.FractionAbove(0)
	var improved, degraded []float64
	for _, p := range b.Speedups.Points(0) {
		if p.X > 0 {
			improved = append(improved, p.X)
		} else if p.X < 0 {
			degraded = append(degraded, -p.X)
		}
	}
	if len(improved) > 0 {
		b.ImprovedMeanPct = stats.Mean(improved) * 100
	}
	if len(degraded) > 0 {
		med, _ := stats.NewCDF(degraded).Median() // non-empty: cannot fail
		b.DegradedMedianPct = med * 100
	}
}

// String prints per-baseline summaries plus decimated CDFs.
func (r *Fig10Result) String() string {
	var b strings.Builder
	b.WriteString(header(fmt.Sprintf("Figure 10: relative speed-up, %s (%d runs)", r.Scenario, r.Runs)))
	rows := [][]string{{"baseline", "improved%", "mean%", "median%", "max%", "mean%|improved", "median-slowdown%"}}
	for _, bs := range r.Baselines {
		rows = append(rows, []string{
			bs.Baseline.String(),
			fmt.Sprintf("%.0f", bs.ImprovedFraction*100),
			fmt.Sprintf("%.1f", bs.MeanPct),
			fmt.Sprintf("%.1f", bs.MedianPct),
			fmt.Sprintf("%.1f", bs.MaxPct),
			fmt.Sprintf("%.1f", bs.ImprovedMeanPct),
			fmt.Sprintf("%.1f", bs.DegradedMedianPct),
		})
	}
	b.WriteString(table(rows))
	for i := range r.Baselines {
		bs := &r.Baselines[i]
		b.WriteString(stats.FormatCDF("speed-up vs "+bs.Baseline.String(), &bs.Speedups, 10))
	}
	return b.String()
}

// -------------------------------------------------------- text-g-vs-opt

// GreedyVsOptimalResult compares Algorithm 1 to the exact optimum on many
// applications (§5: median completion 13% above optimal on 111 apps).
type GreedyVsOptimalResult struct {
	Apps           int
	MedianOverhead float64 // median of greedy/optimal − 1
	MeanOverhead   float64
	WorstOverhead  float64
}

// GreedyVsOptimal places generated applications on measured EC2-like
// environments with both the greedy algorithm and branch-and-bound.
func GreedyVsOptimal(cfg Config) (*GreedyVsOptimalResult, error) {
	apps := cfg.runs(111, 12)
	rng := cfg.rng("g-vs-opt")
	wcfg := workload.Default()
	wcfg.MinTasks, wcfg.MaxTasks = 4, 7
	// Scarce CPU keeps tasks from simply colocating, so placement quality
	// is decided on the network — where greedy's myopia is visible.
	wcfg.CPUChoices = []float64{0.5, 1, 1.5, 2}
	// Five small machines: keep demand within reach of every solver.
	draw := func() (*profile.Application, *place.Environment, error) {
		app, err := workload.GenerateFitting(rng, wcfg, 11)
		if err != nil {
			return nil, nil, err
		}
		return app, randomMeasuredEnv(rng, 5), nil
	}
	var overheads []float64
	for k := 0; k < apps; k++ {
		app, env, g, err := drawGreedyPlaceable(draw)
		if err != nil {
			return nil, err
		}
		gt, err := place.CompletionTime(app, env, g, place.Hose)
		if err != nil {
			return nil, err
		}
		ot, err := place.OptimalTime(app, env, place.Hose, 0)
		if err != nil {
			return nil, err
		}
		if ot <= 0 {
			overheads = append(overheads, 0)
			continue
		}
		overheads = append(overheads, gt.Seconds()/ot.Seconds()-1)
	}
	sum, err := stats.Summarize(overheads)
	if err != nil {
		return nil, err
	}
	return &GreedyVsOptimalResult{
		Apps:           apps,
		MedianOverhead: sum.Median,
		MeanOverhead:   sum.Mean,
		WorstOverhead:  sum.Max,
	}, nil
}

// maxSkippedDraws bounds how many draws in a row GreedyVsOptimal skips
// because greedy finds no placement for them. At the calibrated workload
// a skip is rare, so hitting the bound means the draws cannot be placed
// at all, and spinning on would never end.
const maxSkippedDraws = 100

// drawGreedyPlaceable calls draw until greedy places the drawn
// application on the drawn environment, and returns that draw with
// greedy's placement. A draw greedy cannot place (fragmentation left no
// CPU-feasible machine) is skipped; after maxSkippedDraws skips in a row
// it fails with greedy's last error.
func drawGreedyPlaceable(draw func() (*profile.Application, *place.Environment, error)) (*profile.Application, *place.Environment, place.Placement, error) {
	for skipped := 0; ; skipped++ {
		app, env, err := draw()
		if err != nil {
			return nil, nil, place.Placement{}, err
		}
		g, err := place.Greedy(app, env, place.Hose)
		if err == nil {
			return app, env, g, nil
		}
		if skipped == maxSkippedDraws {
			return nil, nil, place.Placement{}, fmt.Errorf("experiments: greedy placed none of %d draws in a row: %w", maxSkippedDraws+1, err)
		}
	}
}

// randomMeasuredEnv draws an EC2-2013-like measured rate matrix.
func randomMeasuredEnv(rng *rand.Rand, machines int) *place.Environment {
	profile := topology.EC22013()
	env := &place.Environment{
		Rates:  make([][]units.Rate, machines),
		CPUCap: make([]float64, machines),
	}
	hose := make([]units.Rate, machines)
	for m := range hose {
		hose[m] = profile.HoseRate(rng)
	}
	for i := range env.Rates {
		env.Rates[i] = make([]units.Rate, machines)
		env.CPUCap[i] = 2.5
		for j := range env.Rates[i] {
			if i == j {
				env.Rates[i][j] = profile.MemBusRate
			} else {
				// Path-level diversity beyond the hose (congested links,
				// colocated neighbours) gives greedy's myopia room to show.
				jitter := 1 + rng.NormFloat64()*0.15
				if jitter < 0.3 {
					jitter = 0.3
				}
				env.Rates[i][j] = units.Rate(float64(hose[i]) * jitter)
			}
		}
	}
	env.HoseRates = hose
	return env
}

// String prints the overhead summary.
func (r *GreedyVsOptimalResult) String() string {
	var b strings.Builder
	b.WriteString(header(fmt.Sprintf("§5: greedy vs optimal on %d applications", r.Apps)))
	fmt.Fprintf(&b, "median overhead: %.1f%% (paper: 13%%)  mean: %.1f%%  worst: %.1f%%\n",
		r.MedianOverhead*100, r.MeanOverhead*100, r.WorstOverhead*100)
	return b.String()
}

// ------------------------------------------------------- text-bottleneck

// BottleneckSurveyResult reproduces the §4.3 interference experiment.
type BottleneckSurveyResult struct {
	Survey bottleneck.Survey
	Hose   bottleneck.HoseEvidence
}

// BottleneckSurvey runs twenty disjoint-endpoint and twenty same-source
// concurrent-connection trials on an EC2-2013 fabric, plus the hose
// detection probe.
func BottleneckSurvey(cfg Config) (*BottleneckSurveyResult, error) {
	orch, err := core.NewSimulated(topology.EC22013(), cfg.Seed+53, 12, core.Options{})
	if err != nil {
		return nil, err
	}
	net, vms := orch.Network(), orch.VMs()
	// Use VMs on distinct hosts, as the paper's four VMs were.
	hostSeen := map[topology.NodeID]bool{}
	var subset []topology.VM
	for _, vm := range vms {
		if hostSeen[vm.Host] {
			continue
		}
		hostSeen[vm.Host] = true
		subset = append(subset, vm)
		if len(subset) == 4 {
			break
		}
	}
	if len(subset) < 4 {
		return nil, fmt.Errorf("experiments: fewer than 4 distinct hosts")
	}
	survey, err := bottleneck.RunSurvey(net, subset, 20, 0)
	if err != nil {
		return nil, err
	}
	hose, err := bottleneck.DetectHose(net, subset[0].ID, subset[1].ID, subset[2].ID)
	if err != nil {
		return nil, err
	}
	return &BottleneckSurveyResult{Survey: survey, Hose: hose}, nil
}

// String prints the fractions the paper reports.
func (r *BottleneckSurveyResult) String() string {
	var b strings.Builder
	b.WriteString(header("§4.3: concurrent-connection interference"))
	fmt.Fprintf(&b, "disjoint endpoints interfering:  %2.0f%% of %d trials (paper: never)\n",
		r.Survey.DisjointFraction()*100, r.Survey.DisjointTrials)
	fmt.Fprintf(&b, "same-source pairs interfering:  %3.0f%% of %d trials (paper: always)\n",
		r.Survey.SameSourceFraction()*100, r.Survey.SameSourceTrials)
	fmt.Fprintf(&b, "hose model detected: %v (egress sum %v vs single %v)\n",
		r.Hose.HoseDetected, r.Hose.PairSum, r.Hose.SingleRate)
	return b.String()
}
