// Benchmarks wrapping every experiment of the paper's evaluation (one per
// figure and in-text result; experiments.All maps each to its paper
// artifact) plus ablation benchmarks for single design choices.
//
// Benchmarks run the experiments at reduced (Quick) scale so the full
// `go test -bench=. -benchmem` sweep completes in minutes; the paper-scale
// runs with printed series are produced by cmd/choreo-bench. Key result
// shapes are attached as custom benchmark metrics.
package choreo_test

import (
	"math/rand"
	"testing"
	"time"

	"choreo/internal/core"
	"choreo/internal/experiments"
	"choreo/internal/netsim"
	"choreo/internal/packetsim"
	"choreo/internal/place"
	"choreo/internal/probe"
	"choreo/internal/profile"
	"choreo/internal/stats"
	"choreo/internal/sweep"
	"choreo/internal/topology"
	"choreo/internal/units"
	"choreo/internal/workload"
)

func benchCfg(i int) experiments.Config {
	return experiments.Config{Seed: int64(42 + i), Quick: true}
}

// --------------------------------------------------------------- figures

func BenchmarkFig1ThroughputCDF2012(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig1(benchCfg(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig2aEC2CDF(b *testing.B) {
	var inBand float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig2a(benchCfg(i))
		if err != nil {
			b.Fatal(err)
		}
		inBand = r.InBand
	}
	b.ReportMetric(inBand*100, "%in-900-1100")
}

func BenchmarkFig2bRackspaceCDF(b *testing.B) {
	var median float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig2b(benchCfg(i))
		if err != nil {
			b.Fatal(err)
		}
		median = r.Median
	}
	b.ReportMetric(median, "median-Mbit/s")
}

func BenchmarkFig4aCrossTrafficSimple(b *testing.B) {
	var trackErr float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig4a(benchCfg(i))
		if err != nil {
			b.Fatal(err)
		}
		trackErr = r.TrackingError
	}
	b.ReportMetric(trackErr, "tracking-error-conns")
}

func BenchmarkFig4bCrossTrafficCloud(b *testing.B) {
	var floor float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig4b(benchCfg(i))
		if err != nil {
			b.Fatal(err)
		}
		floor = r.FlooredAt
	}
	b.ReportMetric(floor, "estimate-floor")
}

func BenchmarkFig6aTrainErrorEC2(b *testing.B) {
	var err200 float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig6(benchCfg(i), experiments.EC2Variant)
		if err != nil {
			b.Fatal(err)
		}
		if c, ok := r.Cell(200, 10); ok {
			err200 = c.MeanError
		}
	}
	b.ReportMetric(err200*100, "%err-10x200")
}

func BenchmarkFig6bTrainErrorRackspace(b *testing.B) {
	var err2000 float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig6(benchCfg(i), experiments.RackspaceVariant)
		if err != nil {
			b.Fatal(err)
		}
		if c, ok := r.Cell(2000, 10); ok {
			err2000 = c.MeanError
		}
	}
	b.ReportMetric(err2000*100, "%err-10x2000")
}

func BenchmarkFig7aTemporalEC2(b *testing.B) {
	var p95 float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig7(benchCfg(i), experiments.EC2Variant)
		if err != nil {
			b.Fatal(err)
		}
		p95, _ = r.CDFs[len(r.CDFs)-1].Percentile(95)
	}
	b.ReportMetric(p95, "%err-p95-tau30m")
}

func BenchmarkFig7bTemporalRackspace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig7(benchCfg(i), experiments.RackspaceVariant); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8PathLenVsBandwidth(b *testing.B) {
	var corr float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig8(benchCfg(i))
		if err != nil {
			b.Fatal(err)
		}
		corr = r.Correlation
	}
	b.ReportMetric(corr, "pearson-r")
}

func BenchmarkFig9GreedyCounterexample(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig9(benchCfg(i))
		if err != nil {
			b.Fatal(err)
		}
		ratio = r.Ratio
	}
	b.ReportMetric(ratio, "greedy/optimal")
}

func BenchmarkFig10aAllAtOnce(b *testing.B) {
	var mean float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig10a(benchCfg(i))
		if err != nil {
			b.Fatal(err)
		}
		mean = r.Baselines[0].MeanPct
	}
	b.ReportMetric(mean, "%mean-speedup-vs-minmachines")
}

func BenchmarkFig10bSequence(b *testing.B) {
	var mean float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig10b(benchCfg(i))
		if err != nil {
			b.Fatal(err)
		}
		mean = r.Baselines[0].MeanPct
	}
	b.ReportMetric(mean, "%mean-speedup-vs-minmachines")
}

// --------------------------------------------------------- in-text stats

func BenchmarkTextGreedyVsOptimal(b *testing.B) {
	var median float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.GreedyVsOptimal(benchCfg(i))
		if err != nil {
			b.Fatal(err)
		}
		median = r.MedianOverhead
	}
	b.ReportMetric(median*100, "%median-overhead")
}

func BenchmarkTextBottleneckInterference(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.BottleneckSurvey(benchCfg(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTextTrainAccuracy(b *testing.B) {
	var ec2 float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.TrainAccuracy(benchCfg(i))
		if err != nil {
			b.Fatal(err)
		}
		ec2 = r.EC2Error
	}
	b.ReportMetric(ec2*100, "%ec2-train-error")
}

func BenchmarkTextPredictability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Predictability(benchCfg(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTextHoseFairShare(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.HoseFairShare(benchCfg(i))
		if err != nil {
			b.Fatal(err)
		}
		ratio = r.Ratio
	}
	b.ReportMetric(ratio, "pair/single")
}

// -------------------------------------------------------------- ablations

// benchApp draws one placement problem on a measured EC2-like fabric.
func benchApp(b *testing.B, seed int64) (*profile.Application, *place.Environment) {
	b.Helper()
	rng := rand.New(rand.NewSource(seed))
	app, err := workload.GenerateFitting(rng, workload.Default(), 32)
	if err != nil {
		b.Fatal(err)
	}
	prov, err := topology.NewProvider(topology.EC22013(), seed)
	if err != nil {
		b.Fatal(err)
	}
	vms, err := prov.AllocateVMs(10)
	if err != nil {
		b.Fatal(err)
	}
	net := netsim.New(prov)
	c, err := core.New(net, vms, rng, core.Options{Model: place.Hose})
	if err != nil {
		b.Fatal(err)
	}
	env, err := c.MeasureEnvironment()
	if err != nil {
		b.Fatal(err)
	}
	return app, env
}

// BenchmarkAblationRateModel compares Algorithm 1 under the hose model
// (what EC2 actually enforces, §4.3) against the pipe model.
func BenchmarkAblationRateModel(b *testing.B) {
	var hoseTime, pipeTime float64
	for i := 0; i < b.N; i++ {
		app, env := benchApp(b, int64(100+i))
		for _, model := range []place.Model{place.Hose, place.Pipe} {
			p, err := place.Greedy(app, env, model)
			if err != nil {
				b.Fatal(err)
			}
			// Evaluate both under the hose objective: EC2 is hose-limited
			// regardless of what the placer assumed.
			ct, err := place.CompletionTime(app, env, p, place.Hose)
			if err != nil {
				b.Fatal(err)
			}
			if model == place.Hose {
				hoseTime += ct.Seconds()
			} else {
				pipeTime += ct.Seconds()
			}
		}
	}
	if hoseTime > 0 {
		b.ReportMetric(pipeTime/hoseTime, "pipe/hose-completion")
	}
}

// BenchmarkAblationGreedyOrder compares the paper's descending-bytes
// transfer order against ascending order (Algorithm 1 line 1).
func BenchmarkAblationGreedyOrder(b *testing.B) {
	var desc, asc float64
	for i := 0; i < b.N; i++ {
		app, env := benchApp(b, int64(200+i))
		transfers := app.TM.Transfers()
		reversed := make([]profile.Transfer, len(transfers))
		for k, tr := range transfers {
			reversed[len(transfers)-1-k] = tr
		}
		pd, err := place.Greedy(app, env, place.Hose)
		if err != nil {
			b.Fatal(err)
		}
		pa, err := place.GreedyWithTransfers(app, env, place.Hose, reversed)
		if err != nil {
			// Ascending order can strand CPU; treat as a large penalty.
			pa = pd
		}
		dt, err := place.CompletionTime(app, env, pd, place.Hose)
		if err != nil {
			b.Fatal(err)
		}
		at, err := place.CompletionTime(app, env, pa, place.Hose)
		if err != nil {
			b.Fatal(err)
		}
		desc += dt.Seconds()
		asc += at.Seconds()
	}
	if desc > 0 {
		b.ReportMetric(asc/desc, "ascending/descending")
	}
}

// BenchmarkAblationEstimator compares the paper's min{dispersion, Mathis}
// estimator against dispersion alone on a lossy congested path.
func BenchmarkAblationEstimator(b *testing.B) {
	state := packetsim.PathState{
		SustainedShare: units.Mbps(300),
		PhysicalShare:  units.Mbps(300),
		LineRate:       units.Gbps(10),
		HoseRate:       units.Mbps(950),
		HoseBurst:      8 * units.Kilobyte,
		RTT:            500 * time.Microsecond,
		QueueCapacity:  64 * units.Kilobyte,
	}
	rng := rand.New(rand.NewSource(1))
	var dispErr, minErr float64
	n := 0
	for i := 0; i < b.N; i++ {
		obs := packetsim.SimulateTrain(state, probe.DefaultEC2(), rng)
		disp, err := obs.DispersionEstimate()
		if err != nil {
			continue
		}
		min, err := obs.EstimateThroughput()
		if err != nil {
			continue
		}
		dispErr += stats.RelativeError(float64(disp), 300e6)
		minErr += stats.RelativeError(float64(min), 300e6)
		n++
	}
	if n > 0 {
		b.ReportMetric(dispErr/float64(n)*100, "%err-dispersion")
		b.ReportMetric(minErr/float64(n)*100, "%err-min-estimator")
	}
}

// BenchmarkAblationRemeasure compares in-sequence placement with and
// without re-measuring on each arrival (§2.4).
func BenchmarkAblationRemeasure(b *testing.B) {
	var with, without float64
	for i := 0; i < b.N; i++ {
		seed := int64(300 + i)
		rng := rand.New(rand.NewSource(seed))
		cfg := workload.Default()
		cfg.MeanBytes = 800 * units.Megabyte
		apps := make([]*profile.Application, 3)
		var at time.Duration
		for k := range apps {
			app, err := workload.GenerateFitting(rng, cfg, 12)
			if err != nil {
				b.Fatal(err)
			}
			app.Start = at
			at += 2 * time.Second
			apps[k] = app
		}
		for _, remeasure := range []bool{true, false} {
			prov, err := topology.NewProvider(topology.EC22013(), seed)
			if err != nil {
				b.Fatal(err)
			}
			vms, err := prov.AllocateVMs(10)
			if err != nil {
				b.Fatal(err)
			}
			c, err := core.New(netsim.New(prov), vms, rand.New(rand.NewSource(seed+1)), core.Options{Model: place.Hose})
			if err != nil {
				b.Fatal(err)
			}
			res, err := c.RunSequence(apps, core.AlgChoreo, core.SequenceOptions{Remeasure: remeasure})
			if err != nil {
				b.Fatal(err)
			}
			if remeasure {
				with += res.TotalRunning.Seconds()
			} else {
				without += res.TotalRunning.Seconds()
			}
		}
	}
	if with > 0 {
		b.ReportMetric(without/with, "stale/remeasured")
	}
}

// BenchmarkAblationMigrationPeriod sweeps the §2.4 re-evaluation period T.
func BenchmarkAblationMigrationPeriod(b *testing.B) {
	periods := []time.Duration{0, 5 * time.Second, 15 * time.Second}
	totals := make([]float64, len(periods))
	for i := 0; i < b.N; i++ {
		seed := int64(400 + i)
		rng := rand.New(rand.NewSource(seed))
		cfg := workload.Default()
		cfg.MeanBytes = 1500 * units.Megabyte
		apps := make([]*profile.Application, 3)
		var at time.Duration
		for k := range apps {
			app, err := workload.GenerateFitting(rng, cfg, 12)
			if err != nil {
				b.Fatal(err)
			}
			app.Start = at
			at += 3 * time.Second
			apps[k] = app
		}
		for pi, period := range periods {
			prov, err := topology.NewProvider(topology.EC22013(), seed)
			if err != nil {
				b.Fatal(err)
			}
			vms, err := prov.AllocateVMs(10)
			if err != nil {
				b.Fatal(err)
			}
			c, err := core.New(netsim.New(prov), vms, rand.New(rand.NewSource(seed+1)), core.Options{Model: place.Hose})
			if err != nil {
				b.Fatal(err)
			}
			res, err := c.RunSequence(apps, core.AlgChoreo, core.SequenceOptions{
				Remeasure:       true,
				ReevaluateEvery: period,
				MigrationGain:   0.15,
			})
			if err != nil {
				b.Fatal(err)
			}
			totals[pi] += res.TotalRunning.Seconds()
		}
	}
	if totals[0] > 0 {
		b.ReportMetric(totals[1]/totals[0], "T5s/no-migration")
		b.ReportMetric(totals[2]/totals[0], "T15s/no-migration")
	}
}

// ------------------------------------------------------ micro-benchmarks

// BenchmarkMaxMinAllocation measures the simulator's allocator, the inner
// loop of every experiment.
func BenchmarkMaxMinAllocation(b *testing.B) {
	prov, err := topology.NewProvider(topology.EC22013(), 1)
	if err != nil {
		b.Fatal(err)
	}
	vms, err := prov.AllocateVMs(10)
	if err != nil {
		b.Fatal(err)
	}
	net := netsim.New(prov)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 60; i++ {
		a := topology.VMID(rng.Intn(len(vms)))
		c := topology.VMID(rng.Intn(len(vms)))
		if a == c {
			continue
		}
		if _, err := net.StartFlow(a, c, netsim.Backlogged, "bench", nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// AvailableRate runs one filling pass over ~60 flows.
		if _, err := net.AvailableRate(0, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAllocate measures one what-if availability read over a stable
// population of 200 flows. AvailableRate runs the max-min filling pass
// allocate() runs over the active set and resolves the probe's rate
// alongside it, without starting or stopping a flow, so this times that
// filling loop, which the sweep engine's execution phase hammers, once
// per iteration.
func BenchmarkAllocate(b *testing.B) {
	prov, err := topology.NewProvider(topology.EC22013(), 1)
	if err != nil {
		b.Fatal(err)
	}
	vms, err := prov.AllocateVMs(16)
	if err != nil {
		b.Fatal(err)
	}
	net := netsim.New(prov)
	rng := rand.New(rand.NewSource(7))
	started := 0
	for started < 200 {
		a := topology.VMID(rng.Intn(len(vms)))
		c := topology.VMID(rng.Intn(len(vms)))
		if a == c {
			continue
		}
		if _, err := net.StartFlow(a, c, netsim.Backlogged, "bench", nil); err != nil {
			b.Fatal(err)
		}
		started++
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := net.AvailableRate(0, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPacketTrain measures one simulated train end to end.
func BenchmarkPacketTrain(b *testing.B) {
	prov, err := topology.NewProvider(topology.EC22013(), 1)
	if err != nil {
		b.Fatal(err)
	}
	vms, err := prov.AllocateVMs(10)
	if err != nil {
		b.Fatal(err)
	}
	m := packetsim.NewMedium(netsim.New(prov), rand.New(rand.NewSource(3)))
	cfg := probe.DefaultEC2()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		obs, err := m.RunTrain(vms[0].ID, vms[1].ID, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := obs.EstimateThroughput(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMeasureMesh measures the full-mesh packet-train measurement
// of a 10-VM tenant — the 90-pair "under three minutes" mesh of §4.1,
// and the expensive half of every sweep cell build. Path states for the
// whole mesh are snapshotted in one batched pass (netsim's
// BatchAvailabilityRefs reads uncontended pairs off their routes' idle
// rates and resolves contended ones in one what-if filling pass),
// so this pins the mesh-measurement hot path the ROADMAP named.
func BenchmarkMeasureMesh(b *testing.B) {
	prov, err := topology.NewProvider(topology.EC22013(), 1)
	if err != nil {
		b.Fatal(err)
	}
	vms, err := prov.AllocateVMs(10)
	if err != nil {
		b.Fatal(err)
	}
	orch, err := core.New(netsim.New(prov), vms, rand.New(rand.NewSource(5)), core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := orch.MeasureEnvironment(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepGrid runs the default snapshot grid (192 scenarios over
// 64 unique cells) through the streaming engine on one worker. The
// custom metric is grid cells per second of wall-clock; perfbench's
// sweep_snapshot workload gates the same path on a larger grid.
func BenchmarkSweepGrid(b *testing.B) {
	cells := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := sweep.Default()
		n := 0
		opts := sweep.RunOptions{Workers: 1, Emit: func(sweep.Result) error { n++; return nil }}
		if _, err := sweep.RunStream(g, opts); err != nil {
			b.Fatal(err)
		}
		cells += n
	}
	b.StopTimer()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(cells)/sec, "cells/sec")
	}
}

// BenchmarkGreedyPlacement measures Algorithm 1 on a 10-task application.
func BenchmarkGreedyPlacement(b *testing.B) {
	app, env := benchApp(b, 999)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := place.Greedy(app, env, place.Hose); err != nil {
			b.Fatal(err)
		}
	}
}
