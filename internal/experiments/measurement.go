package experiments

import (
	"fmt"
	"strings"
	"time"

	"choreo/internal/bulk"
	"choreo/internal/core"
	"choreo/internal/netsim"
	"choreo/internal/packetsim"
	"choreo/internal/probe"
	"choreo/internal/stats"
	"choreo/internal/topology"
	"choreo/internal/units"
)

// Variant selects the provider under test for experiments that the paper
// ran on both clouds.
type Variant int

// Provider variants.
const (
	EC2Variant Variant = iota
	RackspaceVariant
)

func (v Variant) String() string {
	if v == RackspaceVariant {
		return "rackspace"
	}
	return "ec2"
}

func (v Variant) profile() topology.Profile {
	if v == RackspaceVariant {
		return topology.Rackspace()
	}
	return topology.EC22013()
}

// ---------------------------------------------------------------- Fig 1

// Fig1Result holds the per-zone throughput CDFs of EC2 circa May 2012.
type Fig1Result struct {
	Zones []stats.CDF
}

// Fig1 measures 90 paths in each of four 2012-era availability zones with
// netperf-equivalent transfers.
func Fig1(cfg Config) (*Fig1Result, error) {
	res := &Fig1Result{Zones: make([]stats.CDF, 4)}
	rng := cfg.rng("fig1")
	for zone := 0; zone < 4; zone++ {
		profile := topology.EC22012(zone)
		orch, err := core.NewSimulated(profile, cfg.Seed+int64(zone)+1, 10, core.Options{})
		if err != nil {
			return nil, err
		}
		net, vms := orch.Network(), orch.VMs()
		paths, err := net.Provider().AllPaths(vms)
		if err != nil {
			return nil, err
		}
		for _, p := range paths {
			r, err := bulk.QuickEstimate(net, p.Src, p.Dst, profile.SampleNoiseStd, rng)
			if err != nil {
				return nil, err
			}
			res.Zones[zone].Add(r.Mbps())
		}
	}
	return res, nil
}

// String prints one CDF block per zone.
func (r *Fig1Result) String() string {
	var b strings.Builder
	b.WriteString(header("Figure 1: EC2 May-2012 TCP throughput by zone (Mbit/s)"))
	for z := range r.Zones {
		b.WriteString(stats.FormatCDF(fmt.Sprintf("us-east-1%c", 'a'+z), &r.Zones[z], 12))
	}
	return b.String()
}

// ---------------------------------------------------------------- Fig 2

// Fig2Result is a spatial-variation CDF plus the headline statistics the
// paper quotes for it.
type Fig2Result struct {
	Variant  Variant
	CDF      stats.CDF
	Paths    int
	InBand   float64 // fraction within 900-1100 Mbit/s (EC2) or 290-310 (Rackspace)
	HighEnd  int     // paths near 4 Gbit/s (same physical machine)
	Mean     float64
	Median   float64
	HopPaths []HopSample // retained for Figure 8
}

// HopSample pairs a path's hop count with its measured bandwidth.
type HopSample struct {
	Hops int
	Mbps float64
}

// Fig2a measures 19 ten-VM EC2-2013 topologies (1710 directed paths).
func Fig2a(cfg Config) (*Fig2Result, error) {
	return fig2(cfg, EC2Variant, cfg.runs(19, 4))
}

// Fig2b measures 4 ten-VM Rackspace topologies (360 directed paths).
func Fig2b(cfg Config) (*Fig2Result, error) {
	return fig2(cfg, RackspaceVariant, cfg.runs(4, 2))
}

func fig2(cfg Config, v Variant, topologies int) (*Fig2Result, error) {
	res := &Fig2Result{Variant: v}
	rng := cfg.rng("fig2" + v.String())
	profile := v.profile()
	for t := 0; t < topologies; t++ {
		orch, err := core.NewSimulated(profile, cfg.Seed+int64(t)*97+11, 10, core.Options{})
		if err != nil {
			return nil, err
		}
		net, vms := orch.Network(), orch.VMs()
		paths, err := net.Provider().AllPaths(vms)
		if err != nil {
			return nil, err
		}
		for _, p := range paths {
			r, err := bulk.QuickEstimate(net, p.Src, p.Dst, profile.SampleNoiseStd, rng)
			if err != nil {
				return nil, err
			}
			m := r.Mbps()
			res.CDF.Add(m)
			res.Paths++
			res.HopPaths = append(res.HopPaths, HopSample{Hops: p.Hops, Mbps: m})
			if m >= 2000 {
				res.HighEnd++
			}
		}
	}
	lo, hi := 900.0, 1100.0
	if v == RackspaceVariant {
		lo, hi = 290, 310
	}
	res.InBand = res.CDF.FractionBetween(lo, hi)
	// Every topology adds one sample per directed path of its ten VMs, so
	// the CDF is non-empty and neither accessor can fail.
	res.Mean, _ = res.CDF.Mean()
	res.Median, _ = res.CDF.Median()
	return res, nil
}

// String prints the CDF and headline numbers.
func (r *Fig2Result) String() string {
	var b strings.Builder
	b.WriteString(header(fmt.Sprintf("Figure 2 (%s): TCP throughput CDF over %d paths", r.Variant, r.Paths)))
	fmt.Fprintf(&b, "mean %.0f Mbit/s  median %.0f Mbit/s  in-band %.0f%%  >2Gbit/s paths %d\n",
		r.Mean, r.Median, r.InBand*100, r.HighEnd)
	b.WriteString(stats.FormatCDF("throughput (Mbit/s)", &r.CDF, 16))
	return b.String()
}

// ---------------------------------------------------------------- Fig 6

// Fig6Cell is one (burst length, burst count) error measurement.
type Fig6Cell struct {
	BurstLength int
	Bursts      int
	MeanError   float64
}

// Fig6Result is the packet-train calibration sweep.
type Fig6Result struct {
	Variant Variant
	Cells   []Fig6Cell
}

// Fig6 sweeps burst lengths and counts against netperf ground truth on 90
// paths, as in §4.1 (packet size 1472, δ = 1 ms).
func Fig6(cfg Config, v Variant) (*Fig6Result, error) {
	burstLengths := []int{200, 500, 1000, 2000, 3000, 4000}
	burstCounts := []int{10, 20, 50}
	if cfg.Quick {
		burstLengths = []int{200, 2000}
		burstCounts = []int{10}
	}
	profile := v.profile()
	orch, err := core.NewSimulated(profile, cfg.Seed+5, 10, core.Options{})
	if err != nil {
		return nil, err
	}
	net, vms := orch.Network(), orch.VMs()
	paths, err := net.Provider().AllPaths(vms)
	if err != nil {
		return nil, err
	}
	rng := cfg.rng("fig6" + v.String())
	medium := packetsim.NewMedium(net, rng)
	res := &Fig6Result{Variant: v}
	for _, k := range burstCounts {
		for _, bl := range burstLengths {
			tcfg := probe.Config{
				PacketSize: 1472, Bursts: k, BurstLength: bl,
				Gap: time.Millisecond, MSS: 1460,
			}
			var errs []float64
			for _, p := range paths {
				truth, err := bulk.QuickEstimate(net, p.Src, p.Dst, profile.SampleNoiseStd, rng)
				if err != nil {
					return nil, err
				}
				obs, err := medium.RunTrain(p.Src, p.Dst, tcfg)
				if err != nil {
					return nil, err
				}
				est, err := obs.EstimateThroughput()
				if err != nil {
					continue
				}
				errs = append(errs, stats.RelativeError(float64(est), float64(truth)))
			}
			res.Cells = append(res.Cells, Fig6Cell{
				BurstLength: bl, Bursts: k, MeanError: stats.Mean(errs),
			})
		}
	}
	return res, nil
}

// Cell returns the measurement for a configuration, if present.
func (r *Fig6Result) Cell(burstLength, bursts int) (Fig6Cell, bool) {
	for _, c := range r.Cells {
		if c.BurstLength == burstLength && c.Bursts == bursts {
			return c, true
		}
	}
	return Fig6Cell{}, false
}

// String prints the error table.
func (r *Fig6Result) String() string {
	var b strings.Builder
	b.WriteString(header(fmt.Sprintf("Figure 6 (%s): packet-train %% error vs burst length", r.Variant)))
	rows := [][]string{{"bursts", "burst-len", "mean-error%"}}
	for _, c := range r.Cells {
		rows = append(rows, []string{
			fmt.Sprint(c.Bursts), fmt.Sprint(c.BurstLength),
			fmt.Sprintf("%.1f", c.MeanError*100),
		})
	}
	b.WriteString(table(rows))
	return b.String()
}

// ---------------------------------------------------------------- Fig 7

// Fig7Result holds temporal-stability error CDFs per lag τ.
type Fig7Result struct {
	Variant Variant
	Taus    []time.Duration
	CDFs    []stats.CDF // percent error, aligned with Taus
	Paths   int
}

// Fig7 samples every path's bulk throughput every 10 s for 30 minutes and
// asks how well a measurement from τ minutes ago predicts the current one.
func Fig7(cfg Config, v Variant) (*Fig7Result, error) {
	profile := v.profile()
	topologies := cfg.runs(3, 1)
	if v == RackspaceVariant {
		topologies = 1
	}
	res := &Fig7Result{
		Variant: v,
		Taus:    []time.Duration{1 * time.Minute, 5 * time.Minute, 10 * time.Minute, 30 * time.Minute},
	}
	res.CDFs = make([]stats.CDF, len(res.Taus))
	rng := cfg.rng("fig7" + v.String())

	duration := 30 * time.Minute
	step := 10 * time.Second
	if cfg.Quick {
		duration = 10 * time.Minute
	}
	for t := 0; t < topologies; t++ {
		orch, err := core.NewSimulated(profile, cfg.Seed+int64(t)*131+17, 10, core.Options{})
		if err != nil {
			return nil, err
		}
		net, vms := orch.Network(), orch.VMs()
		// Low-intensity other-tenant churn (the paper found little).
		bg, err := net.Provider().AllocateVMs(6)
		if err != nil {
			return nil, err
		}
		grp := netsim.NewOnOffGroup(net, rng)
		for i := 0; i+1 < len(bg); i += 2 {
			grp.Add(bg[i].ID, bg[i+1].ID, 2*time.Minute, "tenant-churn")
		}
		paths, err := net.Provider().AllPaths(vms)
		if err != nil {
			return nil, err
		}
		res.Paths += len(paths)
		series := make([][]float64, len(paths))
		for now := time.Duration(0); now <= duration; now += step {
			net.Run(now)
			for pi, p := range paths {
				r, err := bulk.QuickEstimate(net, p.Src, p.Dst, profile.SampleNoiseStd, rng)
				if err != nil {
					return nil, err
				}
				series[pi] = append(series[pi], r.Mbps())
			}
		}
		for ti, tau := range res.Taus {
			lag := int(tau / step)
			for _, s := range series {
				for i := lag; i < len(s); i++ {
					if s[i] > 0 {
						res.CDFs[ti].Add(stats.RelativeError(s[i-lag], s[i]) * 100)
					}
				}
			}
		}
	}
	return res, nil
}

// String prints one CDF per τ plus headline percentiles.
func (r *Fig7Result) String() string {
	var b strings.Builder
	b.WriteString(header(fmt.Sprintf("Figure 7 (%s): %% error predicting current bandwidth from τ ago (%d paths)", r.Variant, r.Paths)))
	for i, tau := range r.Taus {
		// A lag longer than the series has no samples; say so rather than
		// print zeros that read as perfect stability.
		if r.CDFs[i].Len() == 0 {
			fmt.Fprintf(&b, "tau=%-4s  n/a (0 samples)\n", tau)
			continue
		}
		med, _ := r.CDFs[i].Median()
		p95, _ := r.CDFs[i].Percentile(95)
		mean, _ := r.CDFs[i].Mean()
		fmt.Fprintf(&b, "tau=%-4s  median=%.2f%%  mean=%.2f%%  p95=%.2f%%\n",
			tau, med, mean, p95)
	}
	return b.String()
}

// ---------------------------------------------------------------- Fig 8

// Fig8Result is the path-length vs bandwidth scatter.
type Fig8Result struct {
	Samples []HopSample
	// ByHops summarizes bandwidth per hop count.
	ByHops map[int]stats.Summary
	// Correlation is Pearson's r between hops and bandwidth.
	Correlation float64
}

// Fig8 reuses the Figure 2(a) paths, pairing each path's traceroute hop
// count with its measured bandwidth.
func Fig8(cfg Config) (*Fig8Result, error) {
	f2, err := Fig2a(cfg)
	if err != nil {
		return nil, err
	}
	res := &Fig8Result{Samples: f2.HopPaths, ByHops: map[int]stats.Summary{}}
	perHop := map[int][]float64{}
	var hops, rates []float64
	for _, s := range f2.HopPaths {
		perHop[s.Hops] = append(perHop[s.Hops], s.Mbps)
		hops = append(hops, float64(s.Hops))
		rates = append(rates, s.Mbps)
	}
	for h, vals := range perHop {
		sum, err := stats.Summarize(vals)
		if err != nil {
			return nil, err
		}
		res.ByHops[h] = sum
	}
	res.Correlation = stats.Pearson(hops, rates)
	return res, nil
}

// String prints per-hop summaries.
func (r *Fig8Result) String() string {
	var b strings.Builder
	b.WriteString(header("Figure 8: path length vs bandwidth"))
	rows := [][]string{{"hops", "paths", "mean-Mbit/s", "median", "min", "max"}}
	for _, h := range []int{1, 2, 4, 6, 8} {
		s, ok := r.ByHops[h]
		if !ok {
			continue
		}
		rows = append(rows, []string{
			fmt.Sprint(h), fmt.Sprint(s.N),
			fmt.Sprintf("%.0f", s.Mean), fmt.Sprintf("%.0f", s.Median),
			fmt.Sprintf("%.0f", s.Min), fmt.Sprintf("%.0f", s.Max),
		})
	}
	b.WriteString(table(rows))
	fmt.Fprintf(&b, "hops-bandwidth correlation r = %.3f\n", r.Correlation)
	return b.String()
}

// ------------------------------------------------------------ text-train

// TrainAccuracyResult reports the §4.1 headline numbers.
type TrainAccuracyResult struct {
	EC2Error       float64 // 10 bursts x 200 packets
	RackspaceError float64 // 10 bursts x 2000 packets
	MeshPairs      int
	MeshElapsed    time.Duration
}

// TrainAccuracy measures the paper's chosen configurations and the cost
// of measuring a ten-VM mesh.
func TrainAccuracy(cfg Config) (*TrainAccuracyResult, error) {
	res := &TrainAccuracyResult{}
	ec2, err := Fig6(Config{Seed: cfg.Seed, Quick: true}, EC2Variant)
	if err != nil {
		return nil, err
	}
	if c, ok := ec2.Cell(200, 10); ok {
		res.EC2Error = c.MeanError
	}
	rs, err := Fig6(Config{Seed: cfg.Seed, Quick: true}, RackspaceVariant)
	if err != nil {
		return nil, err
	}
	if c, ok := rs.Cell(2000, 10); ok {
		res.RackspaceError = c.MeanError
	}

	orch, err := core.NewSimulated(topology.EC22013(), cfg.Seed+23, 10, core.Options{})
	if err != nil {
		return nil, err
	}
	net, vms := orch.Network(), orch.VMs()
	medium := packetsim.NewMedium(net, cfg.rng("text-train"))
	rates, elapsed, err := medium.MeasureMesh(vms, probe.DefaultEC2(), 1500*time.Millisecond)
	if err != nil {
		return nil, err
	}
	res.MeshPairs = len(rates)
	res.MeshElapsed = elapsed
	return res, nil
}

// String prints the headline accuracy and cost.
func (r *TrainAccuracyResult) String() string {
	var b strings.Builder
	b.WriteString(header("§4.1: packet-train accuracy and measurement cost"))
	fmt.Fprintf(&b, "EC2 10x200 mean error:        %.1f%% (paper: 9%%)\n", r.EC2Error*100)
	fmt.Fprintf(&b, "Rackspace 10x2000 mean error: %.1f%% (paper: 4%%)\n", r.RackspaceError*100)
	fmt.Fprintf(&b, "10-VM mesh (%d pairs):        %.1f s including orchestration (paper: <3 min)\n",
		r.MeshPairs, r.MeshElapsed.Seconds())
	return b.String()
}

// ------------------------------------------------------------- text-hose

// HoseFairShareResult verifies §3.2's fair-split observation.
type HoseFairShareResult struct {
	Single units.Rate
	Paired units.Rate
	Ratio  float64
}

// HoseFairShare measures one connection out of a VM, then the same
// connection with a second one from the same source.
func HoseFairShare(cfg Config) (*HoseFairShareResult, error) {
	orch, err := core.NewSimulated(topology.EC22013(), cfg.Seed+31, 10, core.Options{})
	if err != nil {
		return nil, err
	}
	net, vms := orch.Network(), orch.VMs()
	// Find three VMs on distinct hosts.
	hostSeen := map[topology.NodeID]bool{}
	var ids []topology.VMID
	for _, vm := range vms {
		if hostSeen[vm.Host] {
			continue
		}
		hostSeen[vm.Host] = true
		ids = append(ids, vm.ID)
		if len(ids) == 3 {
			break
		}
	}
	if len(ids) < 3 {
		return nil, fmt.Errorf("experiments: not enough distinct hosts")
	}
	single, err := net.AvailableRate(ids[0], ids[1])
	if err != nil {
		return nil, err
	}
	f, err := net.StartFlow(ids[0], ids[2], netsim.Backlogged, "bg", nil)
	if err != nil {
		return nil, err
	}
	paired, err := net.AvailableRate(ids[0], ids[1])
	net.StopFlow(f.ID)
	if err != nil {
		return nil, err
	}
	return &HoseFairShareResult{
		Single: single,
		Paired: paired,
		Ratio:  float64(paired) / float64(single),
	}, nil
}

// String prints the split.
func (r *HoseFairShareResult) String() string {
	var b strings.Builder
	b.WriteString(header("§3.2: adding a second same-source connection"))
	fmt.Fprintf(&b, "alone: %v   with second connection: %v   ratio %.2f (paper: ~0.5)\n",
		r.Single, r.Paired, r.Ratio)
	return b.String()
}
