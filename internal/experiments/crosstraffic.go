package experiments

import (
	"fmt"
	"strings"
	"time"

	"choreo/internal/bulk"
	"choreo/internal/core"
	"choreo/internal/crosstraffic"
	"choreo/internal/netsim"
	"choreo/internal/profile"
	"choreo/internal/topology"
	"choreo/internal/units"
	"choreo/internal/workload"
)

// Fig4Point is one moment of the cross-traffic tracking series.
type Fig4Point struct {
	At        time.Duration
	Actual    int
	Estimated float64
}

// Fig4Result is the ns-2 reproduction of §3.2: actual vs estimated
// concurrent background connections over a 10-second foreground transfer.
type Fig4Result struct {
	Topology string
	Series   []Fig4Point
	// TrackingError is mean |estimated − actual| over the series, the
	// visual gap in Figure 4.
	TrackingError float64
	// FlooredAt is the minimum estimate observed (Figure 4(b)'s "smallest
	// estimated value is 10").
	FlooredAt float64
}

// Fig4a runs the simple topology (Figure 3(a)): ten sender-receiver pairs
// sharing one 1 Gbit/s cable, nine ON-OFF background sources with
// exponential µ = 5 s transitions, one 10 s foreground transfer sampled
// every 10 ms.
func Fig4a(cfg Config) (*Fig4Result, error) {
	profile := topology.Dumbbell(10, units.Gbps(1), units.Gbps(1))
	orch, err := core.NewSimulated(profile, cfg.Seed+41, 20, core.Options{})
	if err != nil {
		return nil, err
	}
	net, vms := orch.Network(), orch.VMs()
	rng := cfg.rng("fig4a")
	grp := netsim.NewOnOffGroup(net, rng)
	for i := 1; i < 10; i++ {
		src, err := grp.AddStartedOn(vms[i].ID, vms[i+10].ID, 5*time.Second, "bg")
		if err != nil {
			return nil, err
		}
		// Half the sources start OFF for a mixed initial state.
		if i%2 == 0 {
			src.Stop()
			grp.Add(vms[i].ID, vms[i+10].ID, 5*time.Second, "bg")
		}
	}
	return fig4run(net, grp, vms[0].ID, vms[10].ID, units.Gbps(1), "simple (Fig 3a)")
}

// Fig4b runs the cloud topology (Figure 3(b)): 1 Gbit/s edges into
// 10 Gbit/s rack uplinks, where the shared link only saturates beyond ten
// concurrent flows, flooring the estimate near ten.
func Fig4b(cfg Config) (*Fig4Result, error) {
	const hostsPerRack = 24
	profile := topology.TwoRack(hostsPerRack, units.Gbps(1), units.Gbps(10))
	orch, err := core.NewSimulated(profile, cfg.Seed+43, 2*hostsPerRack, core.Options{})
	if err != nil {
		return nil, err
	}
	net, vms := orch.Network(), orch.VMs()
	rng := cfg.rng("fig4b")
	grp := netsim.NewOnOffGroup(net, rng)
	for i := 1; i < hostsPerRack; i++ {
		if _, err := grp.AddStartedOn(vms[i].ID, vms[i+hostsPerRack].ID, 5*time.Second, "bg"); err != nil {
			return nil, err
		}
	}
	// The estimator uses the shared 10 Gbit/s link rate as c1 (§3.2 notes
	// the tenant can obtain the bottleneck rate by measurement).
	return fig4run(net, grp, vms[0].ID, vms[hostsPerRack].ID, units.Gbps(10), "cloud (Fig 3b)")
}

func fig4run(net *netsim.Network, grp *netsim.OnOffGroup, src, dst topology.VMID, pathRate units.Rate, name string) (*Fig4Result, error) {
	res := &Fig4Result{Topology: name, FlooredAt: 1e18}
	// Sample the actual ON count alongside the foreground throughput.
	var actuals []int
	net.ScheduleEvery(10*time.Millisecond, func() bool {
		actuals = append(actuals, grp.ActiveCount())
		return len(actuals) < 1000
	})
	meas, err := bulk.Measure(net, src, dst, bulk.Options{Duration: 10 * time.Second})
	if err != nil {
		return nil, err
	}
	pts, err := crosstraffic.Series(meas.Samples, pathRate)
	if err != nil {
		return nil, err
	}
	n := len(pts)
	if len(actuals) < n {
		n = len(actuals)
	}
	var absErr float64
	for i := 0; i < n; i++ {
		p := Fig4Point{At: pts[i].At, Actual: actuals[i], Estimated: pts[i].C}
		res.Series = append(res.Series, p)
		diff := p.Estimated - float64(p.Actual)
		if diff < 0 {
			diff = -diff
		}
		absErr += diff
		if p.Estimated < res.FlooredAt {
			res.FlooredAt = p.Estimated
		}
	}
	if n > 0 {
		res.TrackingError = absErr / float64(n)
	}
	grp.StopAll()
	return res, nil
}

// String prints a decimated series plus the tracking error.
func (r *Fig4Result) String() string {
	var b strings.Builder
	b.WriteString(header(fmt.Sprintf("Figure 4: cross-traffic estimation, %s topology", r.Topology)))
	rows := [][]string{{"t(s)", "actual", "estimated"}}
	for i, p := range r.Series {
		if i%50 != 0 {
			continue
		}
		rows = append(rows, []string{
			fmt.Sprintf("%.2f", p.At.Seconds()),
			fmt.Sprint(p.Actual),
			fmt.Sprintf("%.1f", p.Estimated),
		})
	}
	b.WriteString(table(rows))
	fmt.Fprintf(&b, "mean |estimated-actual| = %.2f connections; minimum estimate %.1f\n",
		r.TrackingError, r.FlooredAt)
	return b.String()
}

// Predictability evaluates the §2.1 claim on a synthetic three-week
// HP-Cloud-like hourly trace.
type PredictabilityResult struct {
	Evaluations []predEval
}

type predEval struct {
	Predictor string
	Median    float64
	Mean      float64
}

// Predictability runs both predictors over the synthetic trace.
func Predictability(cfg Config) (*PredictabilityResult, error) {
	rng := cfg.rng("text-predict")
	trace := workload.HourlyTrace(rng, 21*24, 1e9, 0.4, 0.05)
	res := &PredictabilityResult{}
	for _, p := range []profile.Predictor{profile.PrevHour{}, profile.TimeOfDay{}} {
		ev, err := profile.Evaluate(p, trace)
		if err != nil {
			return nil, err
		}
		res.Evaluations = append(res.Evaluations, predEval{
			Predictor: ev.Predictor,
			Median:    ev.Errors.Median,
			Mean:      ev.Errors.Mean,
		})
	}
	return res, nil
}

// String prints predictor errors.
func (r *PredictabilityResult) String() string {
	var b strings.Builder
	b.WriteString(header("§2.1/§6.1: hour-ahead byte-count predictability (3-week trace)"))
	rows := [][]string{{"predictor", "median-err%", "mean-err%"}}
	for _, e := range r.Evaluations {
		rows = append(rows, []string{e.Predictor,
			fmt.Sprintf("%.1f", e.Median*100), fmt.Sprintf("%.1f", e.Mean*100)})
	}
	b.WriteString(table(rows))
	return b.String()
}
