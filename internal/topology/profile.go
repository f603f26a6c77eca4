package topology

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"choreo/internal/units"
)

// Profile is the single source of truth for a simulated provider: fabric
// shape, VM placement behaviour, hose-model parameters, ambient congestion
// and the measurement-noise magnitudes that downstream packages
// (internal/packetsim, internal/bulk) consume. The concrete values are
// calibrated so that the measurement experiments reproduce the shapes the
// paper reports for each provider (internal/experiments' shape tests
// check them).
type Profile struct {
	// Name labels the profile in errors, reports and grid coordinates. It
	// is not a fabric identity: tworack-N and dumbbell-N leave out the
	// link capacities, and jellyfish-NxP the wiring seed, so two profiles
	// of one name can build different fabrics. Fabrics are therefore
	// shared by profile value (SharedFabric), never looked up by name.
	Name string

	// Fabric shape: either a regular multi-rooted tree (Cores + Stages,
	// built by BuildTree) or an arbitrary builder. When Build is non-nil
	// it wins and Cores/Stages are ignored — fat-tree and jellyfish
	// profiles construct fabrics BuildTree cannot express.
	Cores  int
	Stages []TreeSpec
	Build  func() (*Topology, error)

	// Same-host transfers bypass the network and the hose (the paper saw
	// ~4 Gbit/s on paths it concluded were intra-host).
	MemBusRate units.Rate
	MemBusRTT  time.Duration

	// StackRTT is the fixed endpoint overhead added to every networked
	// path's propagation RTT.
	StackRTT time.Duration

	// VM allocation.
	MaxVMsPerHost int
	SameHostProb  float64
	SameRackProb  float64

	// Hose model: per-VM egress rate draw and token-bucket burst capacity.
	HoseRate  func(rng *rand.Rand) units.Rate
	HoseBurst units.ByteSize

	// AmbientUtilization draws the static fraction of a link's capacity
	// consumed by other tenants. Nil means an idle fabric.
	AmbientUtilization func(rng *rand.Rand, l Link, t *Topology) float64

	// Measurement-noise calibration.
	//
	// EpochNoiseStd: relative std-dev between what a sub-second packet
	// train sees and what a 10 s bulk transfer sees on the same path
	// (virtualization scheduling and neighbour burstiness).
	// BurstJitter: std-dev of receiver timestamp error per burst.
	// SampleNoiseStd: relative std-dev of one 10 s bulk sample around the
	// path's sustained rate (drives Figure 7 temporal stability).
	EpochNoiseStd  float64
	BurstJitter    time.Duration
	SampleNoiseStd float64

	// QueueCapacity bounds the per-link buffer seen by probe bursts.
	QueueCapacity units.ByteSize

	// TracerouteMask maps real hop counts to what the provider's
	// traceroute exposes. Nil exposes real hop counts.
	TracerouteMask func(hops int) int
}

// buildFabric builds the profile's fabric: Build when set, else the
// regular tree of Cores and Stages.
func (p Profile) buildFabric() (*Topology, error) {
	if p.Build != nil {
		return p.Build()
	}
	return BuildTree(p.Cores, p.Stages)
}

// SharedFabric returns the profile with its fabric built once: the first
// provider of the returned profile (or of any copy of it) builds the
// fabric, and every later one shares that *Topology, from any goroutine.
// A fabric depends only on the profile — per-cloud randomness (VM
// placement, hoses, ambient load) comes from the provider seed — so the
// shared fabric is the one every rebuild would have produced.
func (p Profile) SharedFabric() Profile {
	p.Build = sync.OnceValues(p.buildFabric)
	return p
}

func (p Profile) validate() error {
	if p.Build == nil {
		if p.Cores < 1 {
			return fmt.Errorf("topology: profile %q: cores %d < 1", p.Name, p.Cores)
		}
		if len(p.Stages) == 0 {
			return fmt.Errorf("topology: profile %q: no stages", p.Name)
		}
	}
	if p.MaxVMsPerHost < 1 {
		return fmt.Errorf("topology: profile %q: MaxVMsPerHost %d < 1", p.Name, p.MaxVMsPerHost)
	}
	if p.HoseRate == nil {
		return fmt.Errorf("topology: profile %q: nil HoseRate", p.Name)
	}
	return nil
}

// EC22013 models Amazon EC2 as measured in May 2013 (paper Figure 2(a)):
// most paths between 900 and 1100 Mbit/s with knees near 950 and 1100, a
// low tail down to ~300 Mbit/s, roughly 1% of pairs on the same physical
// machine near 4 Gbit/s, and hop counts in {1,2,4,6,8}.
func EC22013() Profile {
	return Profile{
		Name:  "ec2-2013",
		Cores: 2,
		Stages: []TreeSpec{
			{Kind: KindSpine, Fanout: 4, Capacity: units.Gbps(40), Latency: 60 * time.Microsecond},
			{Kind: KindAgg, Fanout: 2, Capacity: units.Gbps(20), Latency: 40 * time.Microsecond},
			{Kind: KindToR, Fanout: 2, Capacity: units.Gbps(10), Latency: 20 * time.Microsecond},
			{Kind: KindHost, Fanout: 4, Capacity: units.Gbps(10), Latency: 10 * time.Microsecond},
		},
		MemBusRate:    units.Gbps(4),
		MemBusRTT:     40 * time.Microsecond,
		StackRTT:      120 * time.Microsecond,
		MaxVMsPerHost: 2,
		SameHostProb:  0.006,
		SameRackProb:  0.25,
		HoseRate: func(rng *rand.Rand) units.Rate {
			// Two-knee mixture: ~60% around 950 Mbit/s, ~25% around
			// 1100 Mbit/s, a low tail, and ~1.5% unthrottled instances.
			switch f := rng.Float64(); {
			case f < 0.64:
				return units.Mbps(clamp(950+35*rng.NormFloat64(), 870, 1040))
			case f < 0.92:
				return units.Mbps(clamp(1080+20*rng.NormFloat64(), 1030, 1130))
			case f < 0.997:
				return units.Mbps(450 + 450*rng.Float64())
			default:
				return units.Mbps(3800 + 500*rng.Float64())
			}
		},
		HoseBurst: 8 * units.Kilobyte,
		AmbientUtilization: func(rng *rand.Rand, l Link, t *Topology) float64 {
			// Aggregate/spine links carry other tenants; a modest fraction
			// are busy enough to notice. Edge links are the tenant's own.
			from := t.Nodes[l.From]
			to := t.Nodes[l.To]
			if from.Kind == KindHost || to.Kind == KindHost {
				return 0
			}
			if rng.Float64() < 0.12 {
				return 0.3 + 0.4*rng.Float64()
			}
			return 0.05 * rng.Float64()
		},
		EpochNoiseStd:  0.085,
		BurstJitter:    60 * time.Microsecond,
		SampleNoiseStd: 0.0045,
		QueueCapacity:  192 * units.Kilobyte,
	}
}

// EC22012 models the far more variable EC2 of May 2012 (paper Figure 1):
// path throughputs from ~100 Mbit/s to ~1 Gbit/s with strong availability-
// zone differences. Zone is selected by the caller via the ZoneShift knob:
// the paper's four us-east-1 zones are reproduced by four providers with
// shifts 0..3.
func EC22012(zone int) Profile {
	p := EC22013()
	p.Name = fmt.Sprintf("ec2-2012-zone-%c", 'a'+rune(zone%4))
	// 2012-era hose: wide spread, zone-dependent centre.
	centre := []float64{420, 560, 700, 840}[zone%4]
	p.HoseRate = func(rng *rand.Rand) units.Rate {
		v := centre + 260*rng.NormFloat64()
		return units.Mbps(clamp(v, 90, 990))
	}
	// Congestion was broader in 2012.
	p.AmbientUtilization = func(rng *rand.Rand, l Link, t *Topology) float64 {
		from := t.Nodes[l.From]
		to := t.Nodes[l.To]
		if from.Kind == KindHost || to.Kind == KindHost {
			return 0
		}
		if rng.Float64() < 0.35 {
			return 0.2 + 0.5*rng.Float64()
		}
		return 0.1 * rng.Float64()
	}
	p.EpochNoiseStd = 0.12
	p.SampleNoiseStd = 0.02
	return p
}

// Rackspace models the Rackspace 8 GB instances of paper Figure 2(b):
// every path throttled to ~300 Mbit/s by a source hose with a generous
// token bucket (which is why only bursts of ≥2000 packets measure it
// accurately, Figure 6(b)), traceroute exposing only hop counts {1,4}.
func Rackspace() Profile {
	return Profile{
		Name:  "rackspace",
		Cores: 2,
		Stages: []TreeSpec{
			{Kind: KindAgg, Fanout: 4, Capacity: units.Gbps(20), Latency: 40 * time.Microsecond},
			{Kind: KindToR, Fanout: 4, Capacity: units.Gbps(10), Latency: 20 * time.Microsecond},
			{Kind: KindHost, Fanout: 4, Capacity: units.Gbps(10), Latency: 10 * time.Microsecond},
		},
		MemBusRate:    units.Gbps(4),
		MemBusRTT:     40 * time.Microsecond,
		StackRTT:      150 * time.Microsecond,
		MaxVMsPerHost: 2,
		SameHostProb:  0.002,
		SameRackProb:  0.10,
		HoseRate: func(rng *rand.Rand) units.Rate {
			// "almost exactly 300 Mbit/s" — the advertised rate.
			return units.Mbps(300 + 2*rng.NormFloat64())
		},
		HoseBurst:      200 * units.Kilobyte,
		EpochNoiseStd:  0.028,
		BurstJitter:    40 * time.Microsecond,
		SampleNoiseStd: 0.002,
		QueueCapacity:  256 * units.Kilobyte,
		TracerouteMask: func(hops int) int {
			if hops <= 1 {
				return 1
			}
			return 4
		},
	}
}

// PrivateCloud models a lightly managed enterprise fabric: no hose, so
// path rates are set by topology and congestion. Choreo's gains are
// largest on fabrics like this.
func PrivateCloud() Profile {
	return Profile{
		Name:  "private-cloud",
		Cores: 2,
		Stages: []TreeSpec{
			{Kind: KindAgg, Fanout: 4, Capacity: units.Gbps(10), Latency: 40 * time.Microsecond},
			{Kind: KindToR, Fanout: 4, Capacity: units.Gbps(10), Latency: 20 * time.Microsecond},
			{Kind: KindHost, Fanout: 4, Capacity: units.Gbps(1), Latency: 10 * time.Microsecond},
		},
		MemBusRate:    units.Gbps(8),
		MemBusRTT:     30 * time.Microsecond,
		StackRTT:      100 * time.Microsecond,
		MaxVMsPerHost: 4,
		SameHostProb:  0.05,
		SameRackProb:  0.30,
		HoseRate: func(rng *rand.Rand) units.Rate {
			return units.Gbps(10) // effectively un-hosed; NIC is the limit
		},
		HoseBurst: 1 * units.Megabyte,
		AmbientUtilization: func(rng *rand.Rand, l Link, t *Topology) float64 {
			from := t.Nodes[l.From]
			to := t.Nodes[l.To]
			if from.Kind == KindHost || to.Kind == KindHost {
				return 0
			}
			if rng.Float64() < 0.25 {
				return 0.3 + 0.5*rng.Float64()
			}
			return 0.1 * rng.Float64()
		},
		EpochNoiseStd:  0.05,
		BurstJitter:    50 * time.Microsecond,
		SampleNoiseStd: 0.01,
		QueueCapacity:  256 * units.Kilobyte,
	}
}

// Dumbbell builds the ns-2 topology of paper Figure 3(a): n sender hosts
// and n receiver hosts joined by a single bottleneck cable. Hosts connect
// to their side's switch at edgeCap; the two switches share one coreCap
// cable. VMs 0..n-1 land on the senders and n..2n-1 on the receivers when
// allocated in order (MaxVMsPerHost=1, placement is sequential).
func Dumbbell(n int, edgeCap, coreCap units.Rate) Profile {
	return Profile{
		Name:  fmt.Sprintf("dumbbell-%d", n),
		Cores: 1,
		Stages: []TreeSpec{
			{Kind: KindToR, Fanout: 2, Capacity: coreCap, Latency: 50 * time.Microsecond},
			{Kind: KindHost, Fanout: n, Capacity: edgeCap, Latency: 10 * time.Microsecond},
		},
		MemBusRate:    units.Gbps(8),
		MemBusRTT:     30 * time.Microsecond,
		StackRTT:      100 * time.Microsecond,
		MaxVMsPerHost: 1,
		HoseRate:      func(rng *rand.Rand) units.Rate { return units.Gbps(100) },
		HoseBurst:     1 * units.Megabyte,
		EpochNoiseStd: 0.0,
		BurstJitter:   0,
		QueueCapacity: 256 * units.Kilobyte,
	}
}

// TwoRack builds the ns-2 cloud topology of paper Figure 3(b): two racks
// of n hosts each, edge links at edgeCap (1 Gbit/s in the paper) and
// rack-to-aggregate links at aggCap (10 Gbit/s), so cross traffic only
// bites once more than aggCap/edgeCap flows share the uplink.
func TwoRack(n int, edgeCap, aggCap units.Rate) Profile {
	return Profile{
		Name:  fmt.Sprintf("tworack-%d", n),
		Cores: 1,
		Stages: []TreeSpec{
			{Kind: KindToR, Fanout: 2, Capacity: aggCap, Latency: 50 * time.Microsecond},
			{Kind: KindHost, Fanout: n, Capacity: edgeCap, Latency: 10 * time.Microsecond},
		},
		MemBusRate:    units.Gbps(8),
		MemBusRTT:     30 * time.Microsecond,
		StackRTT:      100 * time.Microsecond,
		MaxVMsPerHost: 1,
		HoseRate:      func(rng *rand.Rand) units.Rate { return units.Gbps(100) },
		HoseBurst:     1 * units.Megabyte,
		QueueCapacity: 256 * units.Kilobyte,
	}
}

// SequentialPlacement reports whether the profile expects AllocateVMs to
// fill hosts strictly in order (used by the ns-2 scenario profiles, where
// "VM i" must be "host i" for the figure's semantics).
func (p Profile) SequentialPlacement() bool {
	return p.SameHostProb == 0 && p.SameRackProb == 0 && p.MaxVMsPerHost == 1
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
