// Package packetsim models the packet-granularity mechanics that Choreo's
// packet trains (internal/probe) experience on a simulated fabric: the
// source VM's token-bucket hose shaper, dispersion at the bottleneck's
// service share, finite-buffer tail drops, and receiver timestamp noise.
//
// The paper's key measurement phenomena all come out of these mechanics:
//
//   - On EC2, short bursts already measure well because the hose's token
//     bucket is small, so even 200-packet bursts run at the shaped rate
//     (Figure 6(a)); residual error is virtualization jitter.
//   - On Rackspace, the hose refills a generous bucket, so short bursts
//     pass at line rate and wildly overestimate the sustained 300 Mbit/s;
//     only bursts that drain the bucket (≥2000 packets) see the truth
//     (Figure 6(b)).
//   - On congested paths, bursts overrun the bottleneck queue and lose
//     tail packets, exercising the estimator's loss adjustments.
package packetsim

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"

	"choreo/internal/netsim"
	"choreo/internal/probe"
	"choreo/internal/topology"
	"choreo/internal/units"
)

// PathState is everything the burst model needs to know about a path at
// the moment a train crosses it.
type PathState struct {
	// SustainedShare is what a long TCP flow would get (hose included).
	SustainedShare units.Rate
	// PhysicalShare is the fabric-only share (hose excluded): the rate a
	// short burst is served at once it passes the shaper.
	PhysicalShare units.Rate
	// LineRate is the NIC/first-link raw speed at which back-to-back
	// packets leave the sender and the bottleneck queue drains.
	LineRate units.Rate
	// HoseRate and HoseBurst describe the source token bucket.
	HoseRate  units.Rate
	HoseBurst units.ByteSize
	// RTT is the propagation+stack round-trip time of the path.
	RTT time.Duration
	// QueueCapacity bounds the bottleneck buffer available to a burst.
	QueueCapacity units.ByteSize
	// EpochNoiseStd and BurstJitter are the provider's measurement noise
	// magnitudes (see topology.Profile).
	EpochNoiseStd float64
	BurstJitter   time.Duration
	// SameHost paths bypass the hose entirely.
	SameHost bool
}

// Medium runs simulated packet trains over a netsim Network. The static
// part of a pair's PathState — route RTT, hose parameters, provider
// noise profile — is read off the cloud's route, VM and profile; only
// the availability fields come from the network per snapshot.
type Medium struct {
	net *netsim.Network
	rng *rand.Rand
	// plan caches PairStates' routes for the last VM set measured, if
	// planned: mesh re-measurement sweeps the same VMs every epoch, so
	// after the first epoch a snapshot is one batched availability call
	// plus a state assembled per pair.
	plan    meshPlan
	planned bool
	// scratch backs RunTrainOnScratch observations; validCfg is the last
	// train config that passed validation there.
	scratch  []probe.BurstObservation
	validCfg probe.Config
}

// meshPlan is the cached skeleton of a PairStates snapshot, plus the
// reusable buffers a snapshot fills: the pairs' routes in mesh order,
// the availability scratch, and the PairState slice handed to callers.
type meshPlan struct {
	ids    []topology.VMID
	refs   []netsim.PairRef
	avs    []netsim.PathAvailability
	states []PairState
}

// NewMedium wraps a network; rng drives the measurement noise. It is
// Reset on a zero Medium.
func NewMedium(net *netsim.Network, rng *rand.Rand) *Medium {
	m := new(Medium)
	m.Reset(net, rng)
	return m
}

// Reset rebinds the medium to net and rng, as NewMedium does: the next
// PairStates plans its mesh afresh, on net's cloud. The plan and burst
// buffers are kept for that plan and later trains to fill.
func (m *Medium) Reset(net *netsim.Network, rng *rand.Rand) {
	m.net, m.rng, m.planned = net, rng, false
}

// StateOf snapshots the path between two VMs right now.
func (m *Medium) StateOf(src, dst topology.VMID) (PathState, error) {
	path, err := m.net.PairRefFor(src, dst)
	if err != nil {
		return PathState{}, err
	}
	av, err := m.net.Availability(src, dst)
	if err != nil {
		return PathState{}, err
	}
	return m.stateFrom(path, av), nil
}

// stateFrom assembles a PathState from a route and its availability.
func (m *Medium) stateFrom(path *topology.Path, av netsim.PathAvailability) PathState {
	vm := m.net.Provider().VM(path.Src)
	prof := &m.net.Provider().Profile
	return PathState{
		SustainedShare: av.Share,
		PhysicalShare:  av.PhysicalShare,
		LineRate:       av.LineRate,
		HoseRate:       vm.EgressRate,
		HoseBurst:      vm.EgressBurst,
		RTT:            path.RTT,
		QueueCapacity:  prof.QueueCapacity,
		EpochNoiseStd:  prof.EpochNoiseStd,
		BurstJitter:    prof.BurstJitter,
		SameHost:       path.SameHost,
	}
}

// PairState couples an ordered VM pair with its snapshotted path state.
type PairState struct {
	Pair  [2]topology.VMID
	State PathState
}

// PairStates snapshots every ordered pair among vms in one pass, in
// mesh-measurement order (outer loop over sources, inner over
// destinations), and returns them as a slice. The availability reads are
// batched (see netsim.BatchAvailabilityRefs): pairs whose resources no
// active flow touches — on the pristine pre-measurement cloud, all of
// them — read their routes' idle rates, and the rest are resolved
// together by netsim's what-if kernel in one max-min filling pass,
// without starting a probe flow. The routes are the cloud's own, built
// by AllocateVMs; the medium resolves them once per VM set. Mesh loops
// that visit pairs in exactly that order — MeasureMesh, the
// orchestrator's MeasureEnvironment — iterate the slice directly.
// States are bit-identical to per-pair StateOf calls.
//
// The returned slice is owned by the medium and reused: it is valid
// only until the next PairStates call. Snapshot-per-epoch loops consume
// it fully before re-measuring, which is exactly the lifetime it has.
func (m *Medium) PairStates(vms []topology.VM) ([]PairState, error) {
	plan, err := m.planFor(vms)
	if err != nil {
		return nil, err
	}
	m.net.BatchAvailabilityRefs(plan.refs, plan.avs)
	for i, ref := range plan.refs {
		plan.states[i] = PairState{Pair: [2]topology.VMID{ref.Src, ref.Dst}, State: m.stateFrom(ref, plan.avs[i])}
	}
	return plan.states, nil
}

// planFor returns the cached mesh plan for vms, rebuilding it into the
// plan's buffers when the VM set differs from the previous snapshot's.
func (m *Medium) planFor(vms []topology.VM) (*meshPlan, error) {
	p := &m.plan
	if m.planned && slices.EqualFunc(p.ids, vms, func(id topology.VMID, vm topology.VM) bool { return id == vm.ID }) {
		return p, nil
	}
	m.planned = false
	p.ids = p.ids[:0]
	for _, vm := range vms {
		p.ids = append(p.ids, vm.ID)
	}
	p.refs = p.refs[:0]
	for _, a := range vms {
		for _, b := range vms {
			if a.ID == b.ID {
				continue
			}
			ref, err := m.net.PairRefFor(a.ID, b.ID)
			if err != nil {
				return nil, err
			}
			p.refs = append(p.refs, ref)
		}
	}
	p.avs = slices.Grow(p.avs[:0], len(p.refs))[:len(p.refs)]
	p.states = slices.Grow(p.states[:0], len(p.refs))[:len(p.refs)]
	m.planned = true
	return p, nil
}

// RunTrainOnScratch runs one packet train over a previously snapshotted
// path state (see PairStates), drawing measurement noise from the
// medium's rng exactly as RunTrain would, and records into a burst
// buffer owned by the medium: the returned observation is only valid
// until the next RunTrainOnScratch call. Mesh measurement loops — one
// train per pair, observation discarded as soon as the estimator has
// read it — use this to keep the train path allocation-free; callers
// that retain observations must use RunTrain. The config is validated
// once and remembered, so the per-train cost is a single struct compare.
func (m *Medium) RunTrainOnScratch(state *PathState, cfg probe.Config) (probe.Observation, error) {
	if cfg != m.validCfg {
		if err := cfg.Validate(); err != nil {
			return probe.Observation{}, err
		}
		m.validCfg = cfg
	}
	obs := SimulateTrainInto(state, cfg, m.rng, m.scratch)
	m.scratch = obs.Bursts
	return obs, nil
}

// RunTrain sends one packet train from src to dst and returns the
// receiver-side observation for the probe estimator.
func (m *Medium) RunTrain(src, dst topology.VMID, cfg probe.Config) (probe.Observation, error) {
	if err := cfg.Validate(); err != nil {
		return probe.Observation{}, err
	}
	state, err := m.StateOf(src, dst)
	if err != nil {
		return probe.Observation{}, err
	}
	return SimulateTrain(state, cfg, m.rng), nil
}

// burstKernel is the deterministic outcome of one burst as a function of
// the token-bucket level it starts from: everything about the burst
// except the rng draws (tail-drop decision, receiver jitter), which stay
// per-burst. The token recursion
//
//	tokens' = clamp(tokens - B + hoseRate·(sendTime + gap))
//
// is piecewise affine in tokens, so it converges to a fixed point (or a
// short rounding cycle) after a handful of bursts; once it does, every
// remaining burst reuses the cached kernel and the steady-state tail
// costs O(1) arithmetic per burst instead of re-deriving the two-phase
// shaper, queue backlog and dispersion spans each time.
type burstKernel struct {
	tokensIn  float64 // bucket level this kernel was computed for
	tokensOut float64 // bucket level after the burst and the gap refill
	lostPkts  int     // queue-overflow drops (before the tail-drop draw)
	drawDrop  bool    // the original code draws rng.Float64() this burst
	pDrop     float64 // instantaneous drop probability for that draw
	delivered float64 // bytes that survive the queue
	recvBase  float64 // receiver span before tail-drop and jitter
	minSpan   float64 // floor the jittered span clamps to
}

// SimulateTrain runs the packet-train mechanics against a fixed path
// state. It is exported separately from Medium so experiments can probe
// synthetic states directly.
//
// The implementation is the closed-form fast path described on
// burstKernel: the deterministic per-burst arithmetic is computed once
// per distinct token level (a two-entry cache covers fixed points and
// period-2 rounding cycles), while the rng draws are performed in the
// exact per-burst sequence of the original burst-by-burst loop, so
// observations — and the rng cursor — are bit-identical to it. The
// reference implementation survives as simulateTrainReference in the
// test package, with a fuzz suite asserting exactly that equivalence.
func SimulateTrain(state PathState, cfg probe.Config, rng *rand.Rand) probe.Observation {
	return SimulateTrainInto(&state, cfg, rng, make([]probe.BurstObservation, 0, cfg.Bursts))
}

// SimulateTrainInto is SimulateTrain recording bursts into the caller's
// buffer (reused from index zero, grown as needed) — the allocation-free
// path for mesh loops that discard each observation after feeding the
// estimator. The returned observation aliases the buffer; state is read,
// never written.
func SimulateTrainInto(state *PathState, cfg probe.Config, rng *rand.Rand, buf []probe.BurstObservation) probe.Observation {
	if cap(buf) < cfg.Bursts {
		buf = make([]probe.BurstObservation, cfg.Bursts)
	}
	obs := probe.Observation{
		Config: cfg,
		RTT:    state.RTT,
		Bursts: buf[:cfg.Bursts],
	}

	// One train samples the path for well under a second, while the
	// ground-truth netperf averages ten seconds; the per-train epoch
	// factor models the path state drift between the two (virtualization
	// scheduling, neighbour burstiness). It scales the service rates the
	// burst experiences and cannot be averaged away within the train.
	epoch := 1.0
	if state.EpochNoiseStd > 0 {
		epoch = 1 + rng.NormFloat64()*state.EpochNoiseStd
		epoch = math.Max(epoch, 0.3)
	}

	line := float64(state.LineRate) / 8 // bytes/sec
	// The epoch factor perturbs both the shaper's effective drain rate and
	// the fabric share: on EC2 the shaper is the bottleneck, so this is
	// where the irreducible train-vs-netperf error lives.
	hoseRate := float64(state.HoseRate) / 8 * epoch
	svc := float64(state.PhysicalShare) / 8 * epoch
	if svc > line {
		svc = line
	}
	if svc <= 0 {
		svc = 1 // pathological; keep the math finite
	}
	if hoseRate >= line {
		hoseRate = line
	}

	pkt := float64(cfg.PacketSize)
	burstBytes := pkt * float64(cfg.BurstLength)
	tokens := float64(state.HoseBurst)
	bucket := float64(state.HoseBurst)
	unshaped := state.SameHost || hoseRate >= line
	gapRefill := hoseRate * cfg.Gap.Seconds()
	jitterSec := state.BurstJitter.Seconds()

	compute := func(tokens float64) burstKernel {
		k := burstKernel{tokensIn: tokens, delivered: burstBytes}
		var sendTime float64 // seconds for the burst to clear the shaper
		if unshaped {
			// No effective shaping; the bucket level is untouched by the
			// send and only sees the gap refill.
			sendTime = burstBytes / line
		} else {
			// Phase A: tokens drain at (line - hoseRate) while sending at
			// line rate. Phase B: send at the hose's sustained rate.
			fastBytes := burstBytes
			if tokens < burstBytes {
				// Bytes that can leave at line rate before the bucket runs
				// dry, counting the refill that happens meanwhile.
				fastBytes = tokens * line / (line - hoseRate)
				if fastBytes > burstBytes {
					fastBytes = burstBytes
				}
			}
			slowBytes := burstBytes - fastBytes
			sendTime = fastBytes/line + slowBytes/hoseRate
			tokens = tokens - burstBytes + hoseRate*sendTime
			if tokens < 0 {
				tokens = 0
			}
		}

		// The burst then crosses the fabric bottleneck at svc. If it
		// arrives faster than svc, a queue builds; once the buffer fills,
		// arrivals are dropped. Because the queue stays full while the
		// burst keeps arriving, drops interleave with acceptances through
		// the saturated period rather than truncating the burst cleanly;
		// only a short run at the very end is lost outright.
		arrivalRate := burstBytes / sendTime
		if arrivalRate > svc {
			backlog := burstBytes * (1 - svc/arrivalRate)
			if overflow := backlog - float64(state.QueueCapacity); overflow > 0 {
				k.lostPkts = int(overflow / pkt)
				if k.lostPkts >= cfg.BurstLength {
					k.lostPkts = cfg.BurstLength - 1
				}
				k.delivered = burstBytes - float64(k.lostPkts)*pkt
				// The final packet is dropped with the instantaneous drop
				// probability; consecutive end-of-burst drops are short.
				k.drawDrop = true
				k.pDrop = 1 - svc/arrivalRate
			}
		}
		k.recvBase = math.Max(sendTime, k.delivered/svc)
		k.minSpan = k.delivered / line

		// Refill tokens during the inter-burst gap.
		tokens += gapRefill
		if tokens > bucket {
			tokens = bucket
		}
		k.tokensOut = tokens
		return k
	}

	// Two cached kernels in MRU order: enough for the steady state to
	// collapse whether the token recursion lands on an exact fixed point
	// or a 2-cycle of rounding. Pointers, not copies — a hit must not
	// move the struct.
	var cells [2]burstKernel
	var p0, p1 *burstKernel
	jitter := state.BurstJitter > 0

	for i := 0; i < cfg.Bursts; i++ {
		var k *burstKernel
		switch {
		case p0 != nil && p0.tokensIn == tokens:
			k = p0
		case p1 != nil && p1.tokensIn == tokens:
			p0, p1 = p1, p0
			k = p0
		default:
			k = &cells[0]
			if p0 == &cells[0] {
				k = &cells[1]
			}
			*k = compute(tokens)
			p1, p0 = p0, k
		}

		tailLost := 0
		if k.drawDrop {
			if rng.Float64() < k.pDrop && k.lostPkts > 0 {
				tailLost = 1 + rng.Intn(3)
				if tailLost > k.lostPkts {
					tailLost = k.lostPkts
				}
			}
		}

		recvTime := k.recvBase
		if tailLost > 0 {
			// The last received packet predates the lost tail run.
			recvTime -= float64(tailLost) * pkt / svc
		}

		// Receiver timestamps carry jitter at both edges of the burst.
		if jitter {
			recvTime += rng.NormFloat64() * jitterSec * math.Sqrt2
			if recvTime < k.minSpan {
				recvTime = k.minSpan
			}
		}

		obs.Bursts[i] = probe.BurstObservation{
			Sent:     cfg.BurstLength,
			Received: cfg.BurstLength - k.lostPkts,
			TailLost: tailLost,
			Span:     units.Seconds(recvTime),
		}
		tokens = k.tokensOut
	}
	return obs
}

// MeasureMesh runs one train on every ordered VM pair and returns the
// estimated rate matrix. Estimates that fail (total loss) are reported as
// zero with the error noted. It also returns the simulated wall-clock cost
// of the measurement phase, assuming trains run sequentially plus a fixed
// per-pair coordination overhead — the paper reports "under three minutes"
// for 90 pairs including orchestration (§4.1).
func (m *Medium) MeasureMesh(vms []topology.VM, cfg probe.Config, perPairOverhead time.Duration) (map[[2]topology.VMID]units.Rate, time.Duration, error) {
	states, err := m.PairStates(vms)
	if err != nil {
		return nil, 0, err
	}
	rates := make(map[[2]topology.VMID]units.Rate, len(states))
	var elapsed time.Duration
	for i := range states {
		ps := &states[i]
		obs, err := m.RunTrainOnScratch(&ps.State, cfg)
		if err != nil {
			return nil, 0, fmt.Errorf("packetsim: train %d->%d: %w", ps.Pair[0], ps.Pair[1], err)
		}
		est, err := obs.EstimateThroughput()
		if err != nil {
			est = 0
		}
		rates[ps.Pair] = est
		elapsed += obs.Duration() + perPairOverhead
	}
	return rates, elapsed, nil
}
