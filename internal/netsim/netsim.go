// Package netsim is a flow-level datacenter network simulator. It allocates
// bandwidth to TCP-like flows with max-min fairness (progressive filling)
// over the links of a topology.Provider fabric, honouring each VM's
// hose-model egress limit and each link's ambient (other-tenant) load, and
// advances simulated time event-by-event as flows finish, timers fire, and
// ON-OFF background sources toggle.
//
// The simulator is Choreo's stand-in for "actually transferring data on
// EC2" (paper §6.1): placements are executed by starting one flow per task
// pair and running the event loop until the last byte drains.
package netsim

import (
	"container/heap"
	"fmt"
	"math"
	"time"

	"choreo/internal/topology"
	"choreo/internal/units"
)

// FlowID identifies a flow within one Network.
type FlowID int64

// Backlogged marks a flow with no byte limit; it runs until stopped.
const Backlogged units.ByteSize = -1

// Flow is one TCP-like transfer between two VMs.
type Flow struct {
	ID   FlowID
	Src  topology.VMID
	Dst  topology.VMID
	Tag  string
	Path *topology.Path

	// Rate is the current max-min allocation. Valid after the Network has
	// (re)allocated, i.e. whenever the caller observes the flow between
	// events.
	Rate units.Rate

	// remaining bytes; <0 means backlogged.
	remaining float64
	// slots are the resource IDs the flow crosses: its path's Resources.
	slots    []int32
	started  time.Duration
	finished time.Duration
	done     bool
	onFinish func(*Flow)
}

// Remaining returns the bytes the flow still has to transfer, or
// Backlogged for an unbounded flow.
func (f *Flow) Remaining() units.ByteSize {
	if f.remaining < 0 {
		return Backlogged
	}
	return units.ByteSize(math.Ceil(f.remaining))
}

// Finished returns the simulation time the flow completed; zero if it has
// not.
func (f *Flow) Finished() time.Duration { return f.finished }

// timer is a scheduled callback.
type timer struct {
	at  time.Duration
	seq int64
	fn  func()
}

type timerHeap []*timer

func (h timerHeap) Len() int { return len(h) }
func (h timerHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h timerHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *timerHeap) Push(x interface{}) { *h = append(*h, x.(*timer)) }
func (h *timerHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// Network simulates one provider fabric with a set of active flows. A
// slot is a resource ID of the provider (a link, a host's memory bus or
// a VM's hose; see topology.Provider.Capacities), and a flow's slots are
// its route's Resources, so a Network builds nothing per pair: it keeps
// only per-resource scratch for the filling pass. Many Networks may run
// on one cloud at once; none writes to the provider.
//
// Reset empties a Network and rebinds it to a cloud, keeping its scratch
// (slots, flow slab, lists and maps) for the next run, so a caller that
// runs many simulations one after another allocates that scratch once.
type Network struct {
	prov *topology.Provider

	flows  map[FlowID]*Flow
	active []*Flow // in FlowID order: StartFlow appends, removals keep order
	nextID FlowID
	// slab holds the flows in chunks of flowChunk, flow i at
	// slab[i/flowChunk][i%flowChunk]: FlowIDs count from zero after each
	// Reset, so the next ID is the next free slab entry. Chunks are never
	// moved, so a *Flow stays valid until the next Reset.
	slab [][]Flow

	now    time.Duration
	timers timerHeap
	seq    int64

	dirty bool

	// slotCap is the provider's capacity table and slots the scratch of
	// one filling pass, both indexed by resource ID. The scratch is
	// epoch-stamped, so only the slots the active set touches are reset.
	slotCap   []float64
	slots     []slot
	slotEpoch int64
	touched   []int32
	frozen    []bool
	probes    []whatIf // BatchAvailabilityRefs' probe list, reused
	finished  []*Flow  // reapFinished's list, reused
}

// slot is one resource's state in a filling pass: its remaining
// capacity, the count of unfrozen flows crossing it, its position in
// touched and the epoch that last stamped it.
type slot struct {
	rem   float64
	seen  int64
	alive int32
	pos   int32
}

// flowChunk is the number of flows in one slab chunk.
const flowChunk = 64

// New creates a simulator over the provider's fabric and VMs: Reset on
// a zero Network.
func New(prov *topology.Provider) *Network {
	n := new(Network)
	n.Reset(prov)
	return n
}

// Reset empties the network and rebinds it to prov: no flows, no
// timers, time zero and FlowIDs counting from zero again, exactly the
// state New(prov) returns, so every run after a Reset is bit-identical
// to one on a new Network. The scratch is kept and grown when prov has
// more resources than it covers. Every *Flow the network handed out is
// invalid afterwards.
func (n *Network) Reset(prov *topology.Provider) {
	for c := 0; FlowID(c*flowChunk) < n.nextID; c++ {
		clear(n.slab[c][:min(flowChunk, n.nextID-FlowID(c*flowChunk))])
	}
	if n.flows == nil {
		n.flows = make(map[FlowID]*Flow)
	}
	clear(n.flows)
	clear(n.active)
	clear(n.timers)
	*n = Network{
		prov:      prov,
		flows:     n.flows,
		active:    n.active[:0],
		slab:      n.slab,
		timers:    n.timers[:0],
		slots:     n.slots,
		slotEpoch: n.slotEpoch,
		touched:   n.touched,
		frozen:    n.frozen,
		probes:    n.probes,
		finished:  n.finished,
	}
	n.fitSlots(prov.Capacities())
}

// fitSlots sizes the slot scratch to the capacity table caps. The epoch
// only grows, so slots left over from earlier passes, on this cloud or
// another, carry older stamps and read as untouched.
func (n *Network) fitSlots(caps []float64) {
	n.slotCap = caps
	if len(caps) > cap(n.slots) {
		n.slots = append(n.slots[:cap(n.slots)], make([]slot, len(caps)-cap(n.slots))...)
	}
	n.slots = n.slots[:len(caps)]
}

// pathFor returns the route from src to dst. A provider that allocated
// VMs after the network was built has more resources than the scratch
// covers, so the lookup grows it first.
func (n *Network) pathFor(src, dst topology.VMID) (*topology.Path, error) {
	path, err := n.prov.Path(src, dst)
	if err != nil {
		return nil, err
	}
	if caps := n.prov.Capacities(); len(caps) != len(n.slotCap) {
		n.fitSlots(caps)
	}
	return path, nil
}

// newFlow returns the slab entry of the next FlowID.
func (n *Network) newFlow() *Flow {
	c := int(n.nextID / flowChunk)
	if c == len(n.slab) {
		n.slab = append(n.slab, make([]Flow, flowChunk))
	}
	return &n.slab[c][n.nextID%flowChunk]
}

// Provider returns the underlying provider.
func (n *Network) Provider() *topology.Provider { return n.prov }

// Now returns the current simulation time.
func (n *Network) Now() time.Duration { return n.now }

// ActiveFlows returns the number of currently running flows.
func (n *Network) ActiveFlows() int { return len(n.active) }

// StartFlow begins a transfer of the given size from src to dst. A size of
// Backlogged (or any negative value) runs until StopFlow. onFinish, if
// non-nil, is invoked from the event loop when the last byte drains.
// The returned flow is valid until the network's next Reset.
func (n *Network) StartFlow(src, dst topology.VMID, size units.ByteSize, tag string, onFinish func(*Flow)) (*Flow, error) {
	if src == dst {
		return nil, fmt.Errorf("netsim: flow from %d to itself", src)
	}
	path, err := n.pathFor(src, dst)
	if err != nil {
		return nil, err
	}
	f := n.newFlow()
	*f = Flow{
		ID:       n.nextID,
		Src:      src,
		Dst:      dst,
		Tag:      tag,
		Path:     path,
		slots:    path.Resources,
		started:  n.now,
		onFinish: onFinish,
	}
	n.nextID++
	if size < 0 {
		f.remaining = -1
	} else {
		f.remaining = float64(size)
	}
	n.flows[f.ID] = f
	n.active = append(n.active, f)
	n.dirty = true
	return f, nil
}

// StopFlow removes a flow (finished or not). Stopping an unknown or
// already-finished flow is a no-op.
func (n *Network) StopFlow(id FlowID) {
	f, ok := n.flows[id]
	if !ok {
		return
	}
	delete(n.flows, id)
	if !f.done {
		for i, g := range n.active {
			if g.ID == id {
				n.active = append(n.active[:i], n.active[i+1:]...)
				break
			}
		}
		n.dirty = true
	}
}

// allocate computes max-min fair rates for all active flows via
// progressive filling: repeatedly find the constraint with the smallest
// fair share, freeze its flows at that share, and remove their demand.
func (n *Network) allocate() {
	n.stamp()
	n.fill(nil)
}

// stamp records the active set's slot demand for one filling pass. Only
// the slots the active set touches are reset (epoch-stamped): each gets
// its full capacity, its count of crossing flows and its position in
// touched, which lists the slots in first-encounter order over the
// active flows. That order, never the slot number, breaks ties.
func (n *Network) stamp() {
	n.slotEpoch++
	epoch := n.slotEpoch
	touched := n.touched[:0]
	for _, f := range n.active {
		for _, si := range f.slots {
			sl := &n.slots[si]
			if sl.seen != epoch {
				*sl = slot{rem: n.slotCap[si], seen: epoch, pos: int32(len(touched))}
				touched = append(touched, si)
			}
			sl.alive++
		}
	}
	n.touched = touched
}

// whatIf is one probe of the what-if kernel: a backlogged flow over
// slots, resolved to the rate it would get if it joined the active set.
type whatIf struct {
	slots []int32
	rate  float64
	done  bool
	out   int  // index of the pair the probe answers for
	phys  bool // the hose-less physical probe rather than the share probe
}

// fill runs progressive filling over the active set from a fresh stamp,
// setting every active flow's rate, and resolves each probe on the way.
//
// A probe is the what-if of one more backlogged flow appended last to the
// active set. Until the iteration that would freeze it, such a flow only
// raises the crossing counts of its own slots — it subtracts nothing — so
// the filling with the probe runs exactly the probe-less iterations, slot
// values included, up to that point. resolve spots that iteration from
// the probe-less state alone, and the probe's rate is the share that
// iteration would freeze it at: the same float operations, in the same
// order, as a pass with the probe started as a real flow, so the result
// is bit-identical without the probe ever touching the active set.
func (n *Network) fill(probes []whatIf) {
	n.dirty = false
	if cap(n.frozen) < len(n.active) {
		n.frozen = make([]bool, len(n.active))
	}
	frozen := n.frozen[:len(n.active)]
	for i := range frozen {
		frozen[i] = false
	}
	for _, f := range n.active {
		f.Rate = 0
	}

	remaining := len(n.active)
	for remaining > 0 {
		// Find the tightest constraint; touched's first-encounter order
		// fixes the tie-breaks.
		best := int32(-1)
		bestShare := math.Inf(1)
		for _, si := range n.touched {
			sl := &n.slots[si]
			if sl.alive == 0 {
				continue
			}
			share := sl.rem / float64(sl.alive)
			if share < bestShare {
				bestShare = share
				best = si
			}
		}
		if len(probes) > 0 {
			n.resolve(probes, best, bestShare)
		}
		if best < 0 {
			// No live constraints left (cannot happen while flows remain
			// on finite capacities, since every flow has a constraint).
			break
		}
		if bestShare < 0 {
			bestShare = 0
		}
		// Freeze every unfrozen flow crossing the tightest constraint.
		for fi, f := range n.active {
			if frozen[fi] {
				continue
			}
			crosses := false
			for _, si := range f.slots {
				if si == best {
					crosses = true
					break
				}
			}
			if !crosses {
				continue
			}
			frozen[fi] = true
			remaining--
			f.Rate = units.Rate(bestShare)
			for _, si := range f.slots {
				sl := &n.slots[si]
				sl.rem -= bestShare
				sl.alive--
				if sl.rem < 0 {
					sl.rem = 0
				}
			}
		}
	}
	// No live slot is left, so an open probe is alone on its slots.
	n.resolve(probes, -1, math.Inf(1))
}

// resolve freezes each open probe that the current filling iteration
// would freeze were the probe an active flow appended last. The
// probe-less pass is about to freeze the flows on slot best at bestShare
// (best < 0: no live slot is left). With the probe added, each of its
// slots carries one more flow — a slot the active set never touched sits
// after all of touched, at its full capacity — and every other slot's
// share is unchanged. That pass therefore picks a probe slot, and freezes
// the probe at that slot's share, exactly when the smallest probe-slot
// share undercuts bestShare or ties it no later in touched than best. (If
// best is itself a probe slot it ties or undercuts, since remainders are
// never negative and one more flow only lowers a share.) Otherwise it
// picks best too, and the probe stays open.
func (n *Network) resolve(probes []whatIf, best int32, bestShare float64) {
	epoch := n.slotEpoch
	for i := range probes {
		p := &probes[i]
		if p.done {
			continue
		}
		share, pos := math.Inf(1), int32(math.MaxInt32)
		for _, si := range p.slots {
			rem, alive, at := n.slotCap[si], int32(0), int32(math.MaxInt32)
			if sl := &n.slots[si]; sl.seen == epoch {
				rem, alive, at = sl.rem, sl.alive, sl.pos
			}
			if s := rem / float64(alive+1); s < share || (s == share && at < pos) {
				share, pos = s, at
			}
		}
		if share < bestShare || (best >= 0 && share == bestShare && pos <= n.slots[best].pos) {
			if share < 0 {
				share = 0
			}
			p.rate, p.done = share, true
		}
	}
}

// Rates returns the current rate of every active flow, allocating first if
// needed.
func (n *Network) Rates() map[FlowID]units.Rate {
	if n.dirty {
		n.allocate()
	}
	out := make(map[FlowID]units.Rate, len(n.active))
	for _, f := range n.active {
		out[f.ID] = f.Rate
	}
	return out
}

// CurrentRate returns the rate of one active flow.
func (n *Network) CurrentRate(id FlowID) (units.Rate, error) {
	if n.dirty {
		n.allocate()
	}
	f, ok := n.flows[id]
	if !ok {
		return 0, fmt.Errorf("netsim: unknown flow %d", id)
	}
	if f.done {
		return 0, nil
	}
	return f.Rate, nil
}

// AvailableRate reports the rate a new backlogged flow from src to dst
// would receive right now, without disturbing the network. This is what a
// netperf run (or an ideal packet train) measures.
func (n *Network) AvailableRate(src, dst topology.VMID) (units.Rate, error) {
	if src == dst {
		return 0, fmt.Errorf("netsim: flow from %d to itself", src)
	}
	av, err := n.Availability(src, dst)
	return av.Share, err
}

// Schedule runs fn at the given absolute simulation time. Times in the
// past run at the current time.
func (n *Network) Schedule(at time.Duration, fn func()) {
	if at < n.now {
		at = n.now
	}
	n.seq++
	heap.Push(&n.timers, &timer{at: at, seq: n.seq, fn: fn})
}

// ScheduleEvery runs fn at now+interval, then every interval thereafter,
// until fn returns false.
func (n *Network) ScheduleEvery(interval time.Duration, fn func() bool) {
	if interval <= 0 {
		return
	}
	var arm func(at time.Duration)
	arm = func(at time.Duration) {
		n.Schedule(at, func() {
			if fn() {
				arm(at + interval)
			}
		})
	}
	arm(n.now + interval)
}

// settle reaps flows that are already drained (for example zero-byte
// flows) and brings the allocation up to date.
func (n *Network) settle() {
	if n.dirty {
		n.allocate()
	}
	n.reapFinished()
	if n.dirty {
		n.allocate()
	}
}

// Run advances the simulation to the given absolute time, delivering bytes
// and firing timers in order.
func (n *Network) Run(until time.Duration) {
	for n.now < until {
		n.settle()
		next := n.nextFlowEvent(until)
		// Earliest timer.
		if len(n.timers) > 0 && n.timers[0].at < next {
			next = n.timers[0].at
		}
		if next < n.now {
			next = n.now
		}

		n.advanceTo(next)

		// Fire due timers (they may mutate flows).
		for len(n.timers) > 0 && n.timers[0].at <= n.now {
			t := heap.Pop(&n.timers).(*timer)
			t.fn()
		}
		n.reapFinished()
	}
}

// RunUntilIdle advances until no active flows remain (ignoring backlogged
// flows would never finish, so they count as activity) or maxTime is
// reached. It returns the time the network went idle.
func (n *Network) RunUntilIdle(maxTime time.Duration) time.Duration {
	for n.now < maxTime {
		n.settle()
		finite := false
		for _, f := range n.active {
			if f.remaining >= 0 {
				finite = true
				break
			}
		}
		if !finite && len(n.timers) == 0 {
			break
		}
		next := n.nextFlowEvent(maxTime)
		if len(n.timers) > 0 && n.timers[0].at < next {
			next = n.timers[0].at
		}
		if next <= n.now && next != maxTime {
			if n.hasDrainedFlow() {
				continue // let settle reap it
			}
			// Nothing can progress (e.g. only zero-rate flows): bail out.
			break
		}
		n.advanceTo(next)
		for len(n.timers) > 0 && n.timers[0].at <= n.now {
			t := heap.Pop(&n.timers).(*timer)
			t.fn()
		}
		n.reapFinished()
	}
	return n.now
}

// nextFlowEvent returns the earliest finite-flow completion time, capped.
// Flows whose remaining time truncates to zero are finished on the spot
// so the event loops cannot spin on them.
func (n *Network) nextFlowEvent(cap time.Duration) time.Duration {
	next := cap
	for _, f := range n.active {
		if f.remaining < 0 || f.Rate <= 0 {
			continue
		}
		dt := units.Seconds(f.remaining * 8 / float64(f.Rate))
		if dt <= 0 {
			f.remaining = 0
			next = n.now
			continue
		}
		if t := n.now + dt; t < next {
			next = t
		}
	}
	return next
}

const finishEpsilonBytes = 1e-6

func (n *Network) advanceTo(t time.Duration) {
	dt := (t - n.now).Seconds()
	if dt < 0 {
		return
	}
	if dt > 0 {
		for _, f := range n.active {
			if f.remaining < 0 || f.Rate <= 0 {
				continue
			}
			f.remaining -= float64(f.Rate) / 8 * dt
			if f.remaining < finishEpsilonBytes {
				f.remaining = 0
			}
		}
	}
	n.now = t
}

// reapFinished retires the drained flows and runs their callbacks in
// FlowID order, which is active's order. A callback that reaps again
// finds no list to reuse and makes its own.
func (n *Network) reapFinished() {
	finished := n.finished[:0]
	n.finished = nil
	kept := n.active[:0]
	for _, f := range n.active {
		if f.remaining == 0 {
			f.done = true
			f.finished = n.now
			finished = append(finished, f)
			n.dirty = true
		} else {
			kept = append(kept, f)
		}
	}
	n.active = kept
	for _, f := range finished {
		if f.onFinish != nil {
			f.onFinish(f)
		}
	}
	clear(finished)
	n.finished = finished[:0]
}

// PathAvailability describes what a new flow from src to dst would
// experience right now, decomposed the way internal/packetsim needs it.
type PathAvailability struct {
	// Share is the max-min rate a new backlogged TCP flow would get,
	// including the source VM's hose limit — the "ground truth" a 10 s
	// netperf transfer converges to.
	Share units.Rate
	// PhysicalShare is the share the fabric alone would allow, ignoring
	// the source hose. Short probe bursts that fit in the hose's token
	// bucket are served at up to this rate.
	PhysicalShare units.Rate
	// LineRate is the smallest raw link capacity along the path — the
	// drain rate of the bottleneck queue.
	LineRate units.Rate
}

// Availability computes the three-way decomposition above without
// disturbing existing flows. It leaves the network allocated.
func (n *Network) Availability(src, dst topology.VMID) (PathAvailability, error) {
	path, err := n.pathFor(src, dst)
	if err != nil {
		return PathAvailability{}, err
	}
	var out [1]PathAvailability
	n.BatchAvailabilityRefs([]PairRef{path}, out[:])
	if n.dirty {
		n.allocate()
	}
	return out[0], nil
}

// idle is the availability of path with no active flow on it.
func idle(path *topology.Path) PathAvailability {
	return PathAvailability{Share: path.IdleShare, PhysicalShare: path.IdlePhysicalShare, LineRate: path.LineRate}
}

// PairRef is one ordered VM pair's route, resolved once: callers that
// batch-probe the same mesh every epoch resolve each pair with
// PairRefFor and pass the refs to BatchAvailabilityRefs. A route is
// read-only and lives as long as its cloud.
type PairRef = *topology.Path

// PairRefFor resolves src→dst to its route.
func (n *Network) PairRefFor(src, dst topology.VMID) (PairRef, error) {
	return n.pathFor(src, dst)
}

// BatchAvailabilityRefs computes Availability for every pair in one
// pass — the mesh-measurement fast path — writing into a caller-owned
// buffer: out[i] receives the availability for refs[i]. Trains run one
// at a time in the measurement protocol, so each pair's availability is
// its *isolated* share: the rate a lone backlogged flow would get if it
// joined the active set. A pair that shares no resource with any active
// flow reads its route's idle rates, which are exactly what progressive
// filling computes for a lone flow (bestShare = capacity/1, an exact
// float identity).
//
// Contended pairs go to the what-if kernel (see fill): one progressive
// filling pass over the active set resolves every contended pair's share
// probe and hose-less physical probe at the iteration that would freeze
// it, with the float operations of a pass that started the probe as a
// real flow. Results are therefore bit-identical to per-pair probes, no
// flow is started, stopped or given a FlowID, and the pass leaves the
// network allocated.
func (n *Network) BatchAvailabilityRefs(refs []PairRef, out []PathAvailability) {
	n.stamp()
	epoch := n.slotEpoch
	probes := n.probes[:0]
	for i, path := range refs {
		out[i] = idle(path)
		contended := false
		for _, si := range path.Resources {
			if n.slots[si].seen == epoch {
				contended = true
				break
			}
		}
		if !contended {
			continue
		}
		probes = append(probes, whatIf{slots: path.Resources, out: i})
		if !path.SameHost {
			// The physical probe drops the hose (always the first slot).
			probes = append(probes, whatIf{slots: path.Resources[1:], out: i, phys: true})
		}
	}
	n.probes = probes
	if len(probes) == 0 {
		return
	}
	n.fill(probes)
	for _, p := range probes {
		av := &out[p.out]
		if p.phys {
			av.PhysicalShare = units.Rate(p.rate)
			continue
		}
		av.Share = units.Rate(p.rate)
		if refs[p.out].SameHost {
			av.PhysicalShare = av.Share
		}
	}
}

// RunUntil advances the simulation until pred() reports true or maxTime
// is reached, evaluating pred after every event. It returns the time at
// which it stopped.
func (n *Network) RunUntil(pred func() bool, maxTime time.Duration) time.Duration {
	for n.now < maxTime {
		n.settle()
		if pred() {
			return n.now
		}
		next := n.nextFlowEvent(maxTime)
		if len(n.timers) > 0 && n.timers[0].at < next {
			next = n.timers[0].at
		}
		if next < n.now {
			next = n.now
		}
		n.advanceTo(next)
		fired := false
		for len(n.timers) > 0 && n.timers[0].at <= n.now {
			t := heap.Pop(&n.timers).(*timer)
			t.fn()
			fired = true
		}
		n.reapFinished()
		if !fired && next == maxTime && !n.hasDrainedFlow() {
			// Nothing left before maxTime.
			n.now = maxTime
			break
		}
	}
	n.settle()
	return n.now
}

// hasDrainedFlow reports whether an active flow has fully drained and
// awaits reaping.
func (n *Network) hasDrainedFlow() bool {
	for _, f := range n.active {
		if f.remaining == 0 {
			return true
		}
	}
	return false
}
