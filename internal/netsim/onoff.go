package netsim

import (
	"math/rand"
	"time"

	"choreo/internal/topology"
)

// OnOffSource is a background traffic source following the ON-OFF model of
// the paper's ns-2 simulations (§3.2, Figure 4): it alternates between a
// backlogged bulk transfer (ON) and silence (OFF), with both holding times
// drawn from an exponential distribution with the configured mean.
type OnOffSource struct {
	net  *Network
	grp  *OnOffGroup
	src  topology.VMID
	dst  topology.VMID
	mean time.Duration
	tag  string

	on      bool
	flow    *Flow
	stopped bool
}

// OnOffGroup manages a set of ON-OFF sources and tracks how many are
// currently ON — the ground truth "actual c" of Figure 4.
type OnOffGroup struct {
	net     *Network
	rng     *rand.Rand
	sources []*OnOffSource
	onCount int
}

// NewOnOffGroup creates a group whose toggles are driven by rng.
func NewOnOffGroup(net *Network, rng *rand.Rand) *OnOffGroup {
	return &OnOffGroup{net: net, rng: rng}
}

// Add registers a new source that begins OFF and schedules its first
// toggle after an exponential holding time with the given mean.
func (g *OnOffGroup) Add(src, dst topology.VMID, mean time.Duration, tag string) *OnOffSource {
	s := &OnOffSource{net: g.net, grp: g, src: src, dst: dst, mean: mean, tag: tag}
	g.sources = append(g.sources, s)
	s.arm()
	return s
}

// AddStartedOn registers a source that begins ON immediately.
func (g *OnOffGroup) AddStartedOn(src, dst topology.VMID, mean time.Duration, tag string) (*OnOffSource, error) {
	s := g.Add(src, dst, mean, tag)
	if err := s.turnOn(); err != nil {
		return nil, err
	}
	return s, nil
}

// ActiveCount reports how many sources are currently ON.
func (g *OnOffGroup) ActiveCount() int { return g.onCount }

// StopAll turns every source off permanently.
func (g *OnOffGroup) StopAll() {
	for _, s := range g.sources {
		s.Stop()
	}
}

func (s *OnOffSource) arm() {
	hold := s.grp.exponential(s.mean)
	s.net.Schedule(s.net.Now()+hold, s.toggle)
}

func (g *OnOffGroup) exponential(mean time.Duration) time.Duration {
	return time.Duration(g.rng.ExpFloat64() * float64(mean))
}

func (s *OnOffSource) toggle() {
	if s.stopped {
		return
	}
	if s.on {
		s.turnOff()
	} else {
		// Errors can only arise from a bad VM pair, which Add validated
		// implicitly on first use; ignore to keep the toggle loop alive.
		_ = s.turnOn()
	}
	s.arm()
}

func (s *OnOffSource) turnOn() error {
	if s.on {
		return nil
	}
	f, err := s.net.StartFlow(s.src, s.dst, Backlogged, s.tag, nil)
	if err != nil {
		return err
	}
	s.flow = f
	s.on = true
	s.grp.onCount++
	return nil
}

func (s *OnOffSource) turnOff() {
	if !s.on {
		return
	}
	s.net.StopFlow(s.flow.ID)
	s.flow = nil
	s.on = false
	s.grp.onCount--
}

// Stop turns the source off permanently.
func (s *OnOffSource) Stop() {
	if s.stopped {
		return
	}
	s.turnOff()
	s.stopped = true
}
