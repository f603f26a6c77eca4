package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"choreo/internal/cluster"
	"choreo/internal/obs"
	"choreo/internal/probe"
	"choreo/internal/sweep/backend"
	"choreo/internal/units"
)

// fleetFlags is the agent-fleet flag group shared by every subcommand
// that can drive a live choreo-agent mesh (sweep, serve, measure,
// agents health). Registering and validating it in one place keeps the
// flag names, defaults and error messages identical across subcommands.
type fleetFlags struct {
	agents       *string
	agentTimeout *time.Duration
	bursts       *int
	burstLen     *int
	packet       *int
	gap          *time.Duration
}

// registerFleetFlags installs the group on a flag set.
func registerFleetFlags(fs *flag.FlagSet) *fleetFlags {
	return &fleetFlags{
		agents:       fs.String("agents", "", "comma-separated choreo-agent control addresses"),
		agentTimeout: fs.Duration("agent-timeout", 30*time.Second, "per-operation agent timeout"),
		bursts:       fs.Int("bursts", 10, "bursts per packet train (K)"),
		burstLen:     fs.Int("burstlen", 200, "packets per burst (B)"),
		packet:       fs.Int("packet", 1472, "train packet size in bytes (P)"),
		gap:          fs.Duration("gap", time.Millisecond, "inter-burst gap (delta)"),
	}
}

// fleetFlagNames lists the group's flag names, for misuse rejection.
func fleetFlagNames() []string {
	return []string{"agents", "agent-timeout", "bursts", "burstlen", "packet", "gap"}
}

// fleetFlagMisuse fails when any fleet flag was explicitly set in a
// mode that will not talk to agents — a silently ignored flag hides a
// misconfigured run. set is the fs.Visit result; hint names the fix.
func fleetFlagMisuse(set map[string]bool, hint string) error {
	for _, name := range fleetFlagNames() {
		if set[name] {
			return fmt.Errorf("-%s configures the live measurement backend; %s", name, hint)
		}
	}
	return nil
}

// visited collects which flags the user explicitly set.
func visited(fs *flag.FlagSet) map[string]bool {
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	return set
}

// addrs validates and splits -agents, requiring at least min addresses.
func (f *fleetFlags) addrs(min int) ([]string, error) {
	addrs := splitList(*f.agents)
	if len(addrs) < min {
		plural := "es"
		if min == 1 {
			plural = ""
		}
		return nil, fmt.Errorf("need at least %d -agents control address%s (start one choreo-agent per VM)", min, plural)
	}
	return addrs, nil
}

// train assembles the packet-train configuration from the group.
func (f *fleetFlags) train() probe.Config {
	return probe.Config{
		PacketSize:  units.ByteSize(*f.packet),
		Bursts:      *f.bursts,
		BurstLength: *f.burstLen,
		Gap:         *f.gap,
		MSS:         1460,
	}
}

// liveBackend is the single validation path from the flag group to a
// live measurement backend: split and check the fleet, assemble the
// train. A non-nil observer instruments every mesh the backend runs
// (pair/RTT histograms, per-agent failure counters, mesh/pair spans)
// into the caller's sinks. execute turns predictions into real bulk
// transfers: every chosen placement's inter-machine flows run over the
// fleet and the measured completion is recorded next to the predicted
// one.
func (f *fleetFlags) liveBackend(o *obs.Observer, execute bool) (*backend.Live, error) {
	addrs, err := f.addrs(2)
	if err != nil {
		return nil, err
	}
	return backend.NewLive(backend.LiveConfig{
		Agents:  addrs,
		Timeout: *f.agentTimeout,
		Train:   f.train(),
		Obs:     o,
		Execute: execute,
	})
}

// preflight is `choreo agents health` run as the live sweep's first
// act: dial, handshake and RTT-probe every agent before any cell is
// built, and fail naming each unreachable agent — a sick fleet should
// surface as one actionable error, not as a dial failure buried
// mid-sweep. Healthy fleets get a one-line stderr confirmation.
func (f *fleetFlags) preflight(ctx context.Context) error {
	addrs, err := f.addrs(2)
	if err != nil {
		return err
	}
	coord := cluster.NewCoordinator(addrs, *f.agentTimeout)
	results, healthy := coord.CheckFleet(ctx)
	if healthy == len(addrs) {
		fmt.Fprintf(os.Stderr, "preflight: all %d agents healthy\n", len(addrs))
		return nil
	}
	sick := make([]string, 0, len(addrs)-healthy)
	for _, h := range results {
		if !h.OK() {
			sick = append(sick, fmt.Sprintf("%s (%v)", h.Addr, h.Err))
		}
	}
	return fmt.Errorf("preflight: %d of %d agents unhealthy: %s",
		len(sick), len(addrs), strings.Join(sick, "; "))
}
