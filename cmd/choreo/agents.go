package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"choreo/internal/cluster"
	"choreo/internal/obs"
)

// runAgents dispatches the agent-fleet management subcommands:
// `choreo agents health` (the preflight an operator runs before
// committing a sweep or a server to a fleet) and
// `choreo agents metrics` (a fleet-wide Prometheus scrape).
func runAgents(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: choreo agents <health|metrics> -agents host1:7101,host2:7101[,...]")
	}
	switch args[0] {
	case "health":
		return runAgentsHealth(args[1:])
	case "metrics":
		return runAgentsMetrics(args[1:])
	}
	return fmt.Errorf("unknown agents subcommand %q (health or metrics)", args[0])
}

// runAgentsHealth preflights every agent: dial, protocol handshake
// (catching version-mismatched agents with the precise "speaks vN, need
// vM" error) and an RTT probe of the echo responder. It prints one line
// per agent — protocol version and self-reported uptime included, so a
// restarted agent stands out — and exits non-zero if any agent is sick.
func runAgentsHealth(args []string) error {
	fs := flag.NewFlagSet("agents health", flag.ExitOnError)
	fleet := registerFleetFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("agents health: unexpected arguments %q", fs.Args())
	}
	addrs, err := fleet.addrs(1)
	if err != nil {
		return err
	}
	coord := cluster.NewCoordinator(addrs, *fleet.agentTimeout)
	results, healthy := coord.CheckFleet(context.Background())
	for _, h := range results {
		if h.OK() {
			up := "up=" + h.Uptime.Truncate(time.Second).String()
			fmt.Printf("agent %2d %-24s ok    v%d %-10s rtt=%s\n", h.Index, h.Addr, cluster.ProtocolVersion, up, h.RTT)
		} else {
			fmt.Printf("agent %2d %-24s FAIL  %v\n", h.Index, h.Addr, h.Err)
		}
	}
	if healthy < len(addrs) {
		return fmt.Errorf("%d of %d agents unhealthy", len(addrs)-healthy, len(addrs))
	}
	fmt.Fprintf(os.Stderr, "all %d agents healthy\n", len(addrs))
	return nil
}

// runAgentsMetrics scrapes every agent's registry over the "metrics"
// op and prints one merged Prometheus exposition, every series tagged
// agent="host:port" — the fleet-telemetry view without running a
// scrape sidecar on each VM. The merged output passes
// `choreo obs validate-prom`.
func runAgentsMetrics(args []string) error {
	fs := flag.NewFlagSet("agents metrics", flag.ExitOnError)
	fleet := registerFleetFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("agents metrics: unexpected arguments %q", fs.Args())
	}
	addrs, err := fleet.addrs(1)
	if err != nil {
		return err
	}
	coord := cluster.NewCoordinator(addrs, *fleet.agentTimeout)
	sources := make([]obs.Exposition, 0, len(addrs))
	for i, addr := range addrs {
		text, err := coord.ScrapeMetrics(context.Background(), i)
		if err != nil {
			return fmt.Errorf("agents metrics: %w", err)
		}
		sources = append(sources, obs.Exposition{Label: addr, Text: text})
	}
	merged, err := obs.MergeExpositions("agent", sources)
	if err != nil {
		return fmt.Errorf("agents metrics: merge: %w", err)
	}
	fmt.Print(merged)
	return nil
}
