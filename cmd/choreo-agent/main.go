// Command choreo-agent is the per-VM measurement daemon: it answers the
// coordinator's control protocol (packet-train send/receive, bulk TCP
// send/receive, RTT probes) so a tenant can measure the full mesh of its
// VMs (paper §3.1). Run one agent on each VM, then point `choreo measure`
// at their control addresses.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"choreo/internal/cluster"
	"choreo/internal/profiling"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "choreo-agent: %v\n", err)
		os.Exit(1)
	}
}

// run serves until SIGINT or SIGTERM, then closes the agent and
// finishes the profiles that -cpuprofile, -memprofile and -exectrace
// asked for.
func run(args []string) (err error) {
	fs := flag.NewFlagSet("choreo-agent", flag.ExitOnError)
	listen := fs.String("listen", "0.0.0.0:7101", "control address to bind")
	prof := profiling.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopProf, err := prof.Start()
	if err != nil {
		return err
	}
	defer func() {
		if e := stopProf(); e != nil && err == nil {
			err = e
		}
	}()

	// Register for the signals before the agent accepts a connection:
	// once it answers, a signal shuts it down through the path below.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	agent, err := cluster.StartAgent(*listen)
	if err != nil {
		return err
	}
	fmt.Printf("choreo-agent: control %s, udp echo port %d, protocol v%d\n",
		agent.Addr(), agent.EchoPort(), cluster.ProtocolVersion)

	<-ctx.Done()
	fmt.Println("choreo-agent: shutting down")
	if err := agent.Close(); err != nil {
		return fmt.Errorf("close: %w", err)
	}
	return nil
}
