package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"choreo/internal/api"
	"choreo/internal/obs"
	"choreo/internal/place"
	"choreo/internal/profiling"
	"choreo/internal/serve"
	"choreo/internal/sweep"
	"choreo/internal/sweep/backend"
)

// readHeaderTimeout bounds how long the service waits for a request's
// headers.
const readHeaderTimeout = 10 * time.Second

// runServe starts the placement service: measure the cloud once
// synchronously (the server never answers from an unmeasured mesh),
// then listen, re-measuring in the background every -interval and
// publishing each completed epoch as an immutable snapshot. SIGINT or
// SIGTERM drains the HTTP server and cancels any in-flight mesh
// measurement; -cpuprofile, -memprofile and -exectrace then finish
// their files.
func runServe(args []string) (err error) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	listen := fs.String("listen", "127.0.0.1:7180", "HTTP listen address")
	events := fs.String("events", "", "write a schema'd JSONL span log (serve.epoch, plus cluster.mesh/pair with -backend live) to this file; validate with `choreo obs validate-events`")
	backendName := fs.String("backend", "sim", "measurement backend: sim (deterministic netsim cloud) or live (real choreo-agent mesh)")
	profileName := fs.String("profile", "ec2-2013", "provider profile (sim backend; any sweep topology, see `choreo sweep -list`)")
	vms := fs.Int("vms", 8, "VM slots to measure and place onto (live default: the fleet size)")
	seed := fs.Int64("seed", 1, "deterministic seed (sim cloud + random-baseline rng)")
	model := fs.String("model", "hose", "default rate model: hose or pipe")
	interval := fs.Duration("interval", 5*time.Minute, "background re-measurement interval (0 disables re-measuring)")
	executeEvery := fs.Int("execute-every", 0, "execute a sample placement as real transfers every Nth epoch and record measured-vs-predicted accuracy (live backend only; 0 disables)")
	quotaRate := fs.Float64("quota-rate", 0, "per-tenant requests/second on place+migrate (0 = unlimited)")
	quotaBurst := fs.Int("quota-burst", 10, "per-tenant burst depth for -quota-rate")
	pprofFlag := fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (live profiling; exposes process internals — keep the listener private)")
	fleet := registerFleetFlags(fs)
	prof := profiling.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("serve: unexpected arguments %q", fs.Args())
	}
	set := visited(fs)
	stopProf, err := prof.Start()
	if err != nil {
		return err
	}
	defer func() {
		if e := stopProf(); e != nil && err == nil {
			err = e
		}
	}()

	// One observer shared by the server and (for -backend live) the
	// measurement plane, so GET /metrics covers serve, epoch and
	// cluster metrics from a single registry.
	traceObs, closeEvents, err := eventsObserver(*events)
	if err != nil {
		return err
	}
	defer func() {
		if e := closeEvents(); e != nil && err == nil {
			err = fmt.Errorf("-events %s: %w", *events, e)
		}
	}()
	observer := &obs.Observer{Metrics: obs.NewRegistry()}
	if traceObs != nil {
		observer.Trace = traceObs.Trace
	}

	cfg := serve.Config{
		Obs:        observer,
		Interval:   *interval,
		QuotaRate:  *quotaRate,
		QuotaBurst: *quotaBurst,
		Pprof:      *pprofFlag,
		Seed:       *seed,
		Logf: func(format string, a ...interface{}) {
			fmt.Fprintf(os.Stderr, "serve: "+format+"\n", a...)
		},
	}
	if cfg.Model, err = api.ParseModel(*model, place.Hose); err != nil {
		return err
	}

	switch *backendName {
	case "sim":
		if *executeEvery > 0 {
			return fmt.Errorf("-execute-every runs sample placements on a real agent fleet; add -backend live")
		}
		if err := fleetFlagMisuse(set, "add -backend live"); err != nil {
			return err
		}
		tp, err := sweep.TopologyByName(*profileName)
		if err != nil {
			return err
		}
		cfg.Backend = backend.NewSim()
		cfg.Cell = backend.Cell{Topology: tp.Name, Profile: tp.Profile, VMs: *vms, Seed: *seed}
	case "live":
		if set["profile"] {
			return fmt.Errorf("-profile selects the simulated cloud; a live server measures the real fleet")
		}
		live, err := fleet.liveBackend(observer, *executeEvery > 0)
		if err != nil {
			return err
		}
		addrs, _ := fleet.addrs(2)
		n := *vms
		if !set["vms"] {
			n = len(addrs)
		}
		if n > len(addrs) {
			return fmt.Errorf("-vms %d exceeds the fleet (%d agents)", n, len(addrs))
		}
		cfg.Backend = live
		cfg.Cell = backend.Cell{Topology: "live", VMs: n, Seed: *seed}
		cfg.ExecuteEvery = *executeEvery
	default:
		return fmt.Errorf("unknown -backend %q (sim or live)", *backendName)
	}

	srv := serve.New(cfg)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	fmt.Fprintf(os.Stderr, "serve: measuring boot epoch (%s backend, %d VMs)...\n", cfg.Backend.Name(), cfg.Cell.VMs)
	if err := srv.Refresh(ctx); err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "serve: listening on http://%s (re-measure every %s)\n", ln.Addr(), *interval)

	// A client that trickles its request headers must not hold a
	// connection open forever.
	httpSrv := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: readHeaderTimeout}
	go func() { _ = srv.Run(ctx) }() // epoch loop; exits on ctx cancel
	go func() {
		<-ctx.Done()
		fmt.Fprintln(os.Stderr, "serve: shutting down (canceling any in-flight measurement)")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = httpSrv.Shutdown(shutdownCtx)
	}()
	if err := httpSrv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
