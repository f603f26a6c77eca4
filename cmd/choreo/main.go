// Command choreo is the tenant-side CLI: it measures a cloud (simulated
// or live via choreo-agent daemons), places applications with the paper's
// greedy network-aware algorithm or any baseline, and runs simulated
// placements end to end.
//
// Subcommands:
//
//	choreo simulate -profile ec2-2013 -vms 10 -apps 2 -seed 1
//	    build a simulated cloud, draw applications sized to its VMs
//	    (as Fig 10(a) does), measure with packet trains, place with every
//	    algorithm and execute; prints a completion-time comparison.
//
//	choreo measure -agents host1:7101,host2:7101[,...] [-bursts 10 -burstlen 200]
//	    (the agent-fleet flag group is shared with sweep, serve and agents health)
//	    measure every ordered pair of live agents with packet trains and
//	    print the estimated rate matrix in Mbit/s.
//
//	choreo place -rates rates.json -app app.json [-model hose]
//	    offline placement: read a measured rate matrix (the GET /v1/env
//	    schema) and an application profile (the POST /v1/place "app"
//	    schema) from JSON, validate both as the service does, and print
//	    the task→machine assignment.
//
//	choreo place -server http://127.0.0.1:7180 -app app.json
//	    post the same application to a running `choreo serve` and place
//	    it against the service's current mesh snapshot; prints the full
//	    versioned response (epoch, env hash, predicted completion).
//
//	choreo serve -backend sim -vms 8 -interval 5m -listen 127.0.0.1:7180
//	    run the placement service: measure, then re-measure on an
//	    interval, publishing each epoch as an immutable snapshot behind
//	    POST /v1/place, /v1/migrate and GET /v1/health|env, with
//	    Prometheus counters on GET /metrics.
//
//	choreo load -server http://127.0.0.1:7180 -clients 8 -duration 10s
//	    drive concurrent placements against a running service and report
//	    sustained placements/sec; fails on errors or torn snapshots.
//
//	choreo agents health -agents host1:7101,host2:7101
//	    preflight a fleet: dial, version-handshake and RTT-probe every
//	    agent; non-zero exit if any agent is sick.
//
//	choreo sweep -topologies ec2-2013,rackspace -workloads shuffle,uniform \
//	       -algorithms choreo,random,round-robin -seeds 2 -workers 8
//	    expand and run a scenario grid (topology × workload × algorithm ×
//	    seed) across a worker pool; write a deterministic JSON report
//	    (byte-identical for any -workers value) and an optional CSV.
//	    -stream writes incremental JSONL; -shard i/n runs one
//	    deterministic slice of the grid as a self-describing shard file;
//	    -resume skips scenarios already present in a prior JSONL run.
//
//	choreo sweep -mode sequence -interarrival 5s,20s -seq-apps 8 -reeval 0,10s
//	    run the grid as §6.3 in-sequence experiments: applications
//	    arrive over time on one shared cloud, each placed as it arrives
//	    under live cross traffic, re-evaluated every -reeval and
//	    migrated when the predicted completion improves by
//	    -migration-gain; reports per-app events and total running time.
//
//	choreo sweep -backend live -agents host1:7101,host2:7101,host3:7101 -vms 3
//	    run the grid against a real choreo-agent mesh: each cell's VM
//	    slots map onto live agents, rate matrices come from packet
//	    trains over real sockets, and completion times are the
//	    predicted objective on the measured rates. The report schema is
//	    identical to the simulated path, so sim and live runs of one
//	    grid diff cleanly.
//
//	choreo merge -out merged.jsonl shard1.jsonl shard2.jsonl shard3.jsonl
//	    validate n shard files (same grid, disjoint coverage, no gaps)
//	    and splice them into one report, byte-identical to the unsharded
//	    `choreo sweep -stream` run of the same grid. Mixing simulated
//	    and live shards is rejected with a precise error.
//
//	choreo obs <validate-prom|validate-events> [file]
//	    validate a Prometheus /metrics scrape or a -events span log
//	    (stdin by default); CI uses these instead of promtool. The
//	    -events flag on sweep and serve writes the span log; GET
//	    /metrics on a running serve is the Prometheus scrape.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"

	"choreo"
	"choreo/internal/api"
	"choreo/internal/cluster"
	"choreo/internal/experiments"
	"choreo/internal/place"
	"choreo/internal/sweep"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "simulate":
		err = runSimulate(os.Args[2:])
	case "measure":
		err = runMeasure(os.Args[2:])
	case "place":
		err = runPlace(os.Args[2:])
	case "sweep":
		err = runSweep(os.Args[2:])
	case "merge":
		err = runMerge(os.Args[2:])
	case "serve":
		err = runServe(os.Args[2:])
	case "load":
		err = runLoad(os.Args[2:])
	case "agents":
		err = runAgents(os.Args[2:])
	case "obs":
		err = runObsCmd(os.Args[2:])
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "choreo: unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "choreo: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: choreo <simulate|measure|place|sweep|merge|serve|load|agents|obs> [flags]")
}

func runSimulate(args []string) error {
	fs := flag.NewFlagSet("simulate", flag.ExitOnError)
	profileName := fs.String("profile", "ec2-2013", "provider profile (any sweep topology; see `choreo sweep -list`)")
	vms := fs.Int("vms", 10, "tenant VMs to allocate")
	nApps := fs.Int("apps", 2, "applications to combine and place")
	seed := fs.Int64("seed", 1, "deterministic seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	tp, err := sweep.TopologyByName(*profileName)
	if err != nil {
		return err
	}
	if *nApps < 1 {
		return fmt.Errorf("-apps must be at least 1, got %d", *nApps)
	}
	// The Fig 10(a) draw: applications sized to the VMs, redrawn (with
	// the seed advanced) while some algorithm cannot place them.
	algs := []choreo.Algorithm{choreo.AlgChoreo, choreo.AlgMinMachines, choreo.AlgRandom, choreo.AlgRoundRobin}
	draw, err := experiments.DrawFeasible(tp.Profile, *vms, algs,
		func(attempt int) int64 { return *seed + int64(attempt)*100003 },
		func(*rand.Rand) int { return *nApps })
	if err != nil {
		return err
	}
	if draw.Seed != *seed {
		fmt.Printf("seed %d drew an infeasible workload; redrawn with seed %d\n", *seed, draw.Seed)
	}
	for i, app := range draw.Apps {
		fmt.Printf("application %d: %s, %d tasks, %s total traffic\n",
			i, app.Name, app.Tasks(), app.TM.Total())
	}

	fmt.Printf("\nmeasured %d VM pairs with packet trains; placed and executed with every algorithm\n", (*vms)*(*vms-1))
	results := draw.Completion
	fmt.Printf("\n%-14s %12s %10s\n", "algorithm", "completion", "vs choreo")
	for _, alg := range algs {
		rel := ""
		if alg != choreo.AlgChoreo && results[alg] > 0 {
			speedup := (results[alg] - results[choreo.AlgChoreo]).Seconds() / results[alg].Seconds() * 100
			rel = fmt.Sprintf("%+.1f%%", speedup)
		}
		fmt.Printf("%-14s %12.2fs %10s\n", alg, results[alg].Seconds(), rel)
	}
	return nil
}

func runMeasure(args []string) error {
	fs := flag.NewFlagSet("measure", flag.ExitOnError)
	fleet := registerFleetFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	addrs, err := fleet.addrs(2)
	if err != nil {
		return err
	}
	coord := cluster.NewCoordinator(addrs, *fleet.agentTimeout)
	res, err := coord.MeasureMesh(context.Background(), fleet.train())
	if err != nil {
		return err
	}
	fmt.Printf("measured %d agents in %.1fs; rates in Mbit/s:\n", len(addrs), res.Elapsed.Seconds())
	fmt.Printf("%8s", "")
	for j := range addrs {
		fmt.Printf(" %9s", fmt.Sprintf("->%d", j))
	}
	fmt.Println()
	for i := range addrs {
		fmt.Printf("agent %2d", i)
		for j := range addrs {
			if i == j {
				fmt.Printf(" %9s", "-")
				continue
			}
			fmt.Printf(" %9.1f", res.Rates[i][j].Mbps())
		}
		fmt.Println()
	}
	return nil
}

func runPlace(args []string) error {
	fs := flag.NewFlagSet("place", flag.ExitOnError)
	ratesPath := fs.String("rates", "", "JSON file with the measured rate matrix (offline mode)")
	appPath := fs.String("app", "", "JSON file with the application profile")
	model := fs.String("model", "", "rate model: hose or pipe (server mode default: the server's model; offline default: hose)")
	server := fs.String("server", "", "placement service base URL; the service's current mesh snapshot replaces -rates")
	tenant := fs.String("tenant", "", "tenant header for -server requests")
	algorithm := fs.String("algorithm", "", "placement algorithm for -server requests (default choreo)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *server != "" {
		if *ratesPath != "" {
			return fmt.Errorf("-rates is the offline rate matrix; with -server the service's mesh snapshot is the environment")
		}
		if *appPath == "" {
			return fmt.Errorf("-app is required")
		}
		return placeViaServer(*server, *tenant, *appPath, *algorithm, *model)
	}
	if *algorithm != "" || *tenant != "" {
		return fmt.Errorf("-algorithm and -tenant are server-mode flags; add -server URL")
	}
	if *ratesPath == "" || *appPath == "" {
		return fmt.Errorf("both -rates and -app are required")
	}
	mdl, err := api.ParseModel(*model, place.Hose)
	if err != nil {
		return err
	}
	var wenv api.Env
	if err := readJSON(*ratesPath, &wenv); err != nil {
		return err
	}
	env, err := wenv.ToEnvironment()
	if err != nil {
		return fmt.Errorf("%s: %w", *ratesPath, err)
	}
	var spec api.AppSpec
	if err := readJSON(*appPath, &spec); err != nil {
		return err
	}
	app, err := spec.ToApplication()
	if err != nil {
		return fmt.Errorf("%s: %w", *appPath, err)
	}
	p, err := place.Greedy(app, env, mdl)
	if err != nil {
		return err
	}
	ct, err := place.CompletionTime(app, env, p, mdl)
	if err != nil {
		return err
	}
	out := struct {
		MachineOf           []int   `json:"machineOf"`
		PredictedCompletion float64 `json:"predictedCompletionSeconds"`
	}{p.MachineOf, ct.Seconds()}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// placeViaServer is `choreo place -server`: the same application JSON
// the offline mode reads is posted to a running placement service,
// which places it against its current mesh snapshot. The full versioned
// response (epoch, env hash, prediction) is printed as indented JSON.
func placeViaServer(server, tenant, appPath, algorithm, model string) error {
	var spec api.AppSpec
	if err := readJSON(appPath, &spec); err != nil {
		return err
	}
	c := &api.Client{BaseURL: server, Tenant: tenant}
	resp, err := c.Place(context.Background(), api.PlaceRequest{
		App:       spec,
		Algorithm: algorithm,
		Model:     model,
	})
	if err != nil {
		return err
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(resp)
}

func readJSON(path string, v interface{}) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
