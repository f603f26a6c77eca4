package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"time"

	"choreo/internal/api"
	"choreo/internal/obs"
	"choreo/internal/profiling"
)

// runLoad is the placement-service load harness: -clients concurrent
// clients hammer POST /v1/place against a running `choreo serve` for
// -duration and report sustained placements/sec plus p50/p90/p99/max
// placement latency (an obs histogram shared by the clients). It fails
// (non-zero exit) on any request error — a 5xx response is called out
// explicitly — on a torn snapshot (two responses with
// the same epoch but different environment hashes), or — with
// -min-epochs — if the run did not ride across enough re-measurement
// epochs to prove that placements proceed while the mesh refreshes.
// Quota rejections (429) are counted separately and are not errors:
// pushing a quota-limited server past its limit is a legitimate load
// test.
func runLoad(args []string) (err error) {
	fs := flag.NewFlagSet("load", flag.ExitOnError)
	server := fs.String("server", "", "placement service base URL, e.g. http://127.0.0.1:7180")
	clients := fs.Int("clients", 8, "concurrent clients")
	duration := fs.Duration("duration", 10*time.Second, "load duration")
	minEpochs := fs.Int("min-epochs", 0, "fail unless responses span at least this many distinct measurement epochs")
	tasks := fs.Int("tasks", 6, "tasks in the generated test application")
	tenant := fs.String("tenant", "load", "tenant header sent with every request")
	events := fs.String("events", "", "write a schema'd JSONL span log (load.run + one load.request per placement call) to this file; join with the server's -events in `choreo obs report`")
	prof := profiling.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *server == "" {
		return fmt.Errorf("-server is required (start one with: choreo serve)")
	}
	if *clients < 1 || *tasks < 2 {
		return fmt.Errorf("need -clients >= 1 and -tasks >= 2")
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

	traceObs, closeEvents, err := eventsObserver(*events)
	if err != nil {
		return err
	}
	defer func() {
		if e := closeEvents(); e != nil && err == nil {
			err = fmt.Errorf("-events %s: %w", *events, e)
		}
	}()

	// A ring-shuffle test application: every task ships 50 MB to its
	// successor, so placement has real traffic to optimize.
	app := api.AppSpec{Name: "load-ring", CPU: make([]float64, *tasks)}
	for i := 0; i < *tasks; i++ {
		app.CPU[i] = 1
		app.TransfersMB = append(app.TransfersMB, [3]float64{float64(i), float64((i + 1) % *tasks), 50})
	}

	ctx, cancel := context.WithTimeout(context.Background(), *duration)
	defer cancel()

	type tally struct {
		ok, rejected, failed int
		server5xx            int
		firstErr             error
		epochHash            map[int64]string
		torn                 error
	}
	tallies := make([]tally, *clients)
	// One latency histogram shared by every client: Observe is atomic,
	// so the goroutines fold into it without a lock.
	latency := obs.NewHistogram(obs.DurationBuckets())
	runSpan := traceObs.StartSpan(obs.Span{}, "load.run",
		obs.String("server", *server), obs.Int("clients", int64(*clients)))
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < *clients; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			t := &tallies[id]
			t.epochHash = make(map[int64]string)
			c := &api.Client{BaseURL: *server, Tenant: *tenant}
			rng := rand.New(rand.NewSource(int64(id)))
			for ctx.Err() == nil {
				reqStart := time.Now()
				sp := traceObs.StartSpan(runSpan, "load.request", obs.Int("client", int64(id)))
				resp, err := c.Place(ctx, api.PlaceRequest{App: app})
				switch {
				case err == nil:
					sp.End(obs.String("outcome", "ok"), obs.Int("epoch", resp.Epoch))
					t.ok++
					latency.Observe(time.Since(reqStart).Seconds())
					if prev, seen := t.epochHash[resp.Epoch]; seen && prev != resp.EnvHash {
						t.torn = fmt.Errorf("epoch %d served env %s then %s", resp.Epoch, prev, resp.EnvHash)
						return
					}
					t.epochHash[resp.Epoch] = resp.EnvHash
				case isQuota(err):
					sp.End(obs.String("outcome", "quota"))
					t.rejected++
					// Back off a beat so a quota-limited run still makes
					// progress instead of burning the bucket dry.
					time.Sleep(time.Duration(50+rng.Intn(50)) * time.Millisecond)
				case ctx.Err() != nil:
					sp.End(obs.String("outcome", "canceled"))
					return // the deadline interrupted an in-flight request
				default:
					sp.End(obs.String("outcome", "error"))
					t.failed++
					var se *api.StatusError
					if errors.As(err, &se) && se.Code >= 500 {
						t.server5xx++
					}
					if t.firstErr == nil {
						t.firstErr = err
					}
					return
				}
			}
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	runSpan.End(obs.String("outcome", "done"))

	total, rejected, failed, server5xx := 0, 0, 0, 0
	epochHash := make(map[int64]string)
	var firstErr, torn error
	for i := range tallies {
		t := &tallies[i]
		total += t.ok
		rejected += t.rejected
		failed += t.failed
		server5xx += t.server5xx
		if t.firstErr != nil && firstErr == nil {
			firstErr = t.firstErr
		}
		if t.torn != nil && torn == nil {
			torn = t.torn
		}
		for e, h := range t.epochHash {
			if prev, seen := epochHash[e]; seen && prev != h && torn == nil {
				torn = fmt.Errorf("epoch %d served env %s then %s (across clients)", e, prev, h)
			}
			epochHash[e] = h
		}
	}

	fmt.Printf("load: %d placements in %.1fs = %.1f placements/sec (%d clients)\n",
		total, elapsed.Seconds(), float64(total)/elapsed.Seconds(), *clients)
	if latency.Count() > 0 {
		fmt.Printf("load: placement latency p50=%.1fms p90=%.1fms p99=%.1fms max=%.1fms\n",
			latency.Quantile(0.5)*1e3, latency.Quantile(0.9)*1e3,
			latency.Quantile(0.99)*1e3, latency.Max()*1e3)
	}
	fmt.Printf("load: %d distinct epochs observed, %d quota rejections, %d errors (%d server 5xx)\n",
		len(epochHash), rejected, failed, server5xx)

	if torn != nil {
		return fmt.Errorf("snapshot isolation violated: %w", torn)
	}
	if server5xx > 0 {
		return fmt.Errorf("server returned %d 5xx responses; first error: %w", server5xx, firstErr)
	}
	if failed > 0 {
		return fmt.Errorf("%d requests failed; first: %w", failed, firstErr)
	}
	if total == 0 {
		return fmt.Errorf("no placements completed")
	}
	if *minEpochs > 0 && len(epochHash) < *minEpochs {
		return fmt.Errorf("responses span %d epochs, want >= %d — placements did not ride across a re-measurement (lower the server's -interval?)",
			len(epochHash), *minEpochs)
	}
	fmt.Fprintln(os.Stderr, "load: ok")
	return nil
}

func isQuota(err error) bool {
	var qe *api.QuotaError
	return errors.As(err, &qe)
}
