package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"choreo/internal/api"
	"choreo/internal/obs"
	"choreo/internal/place"
	"choreo/internal/profile"
	"choreo/internal/serve"
	"choreo/internal/sweep/backend"
	"choreo/internal/topology"
	"choreo/internal/units"
	"choreo/internal/workload"
)

// The service cell: a 32-VM fat tree, where HTTP/JSON and placement
// each cost a comparable share of a request. The cell is fixed — one
// VM allocation draw would otherwise move every figure with the seed —
// and the benchmark seed draws the request stream.
const (
	serveVMs      = 32
	serveCellSeed = 1
	// serveStream is how many distinct pre-encoded requests the clients
	// cycle through.
	serveStream = 2048
	// refreshEvery is the wall-clock cadence of the benchmark's own
	// Server.Refresh calls, so snapshot publishes land beside requests.
	refreshEvery = time.Second
)

// request is one pre-encoded request of the stream, with the decoded
// application its response is checked against.
type request struct {
	path    string
	body    []byte
	app     *profile.Application
	alg     string // place requests only
	migrate bool
}

// serveBench drives an in-process placement server over loopback HTTP
// with closed-loop clients.
type serveBench struct {
	srv    *serve.Server
	hs     *http.Server
	done   chan struct{} // closed when hs.Serve returns
	url    string
	client *http.Client
	reqs   []request
	env    *place.Environment
	hashes *hashLog
	qual   float64
	cursor [workers]int

	// Traced-run samples.
	epochMs  durations
	refreshN int
	clientNs atomic.Int64
	clientN  atomic.Int64
	replies  [][]byte // set-up replies, re-encoded by the api.encode replay
	small    bool
	seed     int64
}

func setupServe(o options, tr *tracing) (instance, error) {
	cell := backend.Cell{Topology: "fattree-8", Profile: topology.FatTree(8), VMs: serveVMs, Seed: serveCellSeed}
	srv := serve.New(serve.Config{
		Backend: backend.NewSim(), Cell: cell, Model: place.Hose, Seed: o.seed, Obs: tr.observer(),
	})
	if err := srv.Refresh(context.Background()); err != nil {
		return nil, err
	}
	n := serveStream
	if o.small {
		n = 48
	}
	reqs, err := requestStream(o.seed, n, srv.Snapshot().Env)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	b := &serveBench{
		srv:     srv,
		hs:      &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		done:    make(chan struct{}),
		url:     "http://" + ln.Addr().String(),
		client:  &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: workers}, Timeout: 30 * time.Second},
		reqs:    reqs,
		env:     srv.Snapshot().Env,
		hashes:  &hashLog{seen: make(map[int64]string)},
		epochMs: durations{},
		small:   o.small,
		seed:    o.seed,
	}
	for c := range b.cursor {
		b.cursor[c] = c
	}
	go func() {
		defer close(b.done)
		_ = b.hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	if err := b.warmUp(); err != nil {
		b.close()
		return nil, err
	}
	return b, nil
}

// requestStream draws the seeded request mix: ~80% place, ~20%
// migrate, apps of 3–16 tasks across every workload preset, mostly
// choreo with some of each baseline. A migrate request's current
// placement is a random one that fits env.
func requestStream(seed int64, n int, env *place.Environment) ([]request, error) {
	rng := rand.New(rand.NewSource(seed))
	presets := workload.PresetNames()
	algs := []string{"choreo", "choreo", "choreo", "choreo", "choreo", "choreo", "choreo",
		"random", "round-robin", "min-machines"}
	out := make([]request, 0, n)
	for i := 0; i < n; i++ {
		patterns, _ := workload.PresetPatterns(presets[rng.Intn(len(presets))])
		gen, err := workload.Generate(rng, workload.Config{
			MinTasks: 3, MaxTasks: 16, MeanBytes: 100 * units.Megabyte, Patterns: patterns,
		})
		if err != nil {
			return nil, err
		}
		spec := api.AppSpec{Name: fmt.Sprintf("app-%d", i), CPU: gen.CPU}
		for _, t := range gen.TM.Transfers() {
			spec.TransfersMB = append(spec.TransfersMB, [3]float64{float64(t.From), float64(t.To), float64(t.Bytes) / 1e6})
		}
		app, err := spec.ToApplication()
		if err != nil {
			return nil, err
		}
		r := request{app: app}
		var body interface{}
		if rng.Float64() < 0.8 {
			r.path, r.alg = "/v1/place", algs[rng.Intn(len(algs))]
			body = api.PlaceRequest{V: api.Version, App: spec, Algorithm: r.alg}
		} else {
			cur, err := place.Random(app, env, rng)
			if err != nil {
				return nil, err
			}
			r.path, r.migrate = "/v1/migrate", true
			body = api.MigrateRequest{V: api.Version, App: spec, Current: cur.MachineOf, MinGain: 0.1}
		}
		if r.body, err = json.Marshal(body); err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// send posts one request and returns the status and body.
func (b *serveBench) send(r request) (int, []byte, error) {
	resp, err := b.client.Post(b.url+r.path, "application/json", bytes.NewReader(r.body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// hashLog remembers the env hash each epoch was served with; an epoch
// seen with two hashes is a torn snapshot.
type hashLog struct {
	mu   sync.Mutex
	seen map[int64]string
}

func (h *hashLog) observe(epoch int64, hash string) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if prev, ok := h.seen[epoch]; ok && prev != hash {
		return fmt.Errorf("%w: epoch %d served with env hashes %s and %s", errCheck, epoch, prev, hash)
	}
	h.seen[epoch] = hash
	return nil
}

// reply is the part of a place or migrate response the checks read.
type reply struct {
	Epoch     int64  `json:"epoch"`
	EnvHash   string `json:"envHash"`
	MachineOf []int  `json:"machineOf"`
	// Predicted is the placement's completion time: the place
	// response's prediction, or the migrate response's proposal.
	Predicted float64 `json:"predictedCompletionSeconds"`
	Proposed  float64 `json:"proposedSeconds"`
}

// checkReply fails a non-2xx response, a placement that does not
// validate against the application and environment, and a torn
// snapshot.
func checkReply(r request, status int, body []byte, env *place.Environment, hashes *hashLog) (reply, error) {
	var rep reply
	if status/100 != 2 {
		return rep, fmt.Errorf("%w: %s answered %d: %s", errCheck, r.path, status, bytes.TrimSpace(body))
	}
	if err := json.Unmarshal(body, &rep); err != nil {
		return rep, fmt.Errorf("%w: %s reply: %v", errCheck, r.path, err)
	}
	if r.migrate {
		rep.Predicted = rep.Proposed
	}
	if err := (place.Placement{MachineOf: rep.MachineOf}).Validate(r.app, env); err != nil {
		return rep, fmt.Errorf("%w: %s: %v", errCheck, r.path, err)
	}
	return rep, hashes.observe(rep.Epoch, rep.EnvHash)
}

// warmUp sends every request of the stream once. Outside the timed
// phase it also checks each predicted completion against
// place.CompletionTime recomputed on the published environment, and
// fixes the quality ratio: the mean, over the stream's choreo requests,
// of choreo's predicted completion over a round-robin placement's. (A
// ratio of sums would be dominated by the few largest applications.)
func (b *serveBench) warmUp() error {
	var ratios []float64
	for i, r := range b.reqs {
		status, body, err := b.send(r)
		if err != nil {
			return err
		}
		rep, err := checkReply(r, status, body, b.env, b.hashes)
		if err != nil {
			return fmt.Errorf("warm-up request %d: %w", i, err)
		}
		env := b.srv.Snapshot().Env
		ct, err := place.CompletionTime(r.app, env, place.Placement{MachineOf: rep.MachineOf}, place.Hose)
		if err != nil {
			return err
		}
		if ct.Seconds() != rep.Predicted {
			return fmt.Errorf("warm-up request %d: %w: predicted %gs, recomputed %gs", i, errCheck, rep.Predicted, ct.Seconds())
		}
		b.replies = append(b.replies, body)
		if r.alg == "choreo" {
			base, err := place.RoundRobin(r.app, env)
			if err != nil {
				return err
			}
			bt, err := place.CompletionTime(r.app, env, base, place.Hose)
			if err != nil {
				return err
			}
			if bt > 0 {
				ratios = append(ratios, ct.Seconds()/bt.Seconds())
			}
		}
	}
	if len(ratios) == 0 {
		return fmt.Errorf("no choreo request has a round-robin baseline to compare with")
	}
	b.qual = mean(ratios)
	return nil
}

// run drives the closed-loop clients and the refresh cadence until the
// deadline.
func (b *serveBench) run(deadline time.Time, rec *recorder, tr *tracing) error {
	ctx, cancel := context.WithDeadline(context.Background(), deadline)
	defer cancel()
	var wg sync.WaitGroup
	var refreshErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		refreshErr = b.refreshLoop(ctx, tr)
	}()
	for c := 0; c < workers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			b.closedLoop(c, deadline, rec, tr)
		}(c)
	}
	wg.Wait()
	return refreshErr
}

func (b *serveBench) refreshLoop(ctx context.Context, tr *tracing) error {
	t := time.NewTicker(refreshEvery)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return nil
		case <-t.C:
			sp := tr.span("bench.refresh")
			start := time.Now()
			err := b.srv.Refresh(context.Background())
			took := time.Since(start)
			sp.End()
			if err != nil {
				return err
			}
			if tr != nil {
				b.epochMs.add("serve.epoch_ms", took, 1)
			}
			b.refreshN++
		}
	}
}

// closedLoop is one closed-loop client: it sends its next request only
// after the previous reply has arrived and been checked.
func (b *serveBench) closedLoop(c int, deadline time.Time, rec *recorder, tr *tracing) {
	for time.Now().Before(deadline) {
		r := b.reqs[b.cursor[c]%len(b.reqs)]
		b.cursor[c] += workers
		sp := tr.span("bench.request")
		start := time.Now()
		status, body, err := b.send(r)
		took := time.Since(start)
		sp.End()
		if err == nil {
			_, err = checkReply(r, status, body, b.env, b.hashes)
		}
		failed := int64(0)
		if err != nil {
			failed = 1
		}
		rec.add(1, failed, took, err)
		b.clientNs.Add(took.Nanoseconds())
		b.clientN.Add(1)
	}
}

func (b *serveBench) quality() float64 { return b.qual }

func (b *serveBench) report(l *lineSet, e2e endToEnd) {
	l.add("req_per_s", e2e.okPerSecond(), "1/s")
	l.latency("req_p50_us", "req_tail_us", e2e, 1e3, "us")
	l.add("serve_quality_ratio", e2e.quality, "ratio")
}

// layers reads the server's request-latency histogram, derives the
// transport share from the clients' latency, and replays the topology,
// measurement, placement and api layers on the workload's inputs.
func (b *serveBench) layers(lm layerMetrics, tr *tracing) error {
	hv := b.srv.Obs().Registry().HistogramVec("choreo_http_request_seconds", "", obs.DurationBuckets(), "endpoint")
	var sum float64
	var n int64
	for _, ep := range []string{"place", "migrate"} {
		h := hv.With(ep)
		sum += h.Sum()
		n += h.Count()
	}
	if n > 0 && b.clientN.Load() > 0 {
		handler := sum / float64(n) * 1e6
		lm.set("serve.handler_us", handler)
		lm.set("serve.transport_us", float64(b.clientNs.Load())/float64(b.clientN.Load())/1e3-handler)
	}
	lm.setMeans(b.epochMs)
	lm.set("serve.epochs", float64(b.refreshN))

	d := durations{}
	reps := 5
	if b.small {
		reps = 1
	}
	prof := topology.FatTree(8)
	for i := 0; i < reps; i++ {
		orch, err := simCell(d, tr, prof, serveVMs, b.seed+replaySalt+int64(i))
		if err != nil {
			return err
		}
		if i < 2 {
			if _, err := measureCell(d, tr, orch); err != nil {
				return err
			}
		}
	}
	rng := rand.New(rand.NewSource(b.seed + replaySalt))
	for i, r := range b.reqs {
		if i >= 64 {
			break
		}
		if _, err := placeLayers(d, tr, r.app, b.env, rng); err != nil {
			return err
		}
	}
	if err := apiLayers(d, tr, b.reqs, b.replies); err != nil {
		return err
	}
	lm.setMeans(d)
	return nil
}

// apiLayers times the api layer on the stream: request decode plus
// AppSpec.ToApplication, and response encode.
func apiLayers(d durations, tr *tracing, reqs []request, replies [][]byte) error {
	for i, r := range reqs {
		took, err := tr.call("api.decode", func() error {
			var spec api.AppSpec
			if r.migrate {
				var m api.MigrateRequest
				if err := json.Unmarshal(r.body, &m); err != nil {
					return err
				}
				spec = m.App
			} else {
				var p api.PlaceRequest
				if err := json.Unmarshal(r.body, &p); err != nil {
					return err
				}
				spec = p.App
			}
			_, err := spec.ToApplication()
			return err
		})
		if err != nil {
			return err
		}
		d.add("api.decode_us", took, 1e3)
		if i >= len(replies) {
			continue
		}
		var resp interface{} = &api.PlaceResponse{}
		if r.migrate {
			resp = &api.MigrateResponse{}
		}
		if err := json.Unmarshal(replies[i], resp); err != nil {
			return err
		}
		took, err = tr.call("api.encode", func() error {
			return json.NewEncoder(io.Discard).Encode(resp)
		})
		if err != nil {
			return err
		}
		d.add("api.encode_us", took, 1e3)
	}
	return nil
}

func (b *serveBench) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := b.hs.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		_ = b.hs.Close()
	}
	<-b.done
	b.client.CloseIdleConnections()
}
