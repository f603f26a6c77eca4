package serve_test

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"choreo/internal/api"
	"choreo/internal/place"
	"choreo/internal/serve"
	"choreo/internal/sweep/backend"
	"choreo/internal/sweep/backend/livetest"
	"choreo/internal/topology"
)

func simServer(t *testing.T, cfg serve.Config) (*serve.Server, *httptest.Server) {
	t.Helper()
	if cfg.Backend == nil {
		cfg.Backend = backend.NewSim()
		cfg.Cell = backend.Cell{Topology: "ec2-2013", Profile: topology.EC22013(), VMs: 8, Seed: 1}
		cfg.Model = place.Hose
	}
	s := serve.New(cfg)
	if err := s.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

var testApp = api.AppSpec{
	Name:        "shuffle",
	CPU:         []float64{1, 1, 1, 1},
	TransfersMB: [][3]float64{{0, 2, 200}, {0, 3, 200}, {1, 2, 200}, {1, 3, 200}},
}

func TestPlaceSim(t *testing.T) {
	_, ts := simServer(t, serve.Config{})
	c := &api.Client{BaseURL: ts.URL}
	resp, err := c.Place(context.Background(), api.PlaceRequest{App: testApp})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Epoch != 1 {
		t.Errorf("epoch = %d, want 1 (boot epoch)", resp.Epoch)
	}
	if len(resp.MachineOf) != 4 {
		t.Errorf("machineOf covers %d tasks, want 4", len(resp.MachineOf))
	}
	if resp.PredictedCompletionSeconds <= 0 {
		t.Errorf("predicted completion %v, want > 0", resp.PredictedCompletionSeconds)
	}
	if resp.Algorithm != "choreo" || resp.Model != "hose" {
		t.Errorf("defaults: algorithm %q model %q, want choreo/hose", resp.Algorithm, resp.Model)
	}
	if resp.EnvHash == "" {
		t.Error("response carries no env hash")
	}

	// Health, metrics and env agree on the snapshot.
	h, err := c.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Epoch != 1 || h.VMs != 8 || h.Backend != "sim" {
		t.Errorf("health = %+v", h)
	}
	m, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if m.Placements != 1 || m.Epochs != 1 || m.Rejected != 0 {
		t.Errorf("metrics = %+v", m)
	}
	env, err := c.Env(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if env.EnvHash != resp.EnvHash || len(env.RatesMbps) != 8 || len(env.CPUCap) != 8 {
		t.Errorf("env = epoch %d hash %s, %dx%d", env.Epoch, env.EnvHash, len(env.RatesMbps), len(env.CPUCap))
	}
}

func TestMigrateSim(t *testing.T) {
	_, ts := simServer(t, serve.Config{})
	c := &api.Client{BaseURL: ts.URL}
	// Pile every task on machine 0: greedy should beat that, or at
	// worst tie; the response must carry both predictions.
	resp, err := c.Migrate(context.Background(), api.MigrateRequest{
		App:     testApp,
		Current: []int{0, 0, 0, 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.CurrentSeconds <= 0 || resp.ProposedSeconds <= 0 {
		t.Errorf("predictions: current %v proposed %v, want both > 0", resp.CurrentSeconds, resp.ProposedSeconds)
	}
	if resp.ProposedSeconds > resp.CurrentSeconds {
		t.Errorf("greedy re-placement (%vs) worse than all-on-one (%vs)", resp.ProposedSeconds, resp.CurrentSeconds)
	}
	if len(resp.MachineOf) != 4 {
		t.Errorf("proposed placement covers %d tasks, want 4", len(resp.MachineOf))
	}

	// An out-of-range current placement is a 400, not a panic.
	_, err = c.Migrate(context.Background(), api.MigrateRequest{App: testApp, Current: []int{0, 0, 0, 99}})
	if err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("bad current placement: %v", err)
	}
}

func TestVersionMismatchBothDirections(t *testing.T) {
	_, ts := simServer(t, serve.Config{})

	// Client speaks v0 (field omitted): the server must name both
	// versions, mirroring the cluster protocol idiom.
	body := strings.NewReader(`{"app":{"name":"a","cpu":[1]}}`)
	resp, err := http.Post(ts.URL+"/v1/place", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("status = %v, want 400", resp.Status)
	}
	var apiErr api.ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&apiErr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(apiErr.Error, "client speaks v0, server needs v1") {
		t.Errorf("server rejection imprecise: %q", apiErr.Error)
	}

	// Server speaks v2: the client must refuse the response with the
	// mirrored error.
	future := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"v":2,"epoch":1,"machineOf":[0]}`))
	}))
	defer future.Close()
	c := &api.Client{BaseURL: future.URL}
	_, err = c.Place(context.Background(), api.PlaceRequest{App: testApp})
	if err == nil || !strings.Contains(err.Error(), "server speaks v2, client needs v1") {
		t.Errorf("client-side rejection imprecise: %v", err)
	}
}

func TestQuota(t *testing.T) {
	// 1 token/sec, burst 2: the third immediate request from one tenant
	// must be rejected with 429; a different tenant has its own bucket.
	_, ts := simServer(t, serve.Config{QuotaRate: 1, QuotaBurst: 2})
	a := &api.Client{BaseURL: ts.URL, Tenant: "alice"}
	b := &api.Client{BaseURL: ts.URL, Tenant: "bob"}
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if _, err := a.Place(ctx, api.PlaceRequest{App: testApp}); err != nil {
			t.Fatalf("request %d within burst rejected: %v", i, err)
		}
	}
	_, err := a.Place(ctx, api.PlaceRequest{App: testApp})
	var qe *api.QuotaError
	if !errors.As(err, &qe) {
		t.Fatalf("over-burst request: got %v, want QuotaError", err)
	}
	if _, err := b.Place(ctx, api.PlaceRequest{App: testApp}); err != nil {
		t.Errorf("tenant bob caught alice's rejection: %v", err)
	}
	// Read-only endpoints stay exempt for the throttled tenant.
	if _, err := a.Metrics(ctx); err != nil {
		t.Errorf("metrics throttled: %v", err)
	}
	m, _ := a.Metrics(ctx)
	if m.Rejected != 1 {
		t.Errorf("rejected counter = %d, want 1", m.Rejected)
	}
}

// TestLoopbackSnapshotIsolation is the tentpole's proof: a server on a
// real loopback fleet answers concurrent placements while measurement
// epochs churn underneath, and no request ever observes a half-refreshed
// mesh — every response's (epoch, envHash) pair is consistent with the
// published snapshots, and requests keep succeeding mid-epoch.
func TestLoopbackSnapshotIsolation(t *testing.T) {
	if testing.Short() {
		t.Skip("live loopback mesh in -short mode")
	}
	mesh, err := livetest.Start(3)
	if err != nil {
		t.Fatal(err)
	}
	defer mesh.Close()
	live, err := backend.NewLive(backend.LiveConfig{
		Agents:  mesh.Addrs(),
		Timeout: 10 * time.Second,
		Train:   livetest.QuickTrain(),
		Epoch:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := serve.New(serve.Config{
		Backend: live,
		Cell:    backend.Cell{Topology: "loopback", VMs: 3, Seed: 42},
	})
	ctx := context.Background()
	if err := s.Refresh(ctx); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	app := api.AppSpec{
		Name:        "pair",
		CPU:         []float64{1, 1, 1},
		TransfersMB: [][3]float64{{0, 1, 50}, {1, 2, 50}},
	}

	// Churn epochs in the background while clients hammer /v1/place.
	const epochs = 3
	var wg sync.WaitGroup
	wg.Add(1)
	refreshDone := make(chan error, 1)
	go func() {
		defer wg.Done()
		for i := 0; i < epochs; i++ {
			if err := s.Refresh(ctx); err != nil {
				refreshDone <- err
				return
			}
		}
		refreshDone <- nil
	}()

	const clients = 4
	type obs struct {
		epoch int64
		hash  string
	}
	// Each client tallies the (epoch, hash) pairs it saw and sends the
	// tally once on exit, so no send can block while epochs churn.
	results := make(chan map[obs]int, clients)
	errs := make(chan error, clients)
	stop := make(chan struct{})
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			seen := make(map[obs]int)
			defer func() { results <- seen }()
			c := &api.Client{BaseURL: ts.URL, Tenant: "t"}
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := c.Place(ctx, api.PlaceRequest{App: app})
				if err != nil {
					errs <- err
					return
				}
				seen[obs{resp.Epoch, resp.EnvHash}]++
			}
		}(i)
	}

	if err := <-refreshDone; err != nil {
		t.Fatalf("background epoch failed: %v", err)
	}
	close(stop)
	wg.Wait()
	close(results)
	close(errs)
	for err := range errs {
		t.Fatalf("placement failed during epoch churn: %v", err)
	}

	// Snapshot isolation: epoch -> hash must be a function, and every
	// epoch seen must be one the server actually published.
	hashOf := make(map[int64]string)
	total := 0
	for seen := range results {
		for o, n := range seen {
			total += n
			if o.epoch < 1 || o.epoch > epochs+1 {
				t.Fatalf("response epoch %d never published (1..%d)", o.epoch, epochs+1)
			}
			if prev, ok := hashOf[o.epoch]; ok && prev != o.hash {
				t.Fatalf("epoch %d served two environments: %s and %s — torn snapshot", o.epoch, prev, o.hash)
			}
			hashOf[o.epoch] = o.hash
		}
	}
	if total == 0 {
		t.Fatal("no placements completed during epoch churn")
	}
	t.Logf("%d placements across %d observed epochs", total, len(hashOf))
}

// TestRefreshCanceled pins graceful shutdown: canceling the context
// mid-measurement aborts the epoch, keeps the previous snapshot
// published, and counts the failure.
func TestRefreshCanceled(t *testing.T) {
	if testing.Short() {
		t.Skip("live loopback mesh in -short mode")
	}
	mesh, err := livetest.Start(2)
	if err != nil {
		t.Fatal(err)
	}
	defer mesh.Close()
	slow := livetest.QuickTrain()
	slow.Bursts = 40
	slow.Gap = 50 * time.Millisecond
	live, err := backend.NewLive(backend.LiveConfig{
		Agents: mesh.Addrs(), Timeout: 10 * time.Second, Train: slow, Epoch: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := serve.New(serve.Config{
		Backend: live,
		Cell:    backend.Cell{Topology: "loopback", VMs: 2, Seed: 1},
	})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	err = s.Refresh(ctx)
	if err == nil {
		t.Fatal("Refresh survived cancellation")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error does not wrap context.Canceled: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("cancellation took %v", elapsed)
	}
	if s.Snapshot() != nil {
		t.Error("failed boot epoch published a snapshot")
	}
}
