package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"

	"choreo/internal/api"
	"choreo/internal/obs"
	"choreo/internal/serve"
)

// TestPromMetricsEndpoint pins the scrape contract: GET /metrics serves
// valid Prometheus text exposition with the serve-plane families, and
// its counters count the requests served.
func TestPromMetricsEndpoint(t *testing.T) {
	_, ts := simServer(t, serve.Config{})
	c := &api.Client{BaseURL: ts.URL}
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := c.Place(ctx, api.PlaceRequest{App: testApp}); err != nil {
			t.Fatal(err)
		}
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %v", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q, want text/plain exposition", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := obs.ValidatePrometheus(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, body)
	}
	for _, fam := range []string{
		"choreo_http_request_seconds",
		"choreo_http_requests_total",
		"choreo_epochs_total",
		"choreo_epoch_measure_seconds",
		"choreo_placements_total",
		"choreo_migrations_total",
		"choreo_snapshot_age_seconds",
		"choreo_snapshot_epoch",
	} {
		found := false
		for _, n := range stats.Names {
			if n == fam {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("family %s missing from exposition (have %v)", fam, stats.Names)
		}
	}
	out := string(body)
	if !strings.Contains(out, "choreo_placements_total 3") {
		t.Errorf("placements counter wrong:\n%s", out)
	}
	if !strings.Contains(out, "choreo_snapshot_epoch 1") {
		t.Errorf("snapshot epoch gauge wrong:\n%s", out)
	}
	if !strings.Contains(out, `choreo_http_requests_total{endpoint="place",code="200"} 3`) {
		t.Errorf("request counter for place missing:\n%s", out)
	}
	if !strings.Contains(out, `choreo_http_request_seconds_count{endpoint="place"} 3`) {
		t.Errorf("latency histogram for place missing:\n%s", out)
	}
}

// TestV1JSONErrors pins the satellite fix: unknown /v1 paths and known
// paths with the wrong method answer JSON api.ErrorResponse, never the
// default mux's text page.
func TestV1JSONErrors(t *testing.T) {
	_, ts := simServer(t, serve.Config{})

	resp, err := http.Get(ts.URL + "/v1/nonsense")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown path status = %v, want 404", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("404 Content-Type = %q, want application/json", ct)
	}
	var apiErr api.ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&apiErr); err != nil {
		t.Fatalf("404 body is not JSON: %v", err)
	}
	if apiErr.V != api.Version || !strings.Contains(apiErr.Error, "/v1/nonsense") {
		t.Errorf("404 error = %+v", apiErr)
	}

	// Wrong method on a known path: 405 with the Allow header set.
	resp2, err := http.Get(ts.URL + "/v1/place")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/place status = %v, want 405", resp2.Status)
	}
	if allow := resp2.Header.Get("Allow"); allow != http.MethodPost {
		t.Errorf("Allow = %q, want POST", allow)
	}
	if ct := resp2.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("405 Content-Type = %q, want application/json", ct)
	}
	var apiErr2 api.ErrorResponse
	if err := json.NewDecoder(resp2.Body).Decode(&apiErr2); err != nil {
		t.Fatalf("405 body is not JSON: %v", err)
	}
	if !strings.Contains(apiErr2.Error, "POST") {
		t.Errorf("405 error does not name the right method: %+v", apiErr2)
	}
}

// TestMetricsContentType pins that the retired JSON counters endpoint
// answers like any unknown /v1 path — a JSON 404 — now that /metrics is
// the only metrics surface.
func TestMetricsContentType(t *testing.T) {
	_, ts := simServer(t, serve.Config{})
	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("/v1/metrics status = %v, want 404", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("/v1/metrics Content-Type = %q, want application/json", ct)
	}
}

// TestQuota429Observability drives a tenant over quota and checks the
// rejection is visible on both surfaces: the 429 QuotaError and the
// per-tenant Prometheus counter.
func TestQuota429Observability(t *testing.T) {
	_, ts := simServer(t, serve.Config{QuotaRate: 0.001, QuotaBurst: 1})
	ctx := context.Background()
	a := &api.Client{BaseURL: ts.URL, Tenant: "alice"}
	if _, err := a.Place(ctx, api.PlaceRequest{App: testApp}); err != nil {
		t.Fatalf("first request rejected: %v", err)
	}
	for i := 0; i < 2; i++ {
		_, err := a.Place(ctx, api.PlaceRequest{App: testApp})
		var qe *api.QuotaError
		if !errors.As(err, &qe) {
			t.Fatalf("over-quota request %d: got %v, want QuotaError", i, err)
		}
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), `choreo_quota_rejected_total{tenant="alice"} 2`) {
		t.Errorf("per-tenant rejection counter missing:\n%s", body)
	}
	if !strings.Contains(string(body), `choreo_http_requests_total{endpoint="place",code="429"} 2`) {
		t.Errorf("429 status counter missing:\n%s", body)
	}
}

// scrapeCounters reads the unlabeled sample values of a /metrics scrape.
func scrapeCounters(url string) (map[string]float64, error) {
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		name, value, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") || strings.Contains(name, "{") {
			continue
		}
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			return nil, fmt.Errorf("sample %q: %w", line, err)
		}
		out[name] = v
	}
	return out, nil
}

// TestMetricsMonotonicUnderConcurrency hammers /v1/place from several
// goroutines while others scrape /metrics, asserting every poller sees
// a non-decreasing counter sequence — the counters are atomics, never
// locked, so this doubles as the -race exercise for the metrics path.
func TestMetricsMonotonicUnderConcurrency(t *testing.T) {
	_, ts := simServer(t, serve.Config{})
	ctx := context.Background()
	const placers, pollers, perPlacer = 4, 3, 25
	counters := []string{"choreo_placements_total", "choreo_epochs_total", "choreo_migrations_total"}

	var wg, placerWG sync.WaitGroup
	errs := make(chan error, placers+pollers)
	done := make(chan struct{})
	for i := 0; i < placers; i++ {
		wg.Add(1)
		placerWG.Add(1)
		go func(id int) {
			defer wg.Done()
			defer placerWG.Done()
			c := &api.Client{BaseURL: ts.URL, Tenant: fmt.Sprintf("t%d", id)}
			for j := 0; j < perPlacer; j++ {
				if _, err := c.Place(ctx, api.PlaceRequest{App: testApp}); err != nil {
					errs <- fmt.Errorf("placer %d: %w", id, err)
					return
				}
			}
		}(i)
	}
	for i := 0; i < pollers; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			prev := map[string]float64{}
			for {
				select {
				case <-done:
					return
				default:
				}
				m, err := scrapeCounters(ts.URL)
				if err != nil {
					errs <- fmt.Errorf("poller %d: %w", id, err)
					return
				}
				for _, name := range counters {
					if m[name] < prev[name] {
						errs <- fmt.Errorf("poller %d: %s went backwards: %v then %v", id, name, prev[name], m[name])
						return
					}
				}
				prev = m
			}
		}(i)
	}

	// Wait for the placers, then release the pollers.
	placerWG.Wait()
	close(done)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	m, err := scrapeCounters(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if m["choreo_placements_total"] != placers*perPlacer {
		t.Errorf("placements = %v, want %d", m["choreo_placements_total"], placers*perPlacer)
	}
}
