package serve

import (
	"net/http"
	"sync"
	"time"

	"choreo/internal/obs"
)

// serveMetrics holds the server's obs handles — the service's only
// counters, all scraped from GET /metrics.
type serveMetrics struct {
	placements    *obs.Counter      // choreo_placements_total
	migrations    *obs.Counter      // choreo_migrations_total
	httpSeconds   *obs.HistogramVec // choreo_http_request_seconds{endpoint}
	httpRequests  *obs.CounterVec   // choreo_http_requests_total{endpoint,code}
	quotaRejected *obs.CounterVec   // choreo_quota_rejected_total{tenant}
	rejected      tenantLabels      // quotaRejected's tenant label values
	epochFailures *obs.CounterVec   // choreo_epoch_failures_total{cause}
	epochSeconds  *obs.Histogram    // choreo_epoch_measure_seconds
	acc           *obs.Accuracy     // choreo_prediction_* (sampled executions)
}

func (s *Server) initObs() {
	r := s.obs.Registry()
	s.metrics = serveMetrics{
		placements: r.Counter("choreo_placements_total", "Placements computed."),
		migrations: r.Counter("choreo_migrations_total", "Migration evaluations computed."),
		httpSeconds: r.HistogramVec("choreo_http_request_seconds",
			"HTTP request latency by endpoint.", obs.DurationBuckets(), "endpoint"),
		httpRequests: r.CounterVec("choreo_http_requests_total",
			"HTTP requests by endpoint and status code.", "endpoint", "code"),
		quotaRejected: r.CounterVec("choreo_quota_rejected_total",
			"Requests rejected by per-tenant quota.", "tenant"),
		epochFailures: r.CounterVec("choreo_epoch_failures_total",
			"Failed measurement epochs by cause.", "cause"),
		epochSeconds: r.Histogram("choreo_epoch_measure_seconds",
			"Wall-clock duration of mesh measurement epochs.", obs.DurationBuckets()),
		acc: obs.NewAccuracy(r),
	}
	r.CounterFunc("choreo_epochs_total",
		"Measurement epochs published.",
		func() float64 { return float64(s.epochSeq.Load()) })
	r.GaugeFunc("choreo_snapshot_age_seconds",
		"Age of the published snapshot (0 before the first epoch).",
		func() float64 {
			if snap := s.store.Current(); snap != nil {
				return snap.Age(time.Now()).Seconds()
			}
			return 0
		})
	r.GaugeFunc("choreo_snapshot_epoch",
		"Epoch number of the published snapshot (0 before the first).",
		func() float64 { return float64(s.currentEpoch()) })
	obs.RegisterRuntimeMetrics(r)
}

// maxTenantLabels bounds the tenant label values of
// choreo_quota_rejected_total. The X-Choreo-Tenant header is chosen by
// the client, so one that rotates it would otherwise add a series per
// rejected request for the life of the process.
const maxTenantLabels = 100

// overflowTenant labels the rejections of every tenant past the first
// maxTenantLabels. It is empty, which tenantOf never returns (a request
// without X-Choreo-Tenant is tenant "default"), so no real tenant's
// series is merged into it.
const overflowTenant = ""

// tenantLabels hands out the tenant label of a rejection: the tenant
// itself for the first maxTenantLabels distinct tenants, overflowTenant
// for every later one.
type tenantLabels struct {
	mu   sync.Mutex
	seen map[string]bool
}

func (l *tenantLabels) label(tenant string) string {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.seen[tenant] {
		return tenant
	}
	if len(l.seen) >= maxTenantLabels {
		return overflowTenant
	}
	if l.seen == nil {
		l.seen = make(map[string]bool)
	}
	l.seen[tenant] = true
	return tenant
}

// statusWriter captures the response code for the request counters.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

// instrument wraps a handler with the per-endpoint latency histogram
// and status-code counter. Observation happens after the response is
// written — off the request's serialization path.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w}
		h(sw, r)
		code := sw.code
		if code == 0 {
			code = http.StatusOK
		}
		s.metrics.httpSeconds.With(endpoint).Observe(time.Since(start).Seconds())
		s.metrics.httpRequests.With(endpoint, httpCodeLabel(code)).Inc()
	}
}

func httpCodeLabel(code int) string {
	// Small fixed set — avoids strconv on the request path.
	switch code {
	case http.StatusOK:
		return "200"
	case http.StatusBadRequest:
		return "400"
	case http.StatusNotFound:
		return "404"
	case http.StatusMethodNotAllowed:
		return "405"
	case http.StatusUnprocessableEntity:
		return "422"
	case http.StatusTooManyRequests:
		return "429"
	case http.StatusServiceUnavailable:
		return "503"
	default:
		return obs.Int("", int64(code)).Value
	}
}

// handlePromMetrics serves the registry in Prometheus text exposition
// format — the scrape endpoint.
func (s *Server) handlePromMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.obs.Registry().WritePrometheus(w)
}
