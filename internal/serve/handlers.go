package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/pprof"
	"time"

	"choreo/internal/api"
	"choreo/internal/core"
	"choreo/internal/place"
)

// Handler returns the service's HTTP mux:
//
//	POST /v1/place    place an application on the current snapshot
//	POST /v1/migrate  should an existing placement move?
//	GET  /v1/health   liveness + current epoch
//	GET  /v1/env      the current snapshot's environment
//	GET  /metrics     Prometheus text exposition (every counter)
//
// Every endpoint is wrapped in the request-latency/status-code
// instrumentation; unknown /v1/* paths get a JSON 404 (and known paths
// with the wrong method a JSON 405) instead of the default mux's
// plain-text response.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/place", s.instrument("place", s.handlePlace))
	mux.HandleFunc("POST /v1/migrate", s.instrument("migrate", s.handleMigrate))
	mux.HandleFunc("GET /v1/health", s.instrument("health", s.handleHealth))
	mux.HandleFunc("GET /v1/env", s.instrument("env", s.handleEnv))
	mux.HandleFunc("GET /metrics", s.instrument("prom", s.handlePromMetrics))
	mux.HandleFunc("/v1/", s.instrument("unknown", s.handleV1Fallback))
	if s.cfg.Pprof {
		// Deliberately unwrapped: pprof.Profile streams for its whole
		// -seconds window and would smear the request-latency
		// histograms with 30-second "requests".
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// v1Methods is the API surface the fallback consults: the method each
// known /v1 path requires. Keep in sync with the registrations above.
var v1Methods = map[string]string{
	"/v1/place":   http.MethodPost,
	"/v1/migrate": http.MethodPost,
	"/v1/health":  http.MethodGet,
	"/v1/env":     http.MethodGet,
}

// handleV1Fallback catches every /v1 request the typed routes did not:
// a known path with the wrong method gets a 405 naming the right one, an
// unknown path a 404 — both as JSON api.ErrorResponse, so clients never
// see the default mux's text/plain error page.
func (s *Server) handleV1Fallback(w http.ResponseWriter, r *http.Request) {
	if want, ok := v1Methods[r.URL.Path]; ok {
		w.Header().Set("Allow", want)
		writeErr(w, http.StatusMethodNotAllowed, "%s requires %s, got %s", r.URL.Path, want, r.Method)
		return
	}
	writeErr(w, http.StatusNotFound, "no such endpoint %s", r.URL.Path)
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, format string, args ...interface{}) {
	writeJSON(w, status, api.ErrorResponse{V: api.Version, Error: fmt.Sprintf(format, args...)})
}

// MaxRequestBytes caps a /v1/place or /v1/migrate request body. An
// application is a CPU vector and a transfer list, so a mebibyte holds
// tens of thousands of transfers; a larger body is refused with 413
// before it is buffered, even when its first JSON value ends sooner.
const MaxRequestBytes = 1 << 20

// decodeBody reads a compute endpoint's request body, of at most
// MaxRequestBytes, in full and decodes it into v with decode
// (api.DecodePlace or api.DecodeMigrate). On failure it writes the
// rejection — 413 for an oversize body, 400 for anything else — and
// reports false.
func decodeBody[T any](w http.ResponseWriter, r *http.Request, decode func([]byte, *T) error, v *T) bool {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxRequestBytes))
	if err == nil {
		err = decode(body, v)
	}
	var tooBig *http.MaxBytesError
	switch {
	case err == nil:
		return true
	case errors.As(err, &tooBig):
		writeErr(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooBig.Limit)
	default:
		writeErr(w, http.StatusBadRequest, "decode request: %v", err)
	}
	return false
}

func tenantOf(r *http.Request) string {
	if t := r.Header.Get("X-Choreo-Tenant"); t != "" {
		return t
	}
	return "default"
}

// admit spends a token of the X-Choreo-Tenant quota, before the request
// body is read, so a tenant over quota costs no decode. It reports
// false after writing the 429.
func (s *Server) admit(w http.ResponseWriter, r *http.Request) bool {
	if tenant := tenantOf(r); !s.quota.allow(tenant) {
		s.metrics.quotaRejected.With(s.metrics.rejected.label(tenant)).Inc()
		writeErr(w, http.StatusTooManyRequests, "tenant %q over quota", tenant)
		return false
	}
	return true
}

// snapshotFor runs the version handshake on a decoded request's "v"
// field and returns the current snapshot, or nil after writing the
// rejection.
func (s *Server) snapshotFor(w http.ResponseWriter, v int) *Snapshot {
	if err := api.CheckClientVersion(v); err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return nil
	}
	snap := s.store.Current()
	if snap == nil {
		writeErr(w, http.StatusServiceUnavailable, "no measurement epoch published yet")
		return nil
	}
	return snap
}

// appStatus is the status for a failed AppSpec.ToApplication: 422 for
// a well-formed application over a size cap, 400 otherwise.
func appStatus(err error) int {
	if errors.Is(err, api.ErrTooManyTasks) || errors.Is(err, api.ErrTooManyTransfers) {
		return http.StatusUnprocessableEntity
	}
	return http.StatusBadRequest
}

func (s *Server) handlePlace(w http.ResponseWriter, r *http.Request) {
	if !s.admit(w, r) {
		return
	}
	var req api.PlaceRequest
	if !decodeBody(w, r, api.DecodePlace, &req) {
		return
	}
	snap := s.snapshotFor(w, req.V)
	if snap == nil {
		return
	}
	alg, err := api.ParseAlgorithm(req.Algorithm)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	model, err := api.ParseModel(req.Model, s.cfg.Model)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	app, err := req.App.ToApplication()
	if err != nil {
		writeErr(w, appStatus(err), "%v", err)
		return
	}
	// Every request takes a sequence number, so a random placement's seed
	// does not depend on which algorithms earlier requests used; only
	// random placement pays for building the generator.
	seq := s.placeSeq.Add(1)
	var rng *rand.Rand
	if alg == core.AlgRandom {
		rng = rand.New(rand.NewSource(s.cfg.Seed + seq))
	}
	p, err := core.PlaceWith(app, snap.Env, alg, model, rng)
	if err != nil {
		writeErr(w, http.StatusUnprocessableEntity, "placement failed: %v", err)
		return
	}
	ct, err := place.CompletionTime(app, snap.Env, p, model)
	if err != nil {
		writeErr(w, http.StatusUnprocessableEntity, "completion time: %v", err)
		return
	}
	s.metrics.placements.Inc()
	writeJSON(w, http.StatusOK, api.PlaceResponse{
		V:                          api.Version,
		Epoch:                      snap.Epoch,
		EnvHash:                    snap.Hash,
		MachineOf:                  p.MachineOf,
		PredictedCompletionSeconds: ct.Seconds(),
		Algorithm:                  alg.Name(),
		Model:                      model.String(),
	})
}

func (s *Server) handleMigrate(w http.ResponseWriter, r *http.Request) {
	if !s.admit(w, r) {
		return
	}
	var req api.MigrateRequest
	if !decodeBody(w, r, api.DecodeMigrate, &req) {
		return
	}
	snap := s.snapshotFor(w, req.V)
	if snap == nil {
		return
	}
	model, err := api.ParseModel(req.Model, s.cfg.Model)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	app, err := req.App.ToApplication()
	if err != nil {
		writeErr(w, appStatus(err), "%v", err)
		return
	}
	if len(req.Current) != app.Tasks() {
		writeErr(w, http.StatusBadRequest, "current placement covers %d tasks, app has %d", len(req.Current), app.Tasks())
		return
	}
	machines := snap.Env.Machines()
	for i, m := range req.Current {
		if m < 0 || m >= machines {
			writeErr(w, http.StatusBadRequest, "current[%d] = %d out of range (snapshot has %d machines)", i, m, machines)
			return
		}
	}
	cur, err := place.CompletionTime(app, snap.Env, place.Placement{MachineOf: req.Current}, model)
	if err != nil {
		writeErr(w, http.StatusUnprocessableEntity, "current completion time: %v", err)
		return
	}
	// Migration always re-places with the paper's greedy algorithm —
	// the §6.3 re-evaluation loop compares "where you are" against
	// "where choreo would put you now".
	prop, err := place.Greedy(app, snap.Env, model)
	if err != nil {
		writeErr(w, http.StatusUnprocessableEntity, "re-placement failed: %v", err)
		return
	}
	propCT, err := place.CompletionTime(app, snap.Env, prop, model)
	if err != nil {
		writeErr(w, http.StatusUnprocessableEntity, "proposed completion time: %v", err)
		return
	}
	migrate := propCT < cur
	if req.MinGain > 0 && cur > 0 {
		gain := (cur - propCT).Seconds() / cur.Seconds()
		migrate = gain >= req.MinGain
	}
	s.metrics.migrations.Inc()
	writeJSON(w, http.StatusOK, api.MigrateResponse{
		V:               api.Version,
		Epoch:           snap.Epoch,
		EnvHash:         snap.Hash,
		Migrate:         migrate,
		MachineOf:       prop.MachineOf,
		CurrentSeconds:  cur.Seconds(),
		ProposedSeconds: propCT.Seconds(),
		Model:           model.String(),
	})
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	snap := s.store.Current()
	if snap == nil {
		writeJSON(w, http.StatusServiceUnavailable, api.HealthResponse{
			V: api.Version, Status: "starting", Backend: s.cfg.Backend.Name(),
		})
		return
	}
	writeJSON(w, http.StatusOK, api.HealthResponse{
		V:       api.Version,
		Status:  "ok",
		Backend: s.cfg.Backend.Name(),
		Epoch:   snap.Epoch,
		VMs:     snap.Env.Machines(),
	})
}

func (s *Server) handleEnv(w http.ResponseWriter, r *http.Request) {
	snap := s.store.Current()
	if snap == nil {
		writeErr(w, http.StatusServiceUnavailable, "no measurement epoch published yet")
		return
	}
	writeJSON(w, http.StatusOK, api.EnvResponse{
		V:          api.Version,
		Epoch:      snap.Epoch,
		EnvHash:    snap.Hash,
		AgeSeconds: snap.Age(time.Now()).Seconds(),
		Env:        api.EnvFrom(snap.Env),
	})
}
