// Package api defines the versioned JSON types of the choreo placement
// service — the stable wire contract between `choreo serve`, its HTTP
// handlers, and every client (`choreo place -server`, the load harness,
// plain curl).
//
// Every request and response carries an explicit protocol version in a
// "v" field, mirroring the cluster control protocol: a server rejects a
// request whose version it does not speak with a precise "client speaks
// vN, server needs vM" error, and a client refuses a response the same
// way in the other direction. The version is bumped only on incompatible
// schema changes; additive fields do not bump it.
//
// The offline CLI speaks the same types: `choreo place` decodes -app as
// an AppSpec and -rates as an Env (the body of GET /v1/env), and prints
// the machineOf / predictedCompletionSeconds pair PlaceResponse carries
// — a profile written for the offline tool posts to the service
// unchanged, and a served snapshot feeds the offline tool.
package api

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"choreo/internal/core"
	"choreo/internal/place"
	"choreo/internal/profile"
	"choreo/internal/units"
)

// Version is the placement API protocol version. Bump only on
// incompatible changes to the request or response schemas.
const Version = 1

// CheckClientVersion is the server-side handshake: it validates the
// version a request carried. A zero version means the client omitted
// the field entirely, which is reported as v0 — pre-versioning clients
// are indistinguishable from broken ones and both must upgrade.
func CheckClientVersion(v int) error {
	if v != Version {
		return fmt.Errorf("api: client speaks v%d, server needs v%d; upgrade the client", v, Version)
	}
	return nil
}

// CheckServerVersion is the client-side handshake: it validates the
// version a response carried, so a client talking to a future server
// fails with the exact version gap instead of a decode error.
func CheckServerVersion(v int) error {
	if v != Version {
		return fmt.Errorf("api: server speaks v%d, client needs v%d; upgrade choreo", v, Version)
	}
	return nil
}

// AppSpec is the application profile on the wire — the same schema
// `choreo place -app` reads from disk, so offline profiles post to the
// service verbatim.
type AppSpec struct {
	Name string `json:"name"`
	// CPU[i] is cores demanded by task i; its length is the task count.
	CPU []float64 `json:"cpu"`
	// TransfersMB is a list of [from, to, megabytes] triples.
	TransfersMB [][3]float64 `json:"transfersMB"`
}

// MaxTasks caps an application's task count. The traffic matrix holds
// one 8-byte entry per ordered task pair, so the cap bounds it at
// 8 MiB; uncapped, a 16 KiB body of 4,000 cpu entries asked for 122 MB.
const MaxTasks = 1024

// MaxTransfers caps the length of an application's transfer list.
const MaxTransfers = 1 << 16

// ErrTooManyTasks and ErrTooManyTransfers are wrapped by ToApplication's
// error for a spec over MaxTasks or MaxTransfers; the placement service
// answers them with 422.
var (
	ErrTooManyTasks     = errors.New("api: too many tasks")
	ErrTooManyTransfers = errors.New("api: too many transfers")
)

// ToApplication converts the wire spec into a placement-engine profile.
// A spec over MaxTasks or MaxTransfers is refused before anything is
// allocated for it. A transfer's task indices must be integers and its
// size must not be negative; a zero size adds nothing.
func (a AppSpec) ToApplication() (*profile.Application, error) {
	if len(a.CPU) == 0 {
		return nil, fmt.Errorf("api: app %q has no tasks (empty cpu array)", a.Name)
	}
	if len(a.CPU) > MaxTasks {
		return nil, fmt.Errorf("%w: app %q has %d, the cap is %d", ErrTooManyTasks, a.Name, len(a.CPU), MaxTasks)
	}
	if len(a.TransfersMB) > MaxTransfers {
		return nil, fmt.Errorf("%w: app %q has %d, the cap is %d", ErrTooManyTransfers, a.Name, len(a.TransfersMB), MaxTransfers)
	}
	tm := profile.NewTrafficMatrix(len(a.CPU))
	for _, tr := range a.TransfersMB {
		err := checkTransfer(tr)
		if err == nil {
			err = tm.Add(int(tr[0]), int(tr[1]), units.ByteSize(tr[2]*1e6))
		}
		if err != nil {
			return nil, fmt.Errorf("api: app %q transfer [%g %g %g]: %w", a.Name, tr[0], tr[1], tr[2], err)
		}
	}
	return &profile.Application{Name: a.Name, CPU: a.CPU, TM: tm}, nil
}

// checkTransfer refuses a [from, to, MB] triple that int conversion
// would truncate or that the traffic matrix would take as negative.
func checkTransfer(tr [3]float64) error {
	if tr[0] != math.Trunc(tr[0]) || tr[1] != math.Trunc(tr[1]) {
		return errors.New("task indices must be integers")
	}
	if !(tr[2] >= 0) {
		return errors.New("size must not be negative")
	}
	return nil
}

// PlaceRequest asks the service to place an application on the current
// mesh snapshot.
type PlaceRequest struct {
	V   int     `json:"v"`
	App AppSpec `json:"app"`
	// Algorithm selects the placement policy; empty means "choreo".
	// Valid: choreo, random, round-robin, min-machines.
	Algorithm string `json:"algorithm,omitempty"`
	// Model selects the rate model; empty means the server's default.
	// Valid: hose, pipe.
	Model string `json:"model,omitempty"`
}

// PlaceResponse reports a placement and the snapshot it was computed
// against.
type PlaceResponse struct {
	V int `json:"v"`
	// Epoch identifies the mesh snapshot the placement read; two
	// responses with equal epochs saw byte-identical environments.
	Epoch int64 `json:"epoch"`
	// EnvHash fingerprints the snapshot's environment, so a client (or
	// test) can verify snapshot isolation: equal epoch implies equal
	// hash.
	EnvHash string `json:"envHash"`
	// MachineOf[i] is the machine assigned to task i.
	MachineOf []int `json:"machineOf"`
	// PredictedCompletionSeconds is the model's completion-time
	// objective for the placement on the snapshot environment.
	PredictedCompletionSeconds float64 `json:"predictedCompletionSeconds"`
	Algorithm                  string  `json:"algorithm"`
	Model                      string  `json:"model"`
}

// MigrateRequest asks whether an application placed under an older
// snapshot should move, given the current mesh — §6.2's re-measurement
// loop as an API call.
type MigrateRequest struct {
	V   int     `json:"v"`
	App AppSpec `json:"app"`
	// Current[i] is the machine task i runs on today.
	Current []int `json:"current"`
	// MinGain is the fractional completion-time improvement required to
	// recommend moving (0.1 = 10% faster); zero means any improvement.
	MinGain float64 `json:"minGain,omitempty"`
	// Model selects the rate model; empty means the server's default.
	Model string `json:"model,omitempty"`
}

// MigrateResponse reports whether to move and what the move buys.
type MigrateResponse struct {
	V       int    `json:"v"`
	Epoch   int64  `json:"epoch"`
	EnvHash string `json:"envHash"`
	// Migrate is true when the proposed placement beats the current one
	// by at least MinGain on the current snapshot.
	Migrate bool `json:"migrate"`
	// MachineOf is the proposed placement (returned even when Migrate
	// is false, so callers can see what was considered).
	MachineOf []int `json:"machineOf"`
	// CurrentSeconds is the predicted completion of the existing
	// placement on the current snapshot; ProposedSeconds of the
	// re-placement.
	CurrentSeconds  float64 `json:"currentSeconds"`
	ProposedSeconds float64 `json:"proposedSeconds"`
	Model           string  `json:"model"`
}

// ErrorResponse is the body of every non-2xx reply.
type ErrorResponse struct {
	V     int    `json:"v"`
	Error string `json:"error"`
}

// HealthResponse answers GET /v1/health.
type HealthResponse struct {
	V int `json:"v"`
	// Status is "ok" once the first measurement epoch has been
	// published; the server does not listen before that.
	Status string `json:"status"`
	// Backend names the measurement plane ("sim", "live").
	Backend string `json:"backend"`
	Epoch   int64  `json:"epoch"`
	// VMs is the snapshot's machine count — the placement capacity.
	VMs int `json:"vms"`
}

// Env is a measured environment on the wire: the body of GET /v1/env
// and the `choreo place -rates` file share it, so a snapshot feeds the
// offline tool directly.
type Env struct {
	// RatesMbps[m][n] is the measured throughput m->n in Mbit/s.
	RatesMbps [][]float64 `json:"ratesMbps"`
	// CPUCap[m] is cores on machine m; absent means 4 per machine.
	CPUCap []float64 `json:"cpuCap"`
}

// EnvFrom converts a measured environment to its wire form.
func EnvFrom(e *place.Environment) Env {
	rates := make([][]float64, len(e.Rates))
	for i, row := range e.Rates {
		rates[i] = make([]float64, len(row))
		for j, r := range row {
			rates[i][j] = r.Mbps()
		}
	}
	return Env{RatesMbps: rates, CPUCap: append([]float64(nil), e.CPUCap...)}
}

// ToEnvironment converts the wire form to a placement environment and
// validates it: a ragged or non-positive rate matrix, or a CPU list of
// the wrong length, is an error.
func (e Env) ToEnvironment() (*place.Environment, error) {
	env := &place.Environment{Rates: make([][]units.Rate, len(e.RatesMbps)), CPUCap: e.CPUCap}
	for i, row := range e.RatesMbps {
		env.Rates[i] = make([]units.Rate, len(row))
		for j, v := range row {
			env.Rates[i][j] = units.Mbps(v)
		}
	}
	if env.CPUCap == nil {
		env.CPUCap = make([]float64, len(env.Rates))
		for i := range env.CPUCap {
			env.CPUCap[i] = 4
		}
	}
	if err := env.Validate(); err != nil {
		return nil, err
	}
	return env, nil
}

// EnvResponse answers GET /v1/env: the current snapshot's measured
// environment with its epoch and staleness.
type EnvResponse struct {
	V       int    `json:"v"`
	Epoch   int64  `json:"epoch"`
	EnvHash string `json:"envHash"`
	// AgeSeconds is the snapshot's staleness: seconds since it was
	// published.
	AgeSeconds float64 `json:"ageSeconds"`
	Env
}

// ParseAlgorithm resolves a wire algorithm name through the core name
// table. Empty means choreo, the paper's algorithm. The service
// intentionally speaks only the online policies — optimal (and the
// sweep's ilp) are offline baselines with exponential cost, not things
// to run per-request.
func ParseAlgorithm(name string) (core.Algorithm, error) {
	if name == "" {
		return core.AlgChoreo, nil
	}
	if alg, ok := core.ParseAlgorithm(name); ok && alg != core.AlgOptimal {
		return alg, nil
	}
	online := core.AlgorithmNames()[:core.AlgOptimal] // every algorithm but optimal
	return 0, fmt.Errorf("api: unknown algorithm %q (valid: %s)", name, strings.Join(online, ", "))
}

// ParseModel resolves a wire rate-model name; fallback is the server's
// configured default for the empty string.
func ParseModel(name string, fallback place.Model) (place.Model, error) {
	if name == "" {
		return fallback, nil
	}
	return place.ParseModel(name)
}
