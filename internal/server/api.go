// Package server implements plutusd's serving core: an HTTP/JSON API
// over harness.Runner with a bounded FIFO job queue, a configurable
// worker pool, server-sent-event progress streams, backpressure, and
// graceful drain.
//
// The wire protocol (version v1):
//
//	POST /v1/runs                 submit a run        → 202 RunStatus
//	                              duplicate in flight → 200 RunStatus (Deduped)
//	                              queue full          → 429 + Retry-After
//	                              draining            → 503
//	GET  /v1/runs/{id}            status/result       → 200 RunStatus
//	GET  /v1/runs/{id}/events     SSE progress stream
//	GET  /v1/runs/{id}/result     finished run, ?format=json|csv|text
//	GET  /v1/schemes              scheme names secmem.ByName accepts
//	GET  /v1/benchmarks           workload names
//	GET  /healthz                 liveness
//	GET  /debug/statsz            queue/worker/cache snapshot
//	GET  /metrics                 Prometheus text exposition of the statsz counters
//	GET  /v1/snapshots            latest PLUTSNAP for a (benchmark, scheme, seed) cell
//	PUT  /v1/snapshots            install a migrated PLUTSNAP before resubmitting its run
//
// Results are rendered by the same internal/harness functions the CLI
// uses (Report, WriteRunJSON, WriteRunCSV), so bytes fetched over the
// wire are identical to the bytes `plutussim` prints for the same run.
package server

import (
	"fmt"

	"github.com/plutus-gpu/plutus/internal/stats"
)

// RunRequest is the POST /v1/runs body.
type RunRequest struct {
	// Benchmark is a workload name (see GET /v1/benchmarks).
	Benchmark string `json:"benchmark"`
	// Scheme is a secmem.ByName scheme (see GET /v1/schemes).
	Scheme string `json:"scheme"`
	// Seed perturbs the workload instantiation (zero = the canonical
	// one; see workload.GetSeeded). Distinct seeds are distinct runs
	// with their own dedup keys and snapshot files.
	Seed uint64 `json:"seed,omitempty"`
	// MaxInstructions, when nonzero, asserts the daemon's per-run
	// budget; a mismatch is rejected with 400 so a client never
	// silently compares results simulated under a different budget.
	MaxInstructions uint64 `json:"max_instructions,omitempty"`
}

// Key returns the request's dedup key: the (benchmark, scheme, seed)
// cell identity, mirroring the harness run-cache key inputs the daemon
// controls (budget and protected range are daemon-wide). Seed zero is
// omitted so every pre-seed key stays stable.
func (r RunRequest) Key() string {
	k := r.Benchmark + "|" + r.Scheme
	if r.Seed != 0 {
		k += fmt.Sprintf("|seed=%d", r.Seed)
	}
	return k
}

// State is a job's lifecycle position.
type State string

// Job lifecycle: Queued → Running → Done | Failed.
const (
	StateQueued  State = "queued"
	StateRunning State = "running"
	StateDone    State = "done"
	StateFailed  State = "failed"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool { return s == StateDone || s == StateFailed }

// RunStatus describes one submitted run. Stats is set once State is
// StateDone; Error once StateFailed.
type RunStatus struct {
	ID        string `json:"id"`
	Benchmark string `json:"benchmark"`
	Scheme    string `json:"scheme"`
	Seed      uint64 `json:"seed,omitempty"`
	State     State  `json:"state"`
	// Deduped is set on a submit response when an identical run was
	// already queued or running and that job was returned instead of
	// enqueuing a duplicate.
	Deduped bool         `json:"deduped,omitempty"`
	Error   string       `json:"error,omitempty"`
	Stats   *stats.Stats `json:"stats,omitempty"`
}

// Event is one SSE progress record on GET /v1/runs/{id}/events. Seq
// increases from 1 within a job; a late subscriber receives the full
// history before live events.
type Event struct {
	Seq     int    `json:"seq"`
	State   State  `json:"state"`
	Message string `json:"message,omitempty"`
}

// ErrorResponse is the JSON body of every non-2xx API response.
type ErrorResponse struct {
	Error string `json:"error"`
	// ValidSchemes/ValidBenchmarks accompany 400s for unknown names so
	// clients can self-correct without a second round trip.
	ValidSchemes    []string `json:"valid_schemes,omitempty"`
	ValidBenchmarks []string `json:"valid_benchmarks,omitempty"`
	// RetryAfterSeconds mirrors the Retry-After header on 429s.
	RetryAfterSeconds int `json:"retry_after_seconds,omitempty"`
}

// NameList is the body of the discovery endpoints.
type NameList struct {
	Schemes    []string `json:"schemes,omitempty"`
	Benchmarks []string `json:"benchmarks,omitempty"`
}

// CacheStatsz is the runner single-flight cache slice of Statsz.
type CacheStatsz struct {
	Lookups    uint64  `json:"lookups"`
	Executions uint64  `json:"executions"`
	HitRate    float64 `json:"hit_rate"`
}

// Statsz is the /debug/statsz snapshot.
type Statsz struct {
	QueueDepth      int          `json:"queue_depth"`
	QueueCapacity   int          `json:"queue_capacity"`
	Workers         int          `json:"workers"`
	InFlight        int          `json:"in_flight"`
	Accepted        uint64       `json:"accepted"`
	Deduped         uint64       `json:"deduped"`
	Rejected        uint64       `json:"rejected"`
	Completed       uint64       `json:"completed"`
	Failed          uint64       `json:"failed"`
	Draining        bool         `json:"draining"`
	MaxInstructions uint64       `json:"max_instructions"`
	Cache           *CacheStatsz `json:"cache,omitempty"`
	// CompletedByScheme counts successfully completed runs per scheme
	// (encoding/json sorts map keys, so the rendering is deterministic).
	CompletedByScheme map[string]uint64 `json:"completed_by_scheme,omitempty"`
}
