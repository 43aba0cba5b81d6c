package cluster

import (
	"errors"
	"fmt"
	"net/http"
	"strings"

	"github.com/plutus-gpu/plutus/internal/server"
)

// SweepRequest is the body of POST /v1/sweeps.
type SweepRequest struct {
	Tenant     string   `json:"tenant"`
	Benchmarks []string `json:"benchmarks"`
	Schemes    []string `json:"schemes"`
	Seeds      []uint64 `json:"seeds,omitempty"`
}

// CellRequest is the body of POST /v1/cells — the single-run path the
// load generator drives.
type CellRequest struct {
	Tenant    string `json:"tenant"`
	Benchmark string `json:"benchmark"`
	Scheme    string `json:"scheme"`
	Seed      uint64 `json:"seed,omitempty"`
}

// WorkerRequest is the body of POST /v1/workers.
type WorkerRequest struct {
	URL string `json:"url"`
}

// WorkerList is the body GET and POST /v1/workers answer with.
type WorkerList struct {
	Workers []WorkerStatus `json:"workers"`
}

// writeClusterError maps coordinator errors onto the same status-code
// vocabulary plutusd uses: shedding is 429 with Retry-After, a
// *BadRequestError is 400, everything else 500.
func writeClusterError(w http.ResponseWriter, err error) {
	var quota *OverQuotaError
	var bad *BadRequestError
	code, resp := http.StatusInternalServerError, server.ErrorResponse{Error: err.Error()}
	switch {
	case errors.As(err, &quota):
		w.Header().Set("Retry-After", "1")
		code, resp.RetryAfterSeconds = http.StatusTooManyRequests, 1
	case errors.Is(err, ErrClosed):
		code = http.StatusServiceUnavailable
	case errors.As(err, &bad):
		code = http.StatusBadRequest
	}
	server.WriteJSON(w, code, resp)
}

// Handler returns the coordinator's HTTP API:
//
//	GET  /healthz         — liveness
//	GET  /metrics         — Prometheus text exposition
//	GET  /v1/workers      — registered workers
//	POST /v1/workers      — register a worker {"url": ...}
//	POST /v1/sweeps       — submit a sweep, returns its status
//	GET  /v1/sweeps/{id}  — sweep progress
//	POST /v1/cells        — run one cell synchronously, returns the
//	                        result bytes (X-Plutus-Digest carries the
//	                        store address); sheds with 429 + Retry-After
func (co *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		server.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		fmt.Fprint(w, co.MetricsText())
	})
	mux.HandleFunc("GET /v1/workers", func(w http.ResponseWriter, r *http.Request) {
		server.WriteJSON(w, http.StatusOK, WorkerList{co.Workers()})
	})
	mux.HandleFunc("POST /v1/workers", func(w http.ResponseWriter, r *http.Request) {
		var req WorkerRequest
		if !server.DecodeJSON(w, r, &req) {
			return
		}
		if req.URL == "" {
			server.WriteJSON(w, http.StatusBadRequest, server.ErrorResponse{Error: "body must be {\"url\": \"http://...\"}"})
			return
		}
		co.AddWorker(req.URL)
		server.WriteJSON(w, http.StatusOK, WorkerList{co.Workers()})
	})
	mux.HandleFunc("POST /v1/sweeps", func(w http.ResponseWriter, r *http.Request) {
		var req SweepRequest
		if !server.DecodeJSON(w, r, &req) {
			return
		}
		sw, err := co.SubmitSweep(req.Tenant, req.Benchmarks, req.Schemes, req.Seeds)
		if err != nil {
			writeClusterError(w, err)
			return
		}
		server.WriteJSON(w, http.StatusAccepted, sw.Status())
	})
	mux.HandleFunc("GET /v1/sweeps/{id}", func(w http.ResponseWriter, r *http.Request) {
		sw, ok := co.SweepByID(r.PathValue("id"))
		if !ok {
			server.WriteJSON(w, http.StatusNotFound, server.ErrorResponse{Error: "unknown sweep"})
			return
		}
		server.WriteJSON(w, http.StatusOK, sw.Status())
	})
	mux.HandleFunc("POST /v1/cells", func(w http.ResponseWriter, r *http.Request) {
		var req CellRequest
		if !server.DecodeJSON(w, r, &req) {
			return
		}
		content, digest, err := co.RunCell(r.Context(), req.Tenant, req.Benchmark, req.Scheme, req.Seed)
		if err != nil {
			writeClusterError(w, err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Plutus-Digest", digest)
		w.Write(content)
	})
	return mux
}

// MetricsText renders the coordinator's own Prometheus exposition —
// the cluster-level counterpart of plutusd's /metrics.
func (co *Coordinator) MetricsText() string {
	co.mu.Lock()
	var alive, inflight int
	for _, w := range co.workers {
		if w.alive {
			alive++
		}
		inflight += w.inflight
	}
	n := co.counters
	workers, cells := len(co.workers), len(co.cells)
	co.mu.Unlock()

	var b strings.Builder
	gauge := func(name string, v int, help string) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	counter := func(name string, v uint64, help string) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge("plutus_coord_workers", workers, "registered workers")
	gauge("plutus_coord_workers_alive", alive, "workers passing heartbeats")
	gauge("plutus_coord_leases_inflight", inflight, "cells currently leased out")
	gauge("plutus_coord_cells_inflight", cells, "cells in single-flight execution")
	counter("plutus_coord_cells_completed_total", n.Completed, "cells settled successfully")
	counter("plutus_coord_cells_failed_total", n.Failed, "cells settled in error")
	counter("plutus_coord_retries_total", n.Retries, "rescheduled attempts after worker failure")
	counter("plutus_coord_steals_total", n.Steals, "leases stolen from stragglers")
	counter("plutus_coord_migrations_total", n.Migrations, "snapshots installed ahead of a resumed run")
	counter("plutus_coord_shed_total", n.Shed, "admissions refused by tenant quota")
	counter("plutus_coord_store_hits_total", n.StoreHits, "requests served from the content-addressed store")
	gauge("plutus_coord_store_keys", co.store.Len(), "keys bound in the content-addressed store")
	return b.String()
}
