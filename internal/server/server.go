package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"sync"
	"time"

	"github.com/plutus-gpu/plutus/internal/checkpoint"
	"github.com/plutus-gpu/plutus/internal/harness"
	"github.com/plutus-gpu/plutus/internal/secmem"
	"github.com/plutus-gpu/plutus/internal/stats"
	"github.com/plutus-gpu/plutus/internal/workload"
)

// Backend executes one simulation run of a seed-perturbed workload
// instantiation (seed 0 is the canonical one). *harness.Runner
// implements it; tests substitute gated fakes to exercise queue
// mechanics without simulating.
type Backend interface {
	RunSeededContext(ctx context.Context, bench string, sc secmem.Config, seed uint64) (*stats.Stats, error)
}

// metricsBackend is the optional cache-introspection side of a Backend
// (implemented by *harness.Runner); when present, /debug/statsz reports
// single-flight hit rates.
type metricsBackend interface {
	Metrics() harness.Metrics
}

// snapshotBackend is the checkpoint-introspection side of a Backend
// (implemented by *harness.Runner). It is what lets the snapshot
// endpoints locate a run's PLUTSNAP file for cluster-wide
// checkpoint migration.
type snapshotBackend interface {
	SnapshotPathSeeded(bench string, sc secmem.Config, seed uint64) string
	Config() harness.Config
}

// Config parameterizes a Server.
type Config struct {
	// Backend runs simulations. Required.
	Backend Backend
	// Workers is the worker-pool size (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds the FIFO of accepted-but-not-running jobs
	// (default 64). A full queue rejects submissions with 429.
	QueueDepth int
	// MaxInstructions is the daemon's per-run budget, advertised in
	// statsz and asserted against RunRequest.MaxInstructions.
	MaxInstructions uint64
	// StateDir, when set, persists every job to disk: finished jobs keep
	// serving their results after a daemon restart, and jobs that were
	// queued or running when the daemon died are re-enqueued on boot (a
	// checkpointing Backend resumes them from their last snapshot).
	StateDir string
	// PreemptSlice, when nonzero, bounds how long one job may hold a
	// worker: past the slice the job's context is cancelled, and a
	// Backend that parks the run with checkpoint.ErrPreempted sees the
	// job re-enqueued behind the jobs that were waiting. Requires a
	// Backend that checkpoints; without one the cancellation is ignored
	// and the slice has no effect.
	PreemptSlice time.Duration
}

// Server is the plutusd serving core. Create with New, mount Handler on
// an http.Server, and call Drain before exit.
type Server struct {
	cfg   Config
	queue chan *job
	wg    sync.WaitGroup

	mu       sync.Mutex
	jobs     map[string]*job
	pending  map[string]*job // dedup key → queued-or-running job
	nextID   int
	queued   int // jobs accepted but not yet picked up by a worker
	inFlight int
	draining bool

	// lifetime counters for /debug/statsz, also guarded by mu
	accepted          uint64
	deduped           uint64
	rejected          uint64
	completed         uint64
	failed            uint64
	completedByScheme map[string]uint64
}

// New builds a Server and starts its worker pool.
func New(cfg Config) *Server {
	if cfg.Backend == nil {
		panic("server: Config.Backend is required")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	var settled, requeue []*job
	var maxID int
	if cfg.StateDir != "" {
		if err := os.MkdirAll(cfg.StateDir, 0o755); err != nil {
			panic(fmt.Sprintf("server: state dir: %v", err))
		}
		var err error
		settled, requeue, maxID, err = recoverState(cfg.StateDir)
		if err != nil {
			panic(fmt.Sprintf("server: recover state: %v", err))
		}
	}
	// Recovered unfinished jobs must all fit in the queue regardless of
	// the configured depth, or boot would deadlock before workers start.
	depth := cfg.QueueDepth
	if len(requeue) > depth {
		depth = len(requeue)
	}
	s := &Server{
		cfg:               cfg,
		queue:             make(chan *job, depth),
		jobs:              make(map[string]*job),
		pending:           make(map[string]*job),
		nextID:            maxID,
		completedByScheme: make(map[string]uint64),
	}
	for _, j := range settled {
		s.jobs[j.id] = j
		if j.currentState() == StateFailed {
			s.failed++
		} else {
			s.completed++
			s.completedByScheme[j.sc.Scheme]++
		}
	}
	for _, j := range requeue {
		s.jobs[j.id] = j
		if _, dup := s.pending[j.key]; !dup {
			s.pending[j.key] = j
		}
		s.queue <- j
		s.queued++
		s.accepted++
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// worker drains the queue until Drain closes it. Jobs run with a
// background context (bounded by Config.PreemptSlice when set): once
// accepted, a run is always carried to a terminal state and its result
// kept for pickup — including during drain, which is what makes SIGTERM
// lossless for in-flight work. A job preempted at the end of its slice
// goes back to the queue in its checkpointed state rather than settling.
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.mu.Lock()
		s.queued--
		s.inFlight++
		s.mu.Unlock()
		for {
			st, err := s.runSlice(j)
			if errors.Is(err, checkpoint.ErrPreempted) && s.requeue(j) {
				break
			}
			if errors.Is(err, checkpoint.ErrPreempted) {
				// Queue full or draining: nothing is gained by parking the
				// job, so give it another slice immediately (it resumes
				// from the snapshot it just wrote).
				continue
			}

			s.mu.Lock()
			s.inFlight--
			if s.pending[j.key] == j {
				delete(s.pending, j.key)
			}
			if err != nil {
				s.failed++
			} else {
				s.completed++
				s.completedByScheme[j.sc.Scheme]++
			}
			s.mu.Unlock()
			j.settle(st, err, s.writeRecord)
			break
		}
	}
}

// runSlice executes one scheduling slice of j: the whole run when
// PreemptSlice is zero, else up to one slice of it.
func (s *Server) runSlice(j *job) (*stats.Stats, error) {
	ctx := context.Background()
	if s.cfg.PreemptSlice > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.PreemptSlice)
		defer cancel()
	}
	j.transition(StateRunning, "simulation started")
	return s.cfg.Backend.RunSeededContext(ctx, j.req.Benchmark, j.sc, j.req.Seed)
}

// requeue puts a preempted job at the back of the queue, behind the
// jobs that were waiting for its worker. Reports false (job must keep
// its worker) when the queue is full or the server is draining. The
// transition and persist happen before the job re-enters the queue:
// once it is visible there, another worker may immediately mark it
// running again.
func (s *Server) requeue(j *job) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining || len(s.queue) == cap(s.queue) {
		return false
	}
	j.transition(StateQueued, "preempted at checkpoint; requeued")
	s.persist(j)
	// Cannot block: space was checked above, and every sender holds mu.
	s.queue <- j
	s.queued++
	s.inFlight--
	return true
}

// Drain stops accepting new runs, lets the workers finish every job
// already accepted (queued and in-flight), and returns once all results
// are settled. Status and result endpoints keep serving; only POST
// /v1/runs refuses, with 503. Safe to call more than once.
func (s *Server) Drain() {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// Handler returns the API mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/runs", s.handleSubmit)
	mux.HandleFunc("GET /v1/runs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/runs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/runs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /v1/schemes", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, NameList{Schemes: secmem.Names()})
	})
	mux.HandleFunc("GET /v1/benchmarks", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, NameList{Benchmarks: workload.Names()})
	})
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /debug/statsz", s.handleStatsz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/snapshots", s.handleSnapshotGet)
	mux.HandleFunc("PUT /v1/snapshots", s.handleSnapshotPut)
	return mux
}

// WriteJSON answers code with v as indented JSON. plutusd and the
// cluster coordinator send every JSON body but a run's result through
// it, errors as an ErrorResponse.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// MaxRequestBytes bounds a JSON request body, here and on the cluster
// coordinator. The largest legitimate one, a sweep, is a few kilobytes.
const MaxRequestBytes = 1 << 20

// DecodeJSON decodes a request body of at most MaxRequestBytes into v.
// On failure it has already answered: 413 for an oversize body, 400 for
// one that does not decode.
func DecodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxRequestBytes)).Decode(v)
	if err == nil {
		return true
	}
	code := http.StatusBadRequest
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		code = http.StatusRequestEntityTooLarge
	}
	WriteJSON(w, code, ErrorResponse{Error: "bad request body: " + err.Error()})
	return false
}

// handleSubmit validates, dedups, and enqueues one run.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req RunRequest
	if !DecodeJSON(w, r, &req) {
		return
	}
	// Validate before enqueue: a job that reaches the queue can only
	// fail in simulation, never on name resolution.
	if err := workload.Check(req.Benchmark); err != nil {
		WriteJSON(w, http.StatusBadRequest, ErrorResponse{
			Error:           err.Error(),
			ValidBenchmarks: workload.Names(),
		})
		return
	}
	sc, err := secmem.ByName(req.Scheme, harness.ProtectedBytes)
	if err != nil {
		WriteJSON(w, http.StatusBadRequest, ErrorResponse{
			Error:        err.Error(),
			ValidSchemes: secmem.Names(),
		})
		return
	}
	if req.MaxInstructions != 0 && req.MaxInstructions != s.cfg.MaxInstructions {
		WriteJSON(w, http.StatusBadRequest, ErrorResponse{Error: fmt.Sprintf(
			"budget mismatch: request asserts %d instructions/run, daemon runs %d",
			req.MaxInstructions, s.cfg.MaxInstructions)})
		return
	}
	key := req.Key()

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		WriteJSON(w, http.StatusServiceUnavailable, ErrorResponse{Error: "server is draining; not accepting new runs"})
		return
	}
	if dup, ok := s.pending[key]; ok {
		s.deduped++
		s.mu.Unlock()
		status := dup.snapshot()
		status.Deduped = true
		WriteJSON(w, http.StatusOK, status)
		return
	}
	s.nextID++
	j := newJob(fmt.Sprintf("run-%06d", s.nextID), req, sc, key)
	select {
	case s.queue <- j:
		s.jobs[j.id] = j
		s.pending[key] = j
		s.queued++
		s.accepted++
		s.mu.Unlock()
		s.persist(j)
		WriteJSON(w, http.StatusAccepted, j.snapshot())
	default:
		s.rejected++
		retry := s.retryAfterLocked()
		s.mu.Unlock()
		w.Header().Set("Retry-After", strconv.Itoa(retry))
		WriteJSON(w, http.StatusTooManyRequests, ErrorResponse{
			Error:             fmt.Sprintf("queue full (%d jobs waiting)", cap(s.queue)),
			RetryAfterSeconds: retry,
		})
	}
}

// retryAfterLocked estimates, in whole seconds, when a queue slot will
// plausibly free up: one second as a floor plus one per wave of queued
// jobs ahead of the caller. Deliberately coarse — it is advice, not a
// reservation.
func (s *Server) retryAfterLocked() int {
	return 1 + s.queued/s.cfg.Workers
}

func (s *Server) lookup(r *http.Request) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[r.PathValue("id")]
	return j, ok
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r)
	if !ok {
		WriteJSON(w, http.StatusNotFound, ErrorResponse{Error: "unknown run id"})
		return
	}
	WriteJSON(w, http.StatusOK, j.snapshot())
}

// handleResult serves a finished run through the canonical harness
// renderers, so the body is byte-identical to local CLI output.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r)
	if !ok {
		WriteJSON(w, http.StatusNotFound, ErrorResponse{Error: "unknown run id"})
		return
	}
	st, err, done := j.result()
	if !done {
		WriteJSON(w, http.StatusConflict, ErrorResponse{Error: "run not finished; poll /v1/runs/{id} or stream /v1/runs/{id}/events"})
		return
	}
	if err != nil {
		WriteJSON(w, http.StatusInternalServerError, ErrorResponse{Error: err.Error()})
		return
	}
	switch format := r.URL.Query().Get("format"); format {
	case "", "json":
		w.Header().Set("Content-Type", "application/json")
		harness.WriteRunJSON(w, st)
	case "csv":
		w.Header().Set("Content-Type", "text/csv")
		harness.WriteRunCSV(w, st)
	case "text":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, harness.Report(st, j.sc))
	default:
		WriteJSON(w, http.StatusBadRequest, ErrorResponse{Error: fmt.Sprintf("unknown format %q (json, csv, text)", format)})
	}
}

// handleEvents streams job progress as server-sent events: the full
// history first, then live transitions, ending when the job settles or
// the client disconnects.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r)
	if !ok {
		WriteJSON(w, http.StatusNotFound, ErrorResponse{Error: "unknown run id"})
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		WriteJSON(w, http.StatusInternalServerError, ErrorResponse{Error: "streaming unsupported by connection"})
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	replay, live, cancel := j.subscribe()
	defer cancel()
	emit := func(ev Event) {
		blob, _ := json.Marshal(ev)
		fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.State, blob)
		flusher.Flush()
	}
	for _, ev := range replay {
		emit(ev)
	}
	for {
		select {
		case ev, ok := <-live:
			if !ok {
				return // terminal transition closed the stream
			}
			emit(ev)
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	WriteJSON(w, http.StatusOK, map[string]any{"status": "ok", "draining": draining})
}

func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, s.statsz())
}

// statsz snapshots the server's counters, as /debug/statsz serves them
// and /metrics renders them.
func (s *Server) statsz() Statsz {
	s.mu.Lock()
	sz := Statsz{
		QueueDepth:      s.queued,
		QueueCapacity:   cap(s.queue),
		Workers:         s.cfg.Workers,
		InFlight:        s.inFlight,
		Accepted:        s.accepted,
		Deduped:         s.deduped,
		Rejected:        s.rejected,
		Completed:       s.completed,
		Failed:          s.failed,
		Draining:        s.draining,
		MaxInstructions: s.cfg.MaxInstructions,
	}
	if len(s.completedByScheme) > 0 {
		sz.CompletedByScheme = make(map[string]uint64, len(s.completedByScheme))
		for k, v := range s.completedByScheme {
			sz.CompletedByScheme[k] = v
		}
	}
	s.mu.Unlock()
	if mb, ok := s.cfg.Backend.(metricsBackend); ok {
		m := mb.Metrics()
		sz.Cache = &CacheStatsz{Lookups: m.Lookups, Executions: m.Executions, HitRate: m.HitRate()}
	}
	return sz
}
