// Package cluster is the distributed sweep fabric's coordinator: it
// expands a (benchmark × scheme × seed) sweep into a run grid, shards
// the grid across registered plutusd workers over the existing v1
// HTTP/JSON API, and collects every result into a content-addressed
// store keyed by the harness run-cache key — so any worker's bytes are
// verifiable against a local single-box run of the same cell, and two
// workers disagreeing on one cell is a hard determinism alarm, not a
// silent overwrite.
//
// Scheduling is lease-based: a cell is leased to the least-loaded live
// worker, and a lease that outlives its timeout is stolen — the
// straggler's latest PLUTSNAP is pulled, installed on a second worker
// (PUT /v1/snapshots), and the cell resubmitted there; the first
// success wins and the loser's eventual result can only agree (the
// store dedups identical bytes) or trip the divergence alarm. Worker
// death is absorbed the same way: when the sweep checkpoints, heartbeats
// pull in-flight cells' snapshots each cycle, so a retry after a crash
// resumes from the last checkpoint instead of cycle zero. (Without
// checkpoints, the steal and the retry start over.) Failed attempts
// reschedule with capped exponential backoff; per-tenant quotas bound
// both admitted work (load shedding, surfaced as 429 upstream) and
// concurrently leased cells, layered on plutusd's own queue
// backpressure which the client rides out with jittered retry.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/plutus-gpu/plutus/internal/castore"
	"github.com/plutus-gpu/plutus/internal/harness"
	"github.com/plutus-gpu/plutus/internal/secmem"
	"github.com/plutus-gpu/plutus/internal/server"
	"github.com/plutus-gpu/plutus/internal/server/client"
	"github.com/plutus-gpu/plutus/internal/workload"
)

// ErrClosed reports work submitted to a coordinator after Close.
var ErrClosed = errors.New("cluster: coordinator closed")

// OverQuotaError reports load shedding: the tenant's admitted-but-
// unfinished cell count would exceed its pending bound. Upstream layers
// map it to 429 with Retry-After, mirroring plutusd's own queue
// backpressure one level up.
type OverQuotaError struct {
	Tenant  string
	Pending int
	Limit   int
}

func (e *OverQuotaError) Error() string {
	return fmt.Sprintf("cluster: tenant %q over quota (%d pending, limit %d)", e.Tenant, e.Pending, e.Limit)
}

// BadRequestError reports a request refused before any work is
// admitted: an empty sweep, or a benchmark or scheme name that does not
// resolve. Upstream layers map it to 400.
type BadRequestError struct{ Err error }

func (e *BadRequestError) Error() string { return e.Err.Error() }
func (e *BadRequestError) Unwrap() error { return e.Err }

// Config configures a Coordinator.
type Config struct {
	// Workers seeds the registry with plutusd base URLs; more can join
	// later via AddWorker (POST /v1/workers on the coordinator API).
	Workers []string
	// Harness is the sweep-wide harness configuration every worker is
	// expected to run with (same MaxInstructions and checkpoint cadence —
	// the run-cache key, and therefore byte identity, depends on both).
	// The coordinator uses it to compute store keys and never simulates
	// itself.
	Harness harness.Config
	// Store collects results; nil means a fresh in-memory store.
	Store *castore.Store
	// LeaseTimeout is how long one worker may hold a cell before the
	// scheduler steals it onto a second worker (default 30 s).
	LeaseTimeout time.Duration
	// TenantMaxInflight caps concurrently leased cells per tenant
	// (0 = unlimited).
	TenantMaxInflight int
	// TenantMaxPending sheds new admissions for a tenant whose
	// admitted-but-unfinished count would exceed it (0 = unlimited).
	TenantMaxPending int

	// timing paces heartbeats and retries; zero means defaultTiming.
	// Only this package's tests set it.
	timing timing
}

// timing paces the coordinator. A heartbeat (a worker health poll, and
// in-flight snapshot pulls) runs every heartbeatEvery; deadAfter
// consecutive failed heartbeats mark a worker dead, and a dead worker
// takes no new leases until a heartbeat succeeds again. A cell gets at
// most maxAttempts scheduling attempts, rescheduled after a failure at
// retryBase doubling per attempt up to retryCap.
type timing struct {
	heartbeatEvery      time.Duration
	deadAfter           int
	maxAttempts         int
	retryBase, retryCap time.Duration
}

var defaultTiming = timing{
	heartbeatEvery: time.Second,
	deadAfter:      3,
	maxAttempts:    4,
	retryBase:      50 * time.Millisecond,
	retryCap:       2 * time.Second,
}

func (c Config) withDefaults() Config {
	if c.LeaseTimeout <= 0 {
		c.LeaseTimeout = 30 * time.Second
	}
	if c.timing == (timing{}) {
		c.timing = defaultTiming
	}
	return c
}

// worker is the coordinator's view of one plutusd instance.
type worker struct {
	url      string
	c        *client.Client
	alive    bool
	missed   int
	capacity int              // workers + queue depth, scraped from /debug/statsz
	inflight int              // leases held here
	leases   map[string]*cell // key -> leased cell
	done     uint64           // successful leases
}

// cell is one in-flight grid cell: the single-flight unit. Identical
// requests — same run-cache key — coalesce onto one cell regardless of
// tenant.
type cell struct {
	Benchmark string
	Scheme    string
	Seed      uint64
	Key       string
	Tenant    string // admitting tenant; owns the inflight quota

	done    chan struct{} // closed once settled
	content []byte
	digest  string
	err     error
}

type tenant struct {
	pending  int // admitted, unfinished admissions
	inflight int // leased cells
}

// Counters is a snapshot of the coordinator's monotonic counters.
type Counters struct {
	Completed  uint64 // cells settled successfully
	Failed     uint64 // cells settled in error (attempts exhausted or divergence)
	Retries    uint64 // rescheduled attempts after a failure
	Steals     uint64 // leases stolen from stragglers
	Migrations uint64 // snapshots installed on a new worker before submit
	Shed       uint64 // admissions refused by tenant quota
	StoreHits  uint64 // requests served straight from the store
}

// Coordinator shards sweeps across workers. Create with New, stop with
// Close.
type Coordinator struct {
	cfg   Config
	store *castore.Store

	mu        sync.Mutex
	cond      *sync.Cond
	workers   map[string]*worker
	order     []string // sorted worker URLs: deterministic tie-break
	cells     map[string]*cell
	sweeps    map[string]*Sweep
	tenants   map[string]*tenant
	snapshots map[string][]byte // key -> latest PLUTSNAP pulled on heartbeat
	sweepSeq  int
	closed    bool
	counters  Counters

	stopHB chan struct{}
	hbDone chan struct{}
}

// New builds a Coordinator and starts its heartbeat loop.
func New(cfg Config) *Coordinator {
	cfg = cfg.withDefaults()
	store := cfg.Store
	if store == nil {
		store = castore.New()
	}
	co := &Coordinator{
		cfg:       cfg,
		store:     store,
		workers:   map[string]*worker{},
		cells:     map[string]*cell{},
		sweeps:    map[string]*Sweep{},
		tenants:   map[string]*tenant{},
		snapshots: map[string][]byte{},
		stopHB:    make(chan struct{}),
		hbDone:    make(chan struct{}),
	}
	co.cond = sync.NewCond(&co.mu)
	for _, url := range cfg.Workers {
		co.AddWorker(url)
	}
	// One synchronous heartbeat round before the loop starts, so
	// seed-listed workers that are already up take leases immediately
	// instead of the first cells all piling onto whichever worker the
	// background loop happens to probe first.
	for _, url := range cfg.Workers {
		co.heartbeat(url)
	}
	go co.heartbeatLoop()
	return co
}

// Store returns the coordinator's result store.
func (co *Coordinator) Store() *castore.Store { return co.store }

// AddWorker registers a plutusd instance by base URL. Registration is
// idempotent; the worker starts dead and takes leases after its first
// successful heartbeat.
func (co *Coordinator) AddWorker(url string) {
	co.mu.Lock()
	defer co.mu.Unlock()
	if _, ok := co.workers[url]; ok {
		return
	}
	co.workers[url] = &worker{
		url:      url,
		c:        client.New(url),
		capacity: 4,
		leases:   map[string]*cell{},
	}
	co.order = append(co.order, url)
	sort.Strings(co.order)
}

// WorkerStatus is the public view of one registered worker.
type WorkerStatus struct {
	URL       string `json:"url"`
	Alive     bool   `json:"alive"`
	Inflight  int    `json:"inflight"`
	Capacity  int    `json:"capacity"`
	Completed uint64 `json:"completed"`
}

// Workers lists registered workers in URL order.
func (co *Coordinator) Workers() []WorkerStatus {
	co.mu.Lock()
	defer co.mu.Unlock()
	out := make([]WorkerStatus, 0, len(co.order))
	for _, url := range co.order {
		w := co.workers[url]
		out = append(out, WorkerStatus{
			URL: w.url, Alive: w.alive, Inflight: w.inflight,
			Capacity: w.capacity, Completed: w.done,
		})
	}
	return out
}

// Counters returns a snapshot of the coordinator's counters.
func (co *Coordinator) Counters() Counters {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.counters
}

// Close stops the heartbeat loop and fails all future admissions.
// In-flight cells settle with errors as their workers disappear.
func (co *Coordinator) Close() {
	co.mu.Lock()
	if co.closed {
		co.mu.Unlock()
		return
	}
	co.closed = true
	co.cond.Broadcast()
	co.mu.Unlock()
	close(co.stopHB)
	<-co.hbDone
}

// admit reserves n units of tenant pending quota, shedding when the
// bound would be exceeded.
func (co *Coordinator) admit(tenantName string, n int) error {
	co.mu.Lock()
	defer co.mu.Unlock()
	if co.closed {
		return ErrClosed
	}
	t := co.tenant(tenantName)
	if co.cfg.TenantMaxPending > 0 && t.pending+n > co.cfg.TenantMaxPending {
		co.counters.Shed++
		return &OverQuotaError{Tenant: tenantName, Pending: t.pending, Limit: co.cfg.TenantMaxPending}
	}
	t.pending += n
	return nil
}

func (co *Coordinator) releasePending(tenantName string, n int) {
	co.mu.Lock()
	co.tenant(tenantName).pending -= n
	co.mu.Unlock()
}

// tenant returns the named tenant's state, creating it. Called with
// co.mu held.
func (co *Coordinator) tenant(name string) *tenant {
	t, ok := co.tenants[name]
	if !ok {
		t = &tenant{}
		co.tenants[name] = t
	}
	return t
}

// resolve validates a cell's names against the local registries (the
// same ones plutusd validates against) and returns its store key. A name
// that does not resolve is a *BadRequestError.
func (co *Coordinator) resolve(bench, scheme string, seed uint64) (string, error) {
	if err := workload.Check(bench); err != nil {
		return "", &BadRequestError{err}
	}
	sc, err := secmem.ByName(scheme, harness.ProtectedBytes)
	if err != nil {
		return "", &BadRequestError{err}
	}
	return harness.CacheKey(co.cfg.Harness, bench, sc, seed), nil
}

// startCell begins (or joins) the single-flight execution of one cell.
// A store hit returns (nil, content, digest); otherwise the returned
// cell settles when its driver finishes.
func (co *Coordinator) startCell(tenantName, bench, scheme, key string, seed uint64) (*cell, []byte, string) {
	co.mu.Lock()
	defer co.mu.Unlock()
	// The store has its own mutex; taking it under co.mu is a benign
	// nested lock, never taken in the other order.
	if content, digest, err := co.store.Get(key); err == nil {
		co.counters.StoreHits++
		return nil, content, digest
	}
	if c, ok := co.cells[key]; ok {
		return c, nil, ""
	}
	c := &cell{
		Benchmark: bench, Scheme: scheme, Seed: seed,
		Key: key, Tenant: tenantName, done: make(chan struct{}),
	}
	co.cells[key] = c
	go co.drive(c)
	return c, nil, ""
}

// RunCell runs one grid cell to completion on behalf of a tenant:
// store hits return instantly, identical concurrent requests coalesce,
// and everything else is leased out to a worker. The returned bytes are
// the canonical JSON rendering — byte-identical to a local single-box
// run of the same key.
func (co *Coordinator) RunCell(ctx context.Context, tenantName, bench, scheme string, seed uint64) ([]byte, string, error) {
	key, err := co.resolve(bench, scheme, seed)
	if err != nil {
		return nil, "", err
	}
	if err := co.admit(tenantName, 1); err != nil {
		return nil, "", err
	}
	defer co.releasePending(tenantName, 1)
	c, hit, digest := co.startCell(tenantName, bench, scheme, key, seed)
	if c == nil {
		return hit, digest, nil
	}
	select {
	case <-c.done:
		if c.err != nil {
			return nil, "", c.err
		}
		return c.content, c.digest, nil
	case <-ctx.Done():
		return nil, "", ctx.Err()
	}
}

// heartbeatLoop polls every worker's /debug/statsz on a fixed cadence
// (an answer that decodes means the worker is alive, and its body gives
// the capacity) and, when the sweep checkpoints, pulls the latest
// PLUTSNAP of every cell leased to the worker — the coordinator-side
// half of checkpoint migration: when a worker dies, the retry resumes
// from the last pulled snapshot instead of cycle zero.
func (co *Coordinator) heartbeatLoop() {
	defer close(co.hbDone)
	tick := time.NewTicker(co.cfg.timing.heartbeatEvery)
	defer tick.Stop()
	for {
		select {
		case <-co.stopHB:
			return
		case <-tick.C:
		}
		co.mu.Lock()
		urls := append([]string(nil), co.order...)
		co.mu.Unlock()
		for _, url := range urls {
			co.heartbeat(url)
		}
	}
}

func (co *Coordinator) heartbeat(url string) {
	co.mu.Lock()
	w, ok := co.workers[url]
	co.mu.Unlock()
	if !ok {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), co.cfg.timing.heartbeatEvery)
	defer cancel()
	sz, err := w.c.Statsz(ctx)
	capacity := sz.Workers + sz.QueueCapacity

	co.mu.Lock()
	var leased []*cell
	if err != nil {
		w.missed++
		if w.missed >= co.cfg.timing.deadAfter && w.alive {
			w.alive = false
		}
	} else {
		w.missed = 0
		if !w.alive {
			w.alive = true
			co.cond.Broadcast()
		}
		if capacity > 0 {
			w.capacity = capacity
		}
		if co.checkpointing() {
			for _, c := range w.leases {
				leased = append(leased, c)
			}
			sort.Slice(leased, func(i, j int) bool { return leased[i].Key < leased[j].Key })
		}
	}
	co.mu.Unlock()

	// Pull in-flight snapshots outside the lock; each pull is best
	// effort (ErrNoSnapshot just means the run hasn't checkpointed yet).
	for _, c := range leased {
		snap, serr := w.c.Snapshot(ctx, c.Benchmark, c.Scheme, c.Seed)
		if serr == nil && len(snap) > 0 {
			co.mu.Lock()
			co.snapshots[c.Key] = snap
			co.mu.Unlock()
		}
	}
}

// checkpointing reports whether the sweep's runs checkpoint. Workers
// run at the coordinator's cadence (§14.4 of DESIGN.md), so at cadence
// 0 no worker holds a snapshot and none is pulled or installed.
func (co *Coordinator) checkpointing() bool { return co.cfg.Harness.CheckpointEvery != 0 }

// cachedSnapshot returns the latest pulled PLUTSNAP for a cell, nil if
// none.
func (co *Coordinator) cachedSnapshot(key string) []byte {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.snapshots[key]
}

// runRequest builds the wire request for a cell.
func (c *cell) runRequest() server.RunRequest {
	return server.RunRequest{Benchmark: c.Benchmark, Scheme: c.Scheme, Seed: c.Seed}
}
