package cluster

import (
	"context"
	"fmt"
	"time"

	"github.com/plutus-gpu/plutus/internal/server"
)

// drive runs one cell to settlement: lease a worker, run there, steal
// from stragglers, retry with capped exponential backoff on failure,
// and bind the winning bytes into the content-addressed store.
func (co *Coordinator) drive(c *cell) {
	var lastErr error
	for attempt := 0; attempt < co.cfg.timing.maxAttempts; attempt++ {
		if attempt > 0 {
			co.mu.Lock()
			co.counters.Retries++
			co.mu.Unlock()
			wait := co.cfg.timing.retryBase << (attempt - 1)
			if wait > co.cfg.timing.retryCap {
				wait = co.cfg.timing.retryCap
			}
			time.Sleep(wait)
		}
		w := co.acquireWorker(c, nil, true)
		if w == nil {
			lastErr = ErrClosed
			break
		}
		content, err := co.attempt(c, w)
		co.releaseWorker(w, c, err == nil)
		if err == nil {
			co.settle(c, content, nil)
			return
		}
		co.suspect(w)
		lastErr = err
	}
	co.settle(c, nil, fmt.Errorf("cell %s: attempts exhausted: %w", c.Key, lastErr))
}

// settle publishes the cell's outcome. Success binds the bytes into the
// store first — a *castore.DivergenceError there (this worker disagreed
// with an earlier binding of the same key) fails the cell, because a
// divergent grid can't be trusted.
func (co *Coordinator) settle(c *cell, content []byte, err error) {
	if err == nil {
		var digest string
		digest, err = co.store.Put(c.Key, content)
		if err == nil {
			c.content, c.digest = content, digest
		}
	}
	c.err = err
	co.mu.Lock()
	delete(co.cells, c.Key)
	delete(co.snapshots, c.Key)
	if err == nil {
		co.counters.Completed++
	} else {
		co.counters.Failed++
	}
	co.mu.Unlock()
	close(c.done)
}

// acquireWorker takes a lease once a live worker with lease headroom and
// the cell's tenant inflight quota are both available. exclude (may be
// nil) skips one worker — the straggler a steal is escaping. With wait
// it blocks until then; without, it returns nil at once — the steal
// path's choice, so a saturated cluster keeps waiting on the straggler
// instead of deadlocking on a second lease. Returns nil once the
// coordinator closes.
func (co *Coordinator) acquireWorker(c *cell, exclude *worker, wait bool) *worker {
	co.mu.Lock()
	defer co.mu.Unlock()
	for !co.closed {
		t := co.tenant(c.Tenant)
		if co.cfg.TenantMaxInflight == 0 || t.inflight < co.cfg.TenantMaxInflight {
			if w := co.pickLocked(exclude); w != nil {
				t.inflight++
				w.inflight++
				w.leases[c.Key] = c
				return w
			}
		}
		if !wait {
			return nil
		}
		co.cond.Wait()
	}
	return nil
}

// pickLocked selects the least-loaded live worker with headroom,
// breaking ties by URL order for determinism. Called with co.mu held.
func (co *Coordinator) pickLocked(exclude *worker) *worker {
	var best *worker
	for _, url := range co.order {
		w := co.workers[url]
		if w == exclude || !w.alive || w.inflight >= w.capacity {
			continue
		}
		if best == nil || w.inflight < best.inflight {
			best = w
		}
	}
	return best
}

// suspect benches a worker whose attempt just failed. A connection
// refusal or mid-run disconnect usually means the process is gone, and
// waiting out the deadAfter heartbeat budget would burn every retry
// against the corpse — so fail fast and let the retry land elsewhere.
// The next healthy heartbeat reinstates a worker benched in error.
func (co *Coordinator) suspect(w *worker) {
	co.mu.Lock()
	if w.alive {
		w.alive = false
		w.missed = co.cfg.timing.deadAfter
	}
	co.mu.Unlock()
}

func (co *Coordinator) releaseWorker(w *worker, c *cell, success bool) {
	co.mu.Lock()
	w.inflight--
	delete(w.leases, c.Key)
	co.tenant(c.Tenant).inflight--
	if success {
		w.done++
	}
	co.cond.Broadcast()
	co.mu.Unlock()
}

// attemptResult carries one worker's outcome through the steal race.
type attemptResult struct {
	content []byte
	err     error
}

// attempt runs the cell on w, stealing onto a second worker if the
// lease times out. First success wins; the loser's context is cancelled
// (abandoning the HTTP wait — the worker-side run settles into its own
// cache and, being deterministic, could only have agreed).
func (co *Coordinator) attempt(c *cell, w *worker) ([]byte, error) {
	co.installSnapshot(c, w)

	pctx, pcancel := context.WithCancel(context.Background())
	defer pcancel()
	primary := make(chan attemptResult, 1)
	go func() { primary <- runOn(pctx, w, c) }()

	select {
	case r := <-primary:
		return r.content, r.err
	case <-time.After(co.cfg.LeaseTimeout):
	}

	// The lease expired: w is a straggler (or silently dead). Try to
	// steal onto another worker; with no second worker available, keep
	// waiting on the primary — there is nowhere better to be.
	thief := co.acquireWorker(c, w, false)
	if thief == nil {
		r := <-primary
		return r.content, r.err
	}
	co.mu.Lock()
	co.counters.Steals++
	co.mu.Unlock()

	// Ship the freshest checkpoint to the thief: prefer a live pull off
	// the straggler, fall back to the heartbeat cache.
	co.pullSnapshot(c, w)
	co.installSnapshot(c, thief)

	sctx, scancel := context.WithCancel(context.Background())
	defer scancel()
	secondary := make(chan attemptResult, 1)
	go func() { secondary <- runOn(sctx, thief, c) }()

	var firstErr error
	for i := 0; i < 2; i++ {
		var r attemptResult
		select {
		case r = <-primary:
			if r.err == nil {
				co.releaseWorker(thief, c, false)
				scancel()
				return r.content, nil
			}
		case r = <-secondary:
			if r.err == nil {
				co.releaseWorker(thief, c, true)
				pcancel()
				return r.content, nil
			}
		}
		if firstErr == nil {
			firstErr = r.err
		}
	}
	co.releaseWorker(thief, c, false)
	return nil, firstErr
}

// runOn executes one cell on one worker: submit (riding out 429s via
// the client's capped jittered backoff), wait, fetch the canonical JSON
// rendering.
func runOn(ctx context.Context, w *worker, c *cell) attemptResult {
	st, err := w.c.Run(ctx, c.runRequest())
	if err != nil {
		return attemptResult{err: fmt.Errorf("worker %s: %w", w.url, err)}
	}
	if st.State != server.StateDone {
		return attemptResult{err: fmt.Errorf("worker %s: run %s: %s", w.url, st.State, st.Error)}
	}
	content, err := w.c.Result(ctx, st.ID, "json")
	if err != nil {
		return attemptResult{err: fmt.Errorf("worker %s: %w", w.url, err)}
	}
	return attemptResult{content: content}
}

// installSnapshot best-effort installs the cell's cached PLUTSNAP on a
// worker before submission, so the run resumes from the last pulled
// checkpoint instead of cycle zero. No-op without a cached snapshot, and
// so always when the sweep does not checkpoint.
func (co *Coordinator) installSnapshot(c *cell, w *worker) {
	snap := co.cachedSnapshot(c.Key)
	if snap == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := w.c.PutSnapshot(ctx, c.Benchmark, c.Scheme, c.Seed, snap); err == nil {
		co.mu.Lock()
		co.counters.Migrations++
		co.mu.Unlock()
	}
}

// pullSnapshot best-effort refreshes the cell's cached snapshot from a
// specific worker (the straggler a steal is escaping).
func (co *Coordinator) pullSnapshot(c *cell, w *worker) {
	if !co.checkpointing() {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	snap, err := w.c.Snapshot(ctx, c.Benchmark, c.Scheme, c.Seed)
	if err != nil || len(snap) == 0 {
		return
	}
	co.mu.Lock()
	co.snapshots[c.Key] = snap
	co.mu.Unlock()
}
