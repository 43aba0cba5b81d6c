package sim

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// This file implements conservative parallel discrete-event simulation
// (classic null-message-free PDES with a fixed lookahead): a Cluster owns
// one Engine per shard and advances all shards in lockstep windows no
// wider than the minimum cross-shard latency. Within a window the shards
// are independent, so any number of workers may execute them; cross-shard
// interactions travel as cycle-stamped messages that are delivered at the
// next window barrier in a canonical (cycle, sender, sender-sequence)
// order.
//
// Because the window never exceeds the lookahead, a message generated
// inside window k is always stamped at or beyond the start of window k+1,
// so no shard can ever observe mail for a cycle it has already executed.
// The barrier order is a pure function of simulation state — not of
// goroutine scheduling — which makes parallel runs bit-identical to
// sequential ones: sequential mode runs the exact same windows and
// deliveries on a single goroutine.

// message is one cross-shard closure with its delivery cycle and the
// canonical ordering key (sender id, per-sender sequence number).
type message struct {
	at   Cycle
	from int
	seq  uint64
	fn   func()
}

// Shard is one partition of a sharded simulation: an Engine that advances
// in lockstep windows with its peers, plus an inbox for messages from
// other shards.
type Shard struct {
	id      int
	cl      *Cluster
	eng     *Engine
	sendSeq uint64 // monotone per-sender counter; orders same-cycle mail

	mu    sync.Mutex
	inbox []message

	ran uint64 // events executed in the current window
}

// ID returns the shard's index within its cluster.
func (s *Shard) ID() int { return s.id }

// Engine returns the shard's event queue. Only the shard's own events may
// schedule on it directly; other shards must use Send.
func (s *Shard) Engine() *Engine { return s.eng }

// Send schedules fn to run on shard dst, delay cycles after the sender's
// current time. The delay must be at least the cluster's lookahead window
// — that is the conservative-PDES contract that lets every shard execute
// a whole window without observing mid-window mail — and Send panics on a
// violation rather than silently corrupting determinism.
//
// Mail for the same delivery cycle is executed in (sender id, send order)
// order, after any events the destination shard had already scheduled
// for that cycle.
func (s *Shard) Send(dst *Shard, delay Cycle, fn func()) {
	if delay < s.cl.window {
		panic(fmt.Sprintf("sim: Send delay %d below lookahead window %d", delay, s.cl.window))
	}
	s.sendSeq++
	m := message{at: s.eng.Now() + delay, from: s.id, seq: s.sendSeq, fn: fn}
	dst.mu.Lock()
	dst.inbox = append(dst.inbox, m)
	dst.mu.Unlock()
}

// Cluster advances a set of shards in deterministic lockstep windows,
// executing each window's shards on up to workers goroutines: the
// calling goroutine plus workers−1 long-lived helpers.
//
// A parallel window is published in one atomic claim word holding its
// generation and the bounds of its unclaimed shards, and every worker,
// the caller included, takes shards by CAS on that word until none are
// left. The generation makes a helper that wakes late unable to take a
// shard of a later window. The caller claims upward from shard 0 and the
// helpers downward from the last shard, so with two workers a shard
// tends to run on the same goroutine, and core, window after window.
// Between windows helpers spin for a bounded number of checks and then
// park, so back-to-back windows skip the futex wake-up and an idle
// cluster burns no core.
type Cluster struct {
	window  Cycle
	shards  []*Shard
	workers int

	horizon  Cycle         // end of the current window, written before claim
	gen      uint32        // generation of the current window (caller-owned, wraps)
	claim    atomic.Uint64 // gen<<32 | lo<<16 | hi: shards [lo, hi) are unclaimed
	finished atomic.Int32  // shards completed in the current window
	closing  atomic.Bool   // helpers exit once they observe it
	next     gate          // helpers wait here for the next window
	done     gate          // the caller waits here for the window's last shard
	helpers  sync.WaitGroup
	started  bool // helpers running (started by the first parallel window)
	spin     int  // the caller's spin budget for the window's last shard
}

// NewCluster builds a cluster of n shards (1 ≤ n < 2^16) with the given
// lookahead window (≥ 1) that executes each window on
// min(workers, n) goroutines. workers ≤ 1 runs the shards in index order
// on the caller's goroutine. Every worker count produces a bit-identical
// simulation.
func NewCluster(n int, window Cycle, workers int) *Cluster {
	if n < 1 || n > 0xffff || window < 1 {
		panic(fmt.Sprintf("sim: invalid cluster (%d shards, window %d)", n, window))
	}
	c := &Cluster{window: window, workers: max(1, min(workers, n)), spin: maxSpin}
	c.next.cond.L = &c.next.mu
	c.done.cond.L = &c.done.mu
	for i := 0; i < n; i++ {
		c.shards = append(c.shards, &Shard{id: i, cl: c, eng: &Engine{}})
	}
	return c
}

// Shards returns the shard count.
func (c *Cluster) Shards() int { return len(c.shards) }

// Shard returns shard i.
func (c *Cluster) Shard(i int) *Shard { return c.shards[i] }

// cmpMessage is the canonical delivery order: (cycle, sender, sender
// sequence). (sender, sequence) is unique, so the order is total.
func cmpMessage(a, b message) int {
	if a.at != b.at {
		return cmp.Compare(a.at, b.at)
	}
	if a.from != b.from {
		return cmp.Compare(a.from, b.from)
	}
	return cmp.Compare(a.seq, b.seq)
}

// deliver drains every shard's inbox into its engine. It must only run at
// a barrier (no shard executing). Messages are sorted canonically so
// delivery order is independent of the goroutine interleaving that
// enqueued them.
func (c *Cluster) deliver() {
	for _, s := range c.shards {
		if len(s.inbox) == 0 {
			continue
		}
		msgs := s.inbox
		slices.SortFunc(msgs, cmpMessage)
		for _, m := range msgs {
			s.eng.ScheduleAt(m.at, m.fn)
		}
		s.inbox = msgs[:0]
	}
}

// RunWindow delivers pending cross-shard mail and advances every shard
// through one window. It returns the number of events executed; zero
// means the cluster is idle (no events queued and no mail in flight).
//
// The window starts at the earliest pending event across all shards, so
// idle stretches (e.g. long DRAM latencies) are skipped in one hop
// instead of being ground through window by window.
func (c *Cluster) RunWindow() uint64 {
	c.deliver()
	var earliest Cycle
	found := false
	for _, s := range c.shards {
		if at, ok := s.eng.NextAt(); ok && (!found || at < earliest) {
			earliest, found = at, true
		}
	}
	if !found {
		return 0
	}
	horizon := earliest + c.window

	var n uint64
	if c.workers == 1 {
		for _, s := range c.shards {
			n += s.eng.RunUntil(horizon)
		}
		return n
	}

	if !c.started {
		c.startHelpers()
	}
	c.horizon = horizon
	c.finished.Store(0)
	c.gen++
	c.claim.Store(uint64(c.gen)<<32 | uint64(len(c.shards)))
	c.next.signal()
	c.work(c.gen, false)
	all := int32(len(c.shards))
	c.spin = c.done.wait(c.spin, func() bool { return c.finished.Load() == all })
	for _, s := range c.shards {
		n += s.ran
	}
	return n
}

// work claims and runs shards of window gen, from the bottom or the top
// of the unclaimed range, until none is left. A successful claim pins
// the window (it cannot complete while the claimed shard is unfinished),
// so horizon is read after the claim.
func (c *Cluster) work(gen uint32, fromTop bool) {
	for {
		w := c.claim.Load()
		lo, hi := int(w>>16&0xffff), int(w&0xffff)
		if uint32(w>>32) != gen || lo >= hi {
			return
		}
		i, next := lo, w+1<<16
		if fromTop {
			i, next = hi-1, w-1
		}
		if !c.claim.CompareAndSwap(w, next) {
			continue
		}
		s := c.shards[i]
		s.ran = s.eng.RunUntil(c.horizon)
		if c.finished.Add(1) == int32(len(c.shards)) {
			c.done.signal()
		}
	}
}

// startHelpers launches workers−1 helper goroutines. Each waits for a
// window generation it has not served, works on it, and exits once Close
// sets closing.
func (c *Cluster) startHelpers() {
	c.started = true
	c.closing.Store(false)
	for i := 1; i < c.workers; i++ {
		c.helpers.Add(1)
		go func() {
			defer c.helpers.Done()
			var served uint32
			spin := maxSpin
			for {
				spin = c.next.wait(spin, func() bool { return uint32(c.claim.Load()>>32) != served || c.closing.Load() })
				if c.closing.Load() {
					return
				}
				served = uint32(c.claim.Load() >> 32)
				c.work(served, true)
			}
		}()
	}
}

// Run executes windows until the cluster is idle. maxEvents bounds the
// total event count as a livelock safety net (0 = no bound); Run reports
// whether the cluster drained within the bound.
func (c *Cluster) Run(maxEvents uint64) bool {
	var total uint64
	for {
		n := c.RunWindow()
		if n == 0 {
			return true
		}
		total += n
		if maxEvents != 0 && total >= maxEvents {
			return false
		}
	}
}

// LastEventAt returns the latest cycle at which any shard executed an
// event — the simulation's end time, unaffected by idle horizon advance.
func (c *Cluster) LastEventAt() Cycle {
	var last Cycle
	for _, s := range c.shards {
		if at := s.eng.LastEventAt(); at > last {
			last = at
		}
	}
	return last
}

// Close stops the helper goroutines and returns once every one of them
// has exited (a no-op in sequential mode or before the first window). The
// cluster must be between windows; a later RunWindow starts new helpers.
func (c *Cluster) Close() {
	if !c.started {
		return
	}
	c.closing.Store(true)
	c.next.signal()
	c.helpers.Wait()
	c.started = false
}

// A waiter polls its condition up to its spin budget before parking,
// yielding the processor every yieldEvery polls so it never starves the
// goroutine it waits for when the two share a processor. The budget
// halves, down to minSpin, each time the waiter has to park, and doubles
// back, up to maxSpin, each time the condition turns true while it
// spins: on an idle host back-to-back windows keep skipping the futex
// wake-up, while on a host with more runnable threads than cores, where
// the goroutine being waited for is often descheduled, the waiter stops
// taking CPU time from it.
const (
	maxSpin    = 1 << 16
	minSpin    = 1 << 8
	yieldEvery = 1 << 8
)

// gate is a spin-then-park wait point for a condition that other
// goroutines make true through atomic stores. A waiter registers in
// parked before its locked re-check, and a signaller loads parked only
// after its store: with sequentially consistent atomics either the
// signaller sees the waiter and broadcasts under the lock, or the waiter's
// re-check sees the store, so no wake-up is lost.
type gate struct {
	mu     sync.Mutex
	cond   sync.Cond // L is &mu
	parked atomic.Int32
}

// wait returns once ready reports true, polling it at most spin times
// before parking, and returns the waiter's next spin budget.
func (g *gate) wait(spin int, ready func() bool) int {
	for i := 1; i <= spin; i++ {
		if ready() {
			return min(2*spin, maxSpin)
		}
		if i%yieldEvery == 0 {
			runtime.Gosched()
		}
	}
	g.parked.Add(1)
	g.mu.Lock()
	for !ready() {
		g.cond.Wait()
	}
	g.mu.Unlock()
	g.parked.Add(-1)
	return max(spin/2, minSpin)
}

// signal wakes parked waiters; call it after the store that may make
// their condition true.
func (g *gate) signal() {
	if g.parked.Load() == 0 {
		return
	}
	g.mu.Lock()
	g.cond.Broadcast()
	g.mu.Unlock()
}
