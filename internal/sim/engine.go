// Package sim provides the discrete-event simulation kernel shared by the
// GPU model and the secure-memory engines: a deterministic event queue
// keyed by cycle, with FIFO ordering among events scheduled for the same
// cycle.
//
// All model components express time by scheduling closures. Each Engine is
// single-threaded by design — determinism matters more than parallel
// speed for reproducing the paper's figures, and runs are repeatable
// bit-for-bit for a given seed. For parallel execution the Cluster type
// (shard.go) advances several Engines in lockstep windows with
// deterministic cross-engine message delivery, so sharded runs stay
// bit-identical to single-threaded ones.
package sim

import "math/bits"

// Cycle is a point in simulated time, in core clock cycles.
type Cycle uint64

// The queue is a calendar (bucket) queue: a ring of per-cycle buckets
// covering the window [now, now+ringSize) absorbs the overwhelming
// majority of events (cache latencies, DRAM service times, crossbar hops
// are all far below ringSize), giving O(1) schedule and dispatch with no
// per-event allocation — the previous container/heap implementation boxed
// every event through an interface and was comparison-bound. Events
// beyond the window (deep DRAM bus backlog) go to a small inline overflow
// heap and migrate into the ring as time advances.
//
// Every bucket is a FIFO list threaded through one node slab per engine,
// so the queue's memory follows the engine's peak of live events rather
// than the sum of per-bucket high-water marks. The slab, the overflow
// heap and FreeList grow by doubling, in one out-of-line method each.
//
// Ordering invariant: dispatch is strictly (cycle, schedule order), so
// same-cycle events run FIFO. A bucket's list is in append order, and
// the overflow heap pops in (at, seq) order, seq numbering its own
// pushes. Every heap event for a cycle X was scheduled while
// now ≤ X−ringSize, whereas every ring append for X requires
// now > X−ringSize; since now is monotone, all migrated heap events for
// X were scheduled before any direct ring append for X, and migration
// happens exactly when now first advances past X−ringSize — before any
// event at the new now executes. Appending migrated events ahead of
// future ring appends therefore preserves global schedule order, and
// ring nodes need no sequence number of their own. The calendar_test.go
// property test cross-checks this dispatch order against a reference
// heap over randomized event streams.
const (
	ringBits  = 12
	ringSize  = Cycle(1) << ringBits // bucketed scheduling window, in cycles
	ringMask  = ringSize - 1
	busyWords = int(ringSize) / 64
)

// node is one queued closure in the slab; its cycle is implied by the
// bucket whose list holds it. Index 0 ends a list.
type node struct {
	fn   func()
	next int32
}

// farEvent is an overflow-heap entry (cycle kept explicitly).
type farEvent struct {
	at  Cycle
	seq uint64
	fn  func()
}

// bucket holds one cycle's events in schedule order: a list of slab
// nodes from head to tail, both 0 when empty.
type bucket struct{ head, tail int32 }

// Engine is the event queue. The zero value is ready to use.
type Engine struct {
	now   Cycle
	last  Cycle
	seq   uint64 // overflow-heap push order
	count int
	busy  [busyWords]uint64 // occupancy bitmap over ring slots
	ring  [ringSize]bucket
	nodes []node     // the bucket lists' slab; nodes[0] is the terminator
	free  int32      // first free slab node, 0 when none
	far   []farEvent // min-heap on (at, seq) for events ≥ now+ringSize
}

// Now returns the current simulated cycle.
func (e *Engine) Now() Cycle { return e.now }

// LastEventAt returns the cycle of the most recently executed event
// (zero if none ran). Unlike Now, it never advances on idle horizons, so
// it reports the true end of activity in windowed (sharded) execution.
func (e *Engine) LastEventAt() Cycle { return e.last }

// Schedule runs fn after delay cycles. A delay of zero runs fn later in
// the current cycle, after already-queued same-cycle events.
//
//simlint:hotpath
func (e *Engine) Schedule(delay Cycle, fn func()) {
	if delay < ringSize {
		if e.free == 0 {
			e.growNodes()
		}
		e.pushRing(e.now+delay, fn)
	} else {
		e.seq++
		e.pushFar(farEvent{at: e.now + delay, seq: e.seq, fn: fn})
	}
	e.count++
}

// ScheduleAt runs fn at absolute cycle at, which must not lie in the
// past. Among events at the same cycle it runs after everything already
// queued (same FIFO rule as Schedule). Cross-shard message delivery uses
// it to inject mail stamped with absolute delivery cycles.
//
//simlint:hotpath
func (e *Engine) ScheduleAt(at Cycle, fn func()) {
	if at < e.now {
		panic("sim: ScheduleAt in the past (causality violation)")
	}
	e.Schedule(at-e.now, fn)
}

// pushRing links fn at the tail of cycle at's bucket, in a free slab
// node: the caller grows the slab first when none is free, which keeps
// pushRing small enough to inline.
//
//simlint:hotpath
func (e *Engine) pushRing(at Cycle, fn func()) {
	i := e.free
	n := &e.nodes[i]
	e.free = n.next
	n.fn, n.next = fn, 0
	s := at & ringMask
	b := &e.ring[s]
	if b.head == 0 {
		b.head = i
		e.busy[s>>6] |= 1 << (s & 63)
	} else {
		e.nodes[b.tail].next = i
	}
	b.tail = i
}

// growNodes doubles the slab (to at least 256 nodes) and puts the new
// nodes on the free list.
//
//go:noinline
func (e *Engine) growNodes() {
	old := len(e.nodes)
	nodes := make([]node, max(256, 2*old))
	copy(nodes, e.nodes)
	for i := max(1, old); i < len(nodes)-1; i++ {
		nodes[i].next = int32(i + 1)
	}
	e.nodes, e.free = nodes, int32(max(1, old))
}

//simlint:hotpath
func (e *Engine) pushFar(fe farEvent) {
	i := len(e.far)
	if i == cap(e.far) {
		e.growFar()
	}
	e.far = e.far[:i+1]
	e.far[i] = fe
	for i > 0 {
		p := (i - 1) / 2
		if !farLess(&e.far[i], &e.far[p]) {
			break
		}
		e.far[i], e.far[p] = e.far[p], e.far[i]
		i = p
	}
}

// growFar doubles the overflow heap's capacity (to at least 64).
//
//go:noinline
func (e *Engine) growFar() {
	far := make([]farEvent, len(e.far), max(64, 2*cap(e.far)))
	copy(far, e.far)
	e.far = far
}

func farLess(a, b *farEvent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// popFar removes and returns the earliest overflow event.
//
//simlint:hotpath
func (e *Engine) popFar() farEvent {
	fe := e.far[0]
	n := len(e.far) - 1
	e.far[0] = e.far[n]
	e.far[n].fn = nil // release the closure for GC
	e.far = e.far[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && farLess(&e.far[l], &e.far[min]) {
			min = l
		}
		if r < n && farLess(&e.far[r], &e.far[min]) {
			min = r
		}
		if min == i {
			break
		}
		e.far[i], e.far[min] = e.far[min], e.far[i]
		i = min
	}
	return fe
}

// migrateFar moves overflow events that now fall inside the ring window
// into their buckets. It must run whenever now advances, before any event
// at the new time executes (see the ordering invariant above).
//
//simlint:hotpath
func (e *Engine) migrateFar() {
	horizon := e.now + ringSize
	for len(e.far) > 0 && e.far[0].at < horizon {
		fe := e.popFar()
		if e.free == 0 {
			e.growNodes()
		}
		e.pushRing(fe.at, fe.fn)
	}
}

// nextBusy returns the ring slot of the earliest nonempty bucket at or
// after cycle from, scanning the occupancy bitmap with wraparound.
//
//simlint:hotpath
func (e *Engine) nextBusy(from Cycle) (Cycle, bool) {
	s0 := from & ringMask
	w0 := int(s0 >> 6)
	if word := e.busy[w0] &^ (1<<(s0&63) - 1); word != 0 {
		return Cycle(w0<<6 + bits.TrailingZeros64(word)), true
	}
	for k := 1; k <= busyWords; k++ {
		w := (w0 + k) & (busyWords - 1)
		if e.busy[w] != 0 {
			return Cycle(w<<6 + bits.TrailingZeros64(e.busy[w])), true
		}
	}
	return 0, false
}

// nextEventAt returns the cycle of the earliest queued event. The queue
// must be nonempty. Ring events always precede overflow events: the
// migration invariant keeps far[0].at ≥ now+ringSize while every ring
// event lies below now+ringSize.
//
//simlint:hotpath
func (e *Engine) nextEventAt() Cycle {
	if slot, ok := e.nextBusy(e.now); ok {
		return e.now + ((slot - (e.now & ringMask)) & ringMask)
	}
	return e.far[0].at
}

// Pending returns the number of queued events.
func (e *Engine) Pending() int { return e.count }

// NextAt returns the cycle of the earliest queued event; ok is false if
// the queue is empty.
func (e *Engine) NextAt() (at Cycle, ok bool) {
	if e.count == 0 {
		return 0, false
	}
	return e.nextEventAt(), true
}

// stepAt advances time to at, executes the earliest event (which must be
// at cycle at), and returns.
//
//simlint:hotpath
func (e *Engine) stepAt(at Cycle) {
	if at != e.now {
		e.now = at
		e.migrateFar()
	}
	s := at & ringMask
	b := &e.ring[s]
	i := b.head
	n := &e.nodes[i]
	fn := n.fn
	b.head = n.next
	n.fn, n.next = nil, e.free // release the closure for GC
	e.free = i
	if b.head == 0 {
		b.tail = 0
		e.busy[s>>6] &^= 1 << (s & 63)
	}
	e.count--
	e.last = at
	fn()
}

// Step executes the earliest event, advancing time to it. It reports
// whether an event was executed.
//
//simlint:hotpath
func (e *Engine) Step() bool {
	if e.count == 0 {
		return false
	}
	e.stepAt(e.nextEventAt())
	return true
}

// RunUntil executes events until the queue is empty or the next event
// would be at or beyond limit. It returns the number of events executed.
//
//simlint:hotpath
func (e *Engine) RunUntil(limit Cycle) uint64 {
	var n uint64
	for e.count > 0 {
		at := e.nextEventAt()
		if at >= limit {
			break
		}
		e.stepAt(at)
		n++
	}
	if e.now < limit && e.count == 0 {
		// Time still advances to the horizon even if nothing is queued.
		e.now = limit
	}
	return n
}

// RunWhile executes events while cond() holds and events remain.
// It returns the number of events executed.
func (e *Engine) RunWhile(cond func() bool) uint64 {
	var n uint64
	for cond() && e.Step() {
		n++
	}
	return n
}

// Drain executes all remaining events (bounded by maxEvents as a safety
// net against livelock bugs; pass 0 for no bound). It reports whether the
// queue fully drained.
func (e *Engine) Drain(maxEvents uint64) bool {
	var n uint64
	for e.Step() {
		n++
		if maxEvents != 0 && n >= maxEvents {
			return e.count == 0
		}
	}
	return true
}

// Clock returns the engine's clock state (current cycle, last executed
// event cycle) for checkpointing. It is only meaningful — and only
// deterministic — when the queue is empty: snapshots are taken at
// drained epoch boundaries.
func (e *Engine) Clock() (now, last Cycle) { return e.now, e.last }

// RestoreClock resets the clock to a checkpointed value. The queue must
// be empty: restoring under queued events would time-travel them. The
// internal FIFO sequence counter is deliberately NOT restored — with an
// empty queue only the relative order of future events matters, and
// that is preserved starting from any counter value.
func (e *Engine) RestoreClock(now, last Cycle) {
	if e.count != 0 {
		panic("sim: RestoreClock with queued events")
	}
	e.now = now
	e.last = last
}
