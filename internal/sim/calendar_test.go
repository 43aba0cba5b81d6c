package sim

import (
	"container/heap"
	"testing"
)

// refEvent and refHeap are a straightforward binary-heap scheduler
// ordered on (cycle, seq) — the specification the calendar queue must
// match event for event.
type refEvent struct {
	at  Cycle
	seq uint64
	id  int
}

type refHeap []refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(refEvent)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// refScheduler mirrors the Engine's scheduling semantics with the
// reference heap: monotone clock, FIFO within a cycle via a global
// insertion sequence.
type refScheduler struct {
	now Cycle
	seq uint64
	evs refHeap
}

func (r *refScheduler) schedule(delay Cycle, id int) {
	heap.Push(&r.evs, refEvent{at: r.now + delay, seq: r.seq, id: id})
	r.seq++
}

func (r *refScheduler) step() (int, bool) {
	if r.evs.Len() == 0 {
		return 0, false
	}
	ev := heap.Pop(&r.evs).(refEvent)
	r.now = ev.at
	return ev.id, true
}

// xorshift is the test's deterministic stream generator (no math/rand:
// the simlint detrand check bans it in this tree, and a fixed generator
// keeps failures reproducible from the printed seed alone).
type xorshift uint64

func (x *xorshift) next() uint64 {
	v := *x
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = v
	return uint64(v)
}

// TestCalendarMatchesReferenceHeap drives the calendar-queue engine and
// the reference heap with identical seeded event streams — delays on
// both sides of the ring/overflow boundary, same-cycle bursts,
// execute-time rescheduling — and requires the dispatch order to match
// exactly. This is the ordering contract every determinism guarantee in
// the tree (PDES windows, checkpoint replay, golden figures) sits on.
func TestCalendarMatchesReferenceHeap(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42, 0xdeadbeef, 1 << 40} {
		rng := xorshift(seed)
		eng := &Engine{}
		ref := &refScheduler{}
		var engOrder, refOrder []int

		// Delay mix: mostly inside the 4096-cycle ring, a tail far
		// beyond it to keep the overflow heap and its migration active,
		// and frequent repeats of the same cycle to exercise FIFO order.
		delay := func() Cycle {
			switch r := rng.next() % 10; {
			case r < 4:
				return Cycle(rng.next() % 8) // bursty: same/near cycles
			case r < 8:
				return Cycle(rng.next() % 4096) // inside the ring
			default:
				return Cycle(4096 + rng.next()%100000) // overflow heap
			}
		}

		id := 0
		post := func(d Cycle) {
			evID := id
			id++
			eng.Schedule(d, func() { engOrder = append(engOrder, evID) })
			ref.schedule(d, evID)
		}

		for i := 0; i < 5000; i++ {
			post(delay())
			// Interleave dispatch with scheduling so the clock advances
			// and relative delays land on a moving base.
			if rng.next()%3 == 0 {
				if eng.Step() {
					refID, ok := ref.step()
					if !ok {
						t.Fatalf("seed %d: reference empty while engine stepped", seed)
					}
					refOrder = append(refOrder, refID)
				}
			}
		}
		for eng.Step() {
			refID, ok := ref.step()
			if !ok {
				t.Fatalf("seed %d: reference drained before engine", seed)
			}
			refOrder = append(refOrder, refID)
		}
		if _, ok := ref.step(); ok {
			t.Fatalf("seed %d: engine drained before reference", seed)
		}
		if len(engOrder) != len(refOrder) {
			t.Fatalf("seed %d: dispatched %d events, reference %d", seed, len(engOrder), len(refOrder))
		}
		for i := range engOrder {
			if engOrder[i] != refOrder[i] {
				t.Fatalf("seed %d: dispatch %d: engine ran event %d, reference %d",
					seed, i, engOrder[i], refOrder[i])
			}
		}
		if eng.Now() != ref.now {
			t.Fatalf("seed %d: engine at cycle %d, reference at %d", seed, eng.Now(), ref.now)
		}
	}
}

// TestCalendarRescheduleDuringDispatch covers the hazard the migration
// proof leans on: events executing at cycle X scheduling new work both
// at X (same-cycle FIFO) and far past the ring, while the overflow heap
// is migrating entries for nearby slots.
func TestCalendarRescheduleDuringDispatch(t *testing.T) {
	rng := xorshift(99)
	eng := &Engine{}
	ref := &refScheduler{}
	var engOrder, refOrder []int

	// Every dispatched event with id divisible by 3 schedules one child
	// at delay id%5000 and one at delay 0 (same-cycle FIFO). Both sides
	// derive child ids from the parent id, so no shared state is needed.
	childID := func(parent, k int) int { return 1_000_000 + parent*2 + k }
	schedChildren := func(parent int) {
		if parent%3 != 0 || parent >= 1_000_000 {
			return
		}
		eng.Schedule(Cycle(parent%5000), func() { engOrder = append(engOrder, childID(parent, 0)) })
		eng.Schedule(0, func() { engOrder = append(engOrder, childID(parent, 1)) })
	}

	for i := 0; i < 3000; i++ {
		evID := i
		d := Cycle(rng.next() % 9000)
		eng.Schedule(d, func() {
			engOrder = append(engOrder, evID)
			schedChildren(evID)
		})
		ref.schedule(d, evID)
	}
	for eng.Step() {
	}
	// Replay the reference with the same child rule.
	for {
		evID, ok := ref.step()
		if !ok {
			break
		}
		refOrder = append(refOrder, evID)
		if evID%3 == 0 && evID < 1_000_000 {
			ref.schedule(Cycle(evID%5000), childID(evID, 0))
			ref.schedule(0, childID(evID, 1))
		}
	}
	if len(engOrder) != len(refOrder) {
		t.Fatalf("dispatched %d events, reference %d", len(engOrder), len(refOrder))
	}
	for i := range engOrder {
		if engOrder[i] != refOrder[i] {
			t.Fatalf("dispatch %d: engine ran event %d, reference %d", i, engOrder[i], refOrder[i])
		}
	}
}

// TestEventLoopSteadyStateZeroAllocs pins the pooled-event invariant:
// once an engine's node slab and overflow heap have grown to its peak of
// live events, its schedule+dispatch cycle performs no heap allocation,
// whichever buckets the events land on. It is the machine-independent
// allocation gate every `go test` run applies; a failure here means
// someone reintroduced a per-event allocation on the hot path (see
// DESIGN.md §12).
func TestEventLoopSteadyStateZeroAllocs(t *testing.T) {
	const ops, live = 4096, 64
	eng := &Engine{}
	rng := xorshift(5)
	// Warm-up: hold more events at once than the batches ever do, in the
	// ring and past it, and drain them. The batches then keep live or
	// live+1 events queued, so nothing is left to grow.
	for i := 0; i < 2*live; i++ {
		eng.Schedule(Cycle(rng.next())%ringSize, sinkFn)
		eng.Schedule(ringSize+Cycle(rng.next()%2000), sinkFn)
	}
	for eng.Step() {
	}
	for i := 0; i < live; i++ {
		eng.Schedule(Cycle(rng.next()%6000), sinkFn)
	}
	batch := func() {
		for i := 0; i < ops; i++ {
			eng.Schedule(Cycle(rng.next()%6000), sinkFn)
			eng.Step()
		}
	}
	if got := testing.AllocsPerRun(10, batch); got != 0 {
		t.Fatalf("event loop allocates in steady state: %.1f allocs per %d-op batch", got, ops)
	}
}

// TestFreshEngineAllocsFollowLiveEvents: a fresh engine's queue grows
// with its peak of live events, not with the buckets and overflow cycles
// the events visit. With at most 64 events live, 100k schedule/step
// pairs whose delays span the ring and reach past it allocate only the
// engine and, as they double to that peak, the slab and the overflow
// heap; per-bucket growth cost thousands of allocations here.
func TestFreshEngineAllocsFollowLiveEvents(t *testing.T) {
	const live, pairs = 64, 100_000
	rng := xorshift(17)
	delay := func() Cycle {
		if rng.next()%4 == 0 {
			return ringSize + Cycle(rng.next()%20000)
		}
		return Cycle(rng.next()) % ringSize
	}
	fresh := func() {
		eng := &Engine{}
		for i := 0; i < live; i++ {
			eng.Schedule(delay(), sinkFn)
		}
		for i := 0; i < pairs; i++ {
			eng.Step()
			eng.Schedule(delay(), sinkFn)
		}
		for eng.Step() {
		}
	}
	n := testing.AllocsPerRun(5, fresh)
	t.Logf("%.0f allocations per fresh engine", n)
	if n > 4 {
		t.Fatalf("a fresh engine with at most %d live events made %.0f allocations over %d schedule/step pairs, want at most 4",
			live, n, pairs)
	}
}

// sinkFn is a top-level event body so scheduling it allocates no closure.
func sinkFn() {}

// BenchmarkEventLoop measures raw scheduler throughput and reports its
// allocation rate (0 allocs/op in steady state).
func BenchmarkEventLoop(b *testing.B) {
	eng := &Engine{}
	rng := xorshift(11)
	for i := 0; i < 4096; i++ { // warm-up: grow pools before timing
		eng.Schedule(Cycle(rng.next()%6000), sinkFn)
		eng.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Schedule(Cycle(rng.next()%6000), sinkFn)
		eng.Step()
	}
}
