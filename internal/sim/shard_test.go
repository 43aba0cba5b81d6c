package sim

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

// pingPong runs a deterministic multi-shard message storm on a cluster
// with the given worker count and returns each shard's local execution
// log. Every shard appends only to its own log, so the logs are race-free
// in parallel mode; any divergence between worker counts shows up as a
// log difference.
func pingPong(workers int) [][]string {
	const shards, window, tokens = 4, 5, 40
	c := NewCluster(shards, window, workers)
	logs := make([][]string, shards)

	var bounce func(s *Shard, token int)
	bounce = func(s *Shard, token int) {
		logs[s.ID()] = append(logs[s.ID()], fmt.Sprintf("t%d@%d", token, s.Engine().Now()))
		if token >= tokens {
			return
		}
		dst := c.Shard((s.ID() + token) % shards)
		s.Send(dst, Cycle(window+token%7), func() { bounce(dst, token+1) })
		// Local follow-up work exercises intra-shard ordering too.
		s.Engine().Schedule(Cycle(token%3), func() {
			logs[s.ID()] = append(logs[s.ID()], fmt.Sprintf("local%d@%d", token, s.Engine().Now()))
		})
	}

	for i := 0; i < shards; i++ {
		s := c.Shard(i)
		s.Engine().Schedule(Cycle(i), func() { bounce(s, i) })
	}
	if !c.Run(1 << 20) {
		panic("pingPong: livelock")
	}
	c.Close()
	return logs
}

// Parallel execution must be bit-identical to sequential at every worker
// count — fewer workers than shards, as many, and more (clamped): same
// events on every shard, at the same cycles, in the same order.
func TestClusterParallelMatchesSequential(t *testing.T) {
	seq := pingPong(1)
	for _, workers := range []int{2, 3, 4, 9} {
		for rep := 0; rep < 3; rep++ {
			if par := pingPong(workers); !reflect.DeepEqual(seq, par) {
				t.Fatalf("%d workers diverged from sequential:\nseq: %v\npar: %v", workers, seq, par)
			}
		}
	}
}

// A cluster runs min(workers, shards) goroutines per window; anything
// below two is sequential.
func TestClusterWorkers(t *testing.T) {
	for _, tc := range []struct{ workers, want int }{
		{-1, 1}, {0, 1}, {1, 1}, {2, 2}, {3, 3}, {4, 4}, {9, 4},
	} {
		if got := NewCluster(4, 5, tc.workers).workers; got != tc.want {
			t.Errorf("NewCluster(4, 5, %d) runs %d workers, want %d", tc.workers, got, tc.want)
		}
	}
}

// chain schedules a self-perpetuating event on every shard of c that
// logs the shard's clock every 1+id cycles until limit.
func chain(c *Cluster, limit Cycle) [][]Cycle {
	logs := make([][]Cycle, c.Shards())
	for i := 0; i < c.Shards(); i++ {
		s := c.Shard(i)
		var tick func()
		tick = func() {
			logs[s.ID()] = append(logs[s.ID()], s.Engine().Now())
			if s.Engine().Now() < limit {
				s.Engine().Schedule(Cycle(1+s.ID()), tick)
			}
		}
		s.Engine().Schedule(0, tick)
	}
	return logs
}

// helpers counts live goroutines started by Cluster.startHelpers, in
// any cluster.
func helpers() int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return strings.Count(string(buf[:n]), "created by github.com/plutus-gpu/plutus/internal/sim.(*Cluster).startHelpers")
		}
		buf = make([]byte, 2*len(buf))
	}
}

// waitHelpers polls until want helpers are alive. A helper that has
// signalled its exit may still be returning, so the count is allowed a
// moment to settle; a helper Close failed to stop never leaves.
func waitHelpers(t *testing.T, want int) {
	t.Helper()
	for i := 0; helpers() != want; i++ {
		if i == 100_000 {
			t.Fatalf("%d cluster helpers alive, want %d", helpers(), want)
		}
		runtime.Gosched()
	}
}

// Helpers start with the first parallel window, park when windows stop
// coming, wake for the next window, and are gone once Close returns; a
// later window starts fresh helpers and the run stays identical to a
// sequential one.
func TestClusterCloseWaitsForHelpers(t *testing.T) {
	const shards, workers, limit = 4, 3, 200
	ref := NewCluster(shards, 5, 1)
	want := chain(ref, limit)
	ref.Run(0)

	waitHelpers(t, 0) // earlier tests' helpers may still be returning
	c := NewCluster(shards, 5, workers)
	got := chain(c, limit)
	if c.RunWindow() == 0 {
		t.Fatal("first window ran no events")
	}
	if n := helpers(); n != workers-1 {
		t.Fatalf("%d helpers after the first window, want %d", n, workers-1)
	}
	// Let every helper exhaust its spin and park, then make sure the
	// next window wakes them.
	for c.next.parked.Load() != workers-1 {
		runtime.Gosched()
	}
	if c.RunWindow() == 0 {
		t.Fatal("window after parking ran no events")
	}
	c.Close()
	waitHelpers(t, 0)

	// Close is idempotent and a closed cluster keeps running.
	c.Close()
	c.Run(0)
	c.Close()
	waitHelpers(t, 0)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("closed and resumed run diverged from sequential:\nseq: %v\npar: %v", want, got)
	}
}

// The window generation is a wrapping 32-bit counter: windows on both
// sides of the wrap run every shard exactly once.
func TestClusterGenerationWraps(t *testing.T) {
	ref := NewCluster(4, 5, 1)
	want := chain(ref, 100)
	ref.Run(0)

	c := NewCluster(4, 5, 3)
	c.gen = math.MaxUint32 - 3
	got := chain(c, 100)
	c.Run(0)
	c.Close()
	if c.gen > 100 {
		t.Fatalf("generation %d did not wrap", c.gen)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("run across the generation wrap diverged:\nseq: %v\npar: %v", want, got)
	}
}

// A waiter that gave up spinning and parked must be woken by the signal
// that follows the store it waits for, and comes back with half its spin
// budget; a waiter whose condition holds while it spins doubles it.
func TestGateWakesParkedWaiter(t *testing.T) {
	var g gate
	g.cond.L = &g.mu
	var ready atomic.Bool
	next := make(chan int)
	go func() { next <- g.wait(4*minSpin, ready.Load) }()
	for g.parked.Load() != 1 {
		runtime.Gosched()
	}
	ready.Store(true)
	g.signal()
	if got := <-next; got != 2*minSpin {
		t.Errorf("budget after parking = %d, want %d", got, 2*minSpin)
	}
	if got := g.wait(maxSpin/2, ready.Load); got != maxSpin {
		t.Errorf("budget after spinning = %d, want %d", got, maxSpin)
	}
	if got := g.wait(maxSpin, ready.Load); got != maxSpin {
		t.Errorf("budget after spinning at the cap = %d, want %d", got, maxSpin)
	}
}

// Mail stamped exactly at a window boundary must be delivered for that
// cycle, run after the destination's already-queued same-cycle events,
// and be ordered by sender id when two shards' mail collides on one
// cycle.
func TestMailboxDeliveryAtWindowBoundary(t *testing.T) {
	const window = 10
	c := NewCluster(3, window, 1)
	a, b, z := c.Shard(0), c.Shard(1), c.Shard(2)
	var order []string
	// Internal event queued for cycle 10 before any mail arrives.
	b.Engine().Schedule(window, func() { order = append(order, "internal") })
	// Both peers send mail that lands exactly at cycle 10 — the earliest
	// cycle the lookahead contract allows. Enqueue z's first to prove
	// delivery order is canonical (sender id), not enqueue order.
	z.Send(b, window, func() { order = append(order, "from2") })
	a.Send(b, window, func() { order = append(order, "from0") })
	c.Run(0)
	want := []string{"internal", "from0", "from2"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("boundary delivery order = %v, want %v", order, want)
	}
	if got := b.Engine().LastEventAt(); got != window {
		t.Errorf("mail executed at %d, want %d", got, window)
	}
}

// A Send below the lookahead window would let mail land inside a window
// a shard is already executing; it must panic rather than corrupt
// determinism.
func TestSendBelowWindowPanics(t *testing.T) {
	c := NewCluster(2, 10, 1)
	defer func() {
		if recover() == nil {
			t.Error("Send with delay < window did not panic")
		}
	}()
	c.Shard(0).Send(c.Shard(1), 9, func() {})
}

// Sparse event queues must not be ground through window by window: the
// cluster jumps to the earliest pending event. A million-cycle gap at
// window 5 would take 200k windows ground naively; the livelock bound
// below would trip long before that if the jump were missing.
func TestClusterSkipsIdleGaps(t *testing.T) {
	c := NewCluster(2, 5, 1)
	ran := false
	c.Shard(1).Engine().Schedule(1_000_000, func() { ran = true })
	if !c.Run(1000) {
		t.Fatal("cluster did not drain within the event bound (idle jump missing?)")
	}
	if !ran || c.LastEventAt() != 1_000_000 {
		t.Errorf("ran=%v LastEventAt=%d, want true/1000000", ran, c.LastEventAt())
	}
}

// Cross-shard round trips must accumulate latency exactly: two hops of
// the minimum (window) delay land 2×window after the origin event.
func TestRoundTripLatency(t *testing.T) {
	const window = 20
	c := NewCluster(2, window, 1)
	a, b := c.Shard(0), c.Shard(1)
	var reply Cycle
	a.Engine().Schedule(7, func() {
		a.Send(b, window, func() {
			b.Send(a, window, func() { reply = a.Engine().Now() })
		})
	})
	c.Run(0)
	if reply != 7+2*window {
		t.Errorf("round trip completed at %d, want %d", reply, 7+2*window)
	}
}
