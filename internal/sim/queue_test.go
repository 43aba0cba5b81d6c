package sim

import "testing"

// A queue that always holds an element must keep reusing its ring: it
// may not keep the consumed prefix and double forever.
func TestFuncQueueNeverEmptyStaysBounded(t *testing.T) {
	var q FuncQueue
	q.Push(sinkFn)
	pair := func() { // depth oscillates between 1 and 2
		q.Push(sinkFn)
		q.Pop()
	}
	for i := 0; i < 1<<21; i++ {
		pair()
	}
	if c := cap(q.fns); c > 4 {
		t.Fatalf("after 2^21 push/pop pairs at depth 1-2 the queue holds %d slots, want at most 4", c)
	}
	if got := testing.AllocsPerRun(10, func() {
		for i := 0; i < 1024; i++ {
			pair()
		}
	}); got != 0 {
		t.Fatalf("warmed queue allocates: %.1f allocs per 1024 pairs", got)
	}
	if q.Len() != 1 {
		t.Fatalf("Len = %d, want 1", q.Len())
	}
}

// The ring pops in push order across wraparound and growth.
func TestFuncQueueFIFO(t *testing.T) {
	var q FuncQueue
	var got []int
	next, want := 0, 0
	rng := xorshift(3)
	for step := 0; step < 5000; step++ {
		if rng.next()%3 != 0 || q.Len() == 0 {
			v := next
			next++
			q.Push(func() { got = append(got, v) })
			continue
		}
		q.Pop()()
		if got[len(got)-1] != want {
			t.Fatalf("step %d: popped %d, want %d", step, got[len(got)-1], want)
		}
		want++
	}
	for q.Len() > 0 {
		q.Pop()()
	}
	if len(got) != next || q.Pop() != nil {
		t.Fatalf("drained %d of %d closures", len(got), next)
	}
}

func TestFreeListReuses(t *testing.T) {
	built := 0
	l := FreeList[int]{New: func() *int { built++; return new(int) }}
	a, b := l.Get(), l.Get()
	if l.Out() != 2 || built != 2 || a == b {
		t.Fatalf("Out=%d built=%d", l.Out(), built)
	}
	l.Put(a)
	if c := l.Get(); c != a || built != 2 {
		t.Fatalf("Get after Put built a new record (built=%d)", built)
	}
	l.Put(a)
	l.Put(b)
	if l.Out() != 0 {
		t.Fatalf("Out = %d after every record came back", l.Out())
	}
}
