package sim

// FuncQueue is a FIFO of closures on a head-indexed ring. The MSHR-stall
// paths park blocked requests here. The ring's capacity is a power of
// two and doubles only when it is full, so a queue that never drains
// stays as large as its deepest backlog, and steady-state park/release
// cycles allocate nothing.
type FuncQueue struct {
	fns  []func() // len(fns) is zero or a power of two
	head int      // index of the oldest closure
	n    int      // queued closures
}

// Len returns the number of queued closures.
func (q *FuncQueue) Len() int { return q.n }

// Push appends fn to the queue.
//
//simlint:hotpath
func (q *FuncQueue) Push(fn func()) {
	if q.n == len(q.fns) {
		q.grow()
	}
	q.fns[(q.head+q.n)&(len(q.fns)-1)] = fn
	q.n++
}

// grow doubles the ring (to at least 4 slots), unwrapping the queued
// closures to the front of the new one.
//
//go:noinline
func (q *FuncQueue) grow() {
	fns := make([]func(), max(4, 2*len(q.fns)))
	k := copy(fns, q.fns[q.head:])
	copy(fns[k:], q.fns[:q.head])
	q.fns, q.head = fns, 0
}

// Pop removes and returns the oldest closure, or nil if the queue is
// empty.
//
//simlint:hotpath
func (q *FuncQueue) Pop() func() {
	if q.n == 0 {
		return nil
	}
	fn := q.fns[q.head]
	q.fns[q.head] = nil // release for GC
	q.head = (q.head + 1) & (len(q.fns) - 1)
	q.n--
	return fn
}

// FreeList is a stack of reusable request records of one kind. It is
// owned by one shard: only that shard's goroutine, or the run loop
// between windows, may call its methods. Records are scratch that lives
// for one request; a list whose Out is zero holds every record it ever
// built, so a drained simulation has no request state to snapshot.
type FreeList[T any] struct {
	// New builds a record when the list is empty. It is the one place a
	// record kind allocates; after warm-up the list stops missing.
	New  func() *T
	free []*T
	out  int
}

// Get pops a free record, building one with New when none is free.
//
//simlint:hotpath
func (l *FreeList[T]) Get() *T {
	l.out++
	if n := len(l.free) - 1; n >= 0 {
		r := l.free[n]
		l.free[n] = nil
		l.free = l.free[:n]
		return r
	}
	return l.New()
}

// Put returns r to the list; the caller must not touch r afterwards.
//
//simlint:hotpath
func (l *FreeList[T]) Put(r *T) {
	l.out--
	n := len(l.free)
	if n == cap(l.free) {
		l.grow()
	}
	l.free = l.free[:n+1]
	l.free[n] = r
}

// grow doubles the free stack's capacity (to at least 16 records).
//
//go:noinline
func (l *FreeList[T]) grow() {
	free := make([]*T, len(l.free), max(16, 2*cap(l.free)))
	copy(free, l.free)
	l.free = free
}

// Out returns the number of records handed out and not yet returned.
func (l *FreeList[T]) Out() int { return l.out }
