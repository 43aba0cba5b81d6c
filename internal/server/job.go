package server

import (
	"sync"

	"github.com/plutus-gpu/plutus/internal/secmem"
	"github.com/plutus-gpu/plutus/internal/stats"
)

// maxEventsPerJob bounds a subscriber channel so transition can always
// send without blocking: an unpreempted job emits at most one event per
// state plus its creation event, far below this. Preemption adds two
// events per requeue; a slow subscriber on a many-times-preempted job
// loses intermediate events, never the terminal one it waits for.
const maxEventsPerJob = 8

// job is one accepted run moving through the queue. All mutable state
// is guarded by mu; done is closed exactly once, on the transition to a
// terminal state.
type job struct {
	id  string
	req RunRequest
	sc  secmem.Config
	key string // dedup key, mirrors harness's cache key inputs

	mu     sync.Mutex
	state  State
	st     *stats.Stats
	err    error
	events []Event
	subs   []chan Event
	done   chan struct{}
}

func newJob(id string, req RunRequest, sc secmem.Config, key string) *job {
	j := &job{id: id, req: req, sc: sc, key: key, done: make(chan struct{})}
	j.transition(StateQueued, "accepted")
	return j
}

// transition moves the job to state, records the event, and fans it out
// to subscribers. Terminal transitions close every subscriber channel
// and the done latch.
func (j *job) transition(state State, msg string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.transitionLocked(state, msg)
}

func (j *job) transitionLocked(state State, msg string) {
	j.state = state
	ev := Event{Seq: len(j.events) + 1, State: state, Message: msg}
	j.events = append(j.events, ev)
	for _, ch := range j.subs {
		select {
		case ch <- ev:
		default: // subscriber channel full — only a many-times-preempted job gets here; drop
		}
	}
	if state.Terminal() {
		for _, ch := range j.subs {
			close(ch)
		}
		j.subs = nil
		close(j.done)
	}
}

// settle moves the job to its terminal state: done with st, or failed
// with err. record (nullable) receives the terminal record first, under
// the job lock: once done closes, a client may restart or kill the
// daemon, so the durable copy must already say finished — and holding
// the lock keeps a concurrent persist from overwriting it with a stale
// state.
func (j *job) settle(st *stats.Stats, err error, record func(persistedJob)) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.st, j.err = st, err
	state, msg := StateDone, "simulation finished"
	if err != nil {
		state, msg = StateFailed, err.Error()
	}
	if record != nil {
		record(j.recordLocked(state))
	}
	j.transitionLocked(state, msg)
}

// recordLocked is the job's on-disk record in the given state.
func (j *job) recordLocked(state State) persistedJob {
	p := persistedJob{ID: j.id, Request: j.req, State: state, Stats: j.st}
	if j.err != nil {
		p.Error = j.err.Error()
	}
	return p
}

// snapshot returns the job's wire representation.
func (j *job) snapshot() RunStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	s := RunStatus{
		ID:        j.id,
		Benchmark: j.req.Benchmark,
		Scheme:    j.sc.Scheme,
		Seed:      j.req.Seed,
		State:     j.state,
		Stats:     j.st,
	}
	if j.err != nil {
		s.Error = j.err.Error()
	}
	return s
}

// currentState returns the job's lifecycle position.
func (j *job) currentState() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// result returns the settled outcome; ok is false until terminal.
func (j *job) result() (st *stats.Stats, err error, ok bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.st, j.err, j.state.Terminal()
}

// subscribe returns the event history so far plus a live channel that
// receives subsequent events and is closed at the terminal transition
// (immediately, via a closed channel, if the job already finished).
// cancel detaches the live channel early.
func (j *job) subscribe() (replay []Event, live <-chan Event, cancel func()) {
	j.mu.Lock()
	defer j.mu.Unlock()
	replay = append([]Event(nil), j.events...)
	ch := make(chan Event, maxEventsPerJob)
	if j.state.Terminal() {
		close(ch)
		return replay, ch, func() {}
	}
	j.subs = append(j.subs, ch)
	return replay, ch, func() {
		j.mu.Lock()
		defer j.mu.Unlock()
		for i, c := range j.subs {
			if c == ch {
				j.subs = append(j.subs[:i], j.subs[i+1:]...)
				return
			}
		}
	}
}
