package server

import (
	"testing"

	"github.com/plutus-gpu/plutus/internal/secmem"
	"github.com/plutus-gpu/plutus/internal/stats"
)

// TestSlowSubscriberGetsTerminalEvent: a subscriber that reads nothing
// while its job is preempted five times (ten transitions, more than its
// channel holds) and then settles still receives the terminal event,
// last and in sequence order, so an SSE stream always ends with it.
func TestSlowSubscriberGetsTerminalEvent(t *testing.T) {
	j := newJob("run-000001", RunRequest{Benchmark: "bfs", Scheme: "pssm"}, secmem.Config{}, "bfs|pssm")
	_, live, cancel := j.subscribe()
	defer cancel()
	for i := 0; i < 5; i++ {
		j.transition(StateRunning, "simulation started")
		j.transition(StateQueued, "preempted at checkpoint; requeued")
	}
	j.settle(&stats.Stats{}, nil, nil)

	var got []Event
	for ev := range live {
		got = append(got, ev)
	}
	if len(got) == 0 {
		t.Fatal("subscriber received no events")
	}
	if last := got[len(got)-1]; last.State != StateDone {
		t.Fatalf("last of %d events is %+v, want the terminal done event", len(got), last)
	}
	for i := 1; i < len(got); i++ {
		if got[i].Seq <= got[i-1].Seq {
			t.Fatalf("events out of order: seq %d after %d", got[i].Seq, got[i-1].Seq)
		}
	}
}
