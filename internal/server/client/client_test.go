package client

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"github.com/plutus-gpu/plutus/internal/secmem"
	"github.com/plutus-gpu/plutus/internal/server"
	"github.com/plutus-gpu/plutus/internal/stats"
)

// TestBackoffWait pins the retry schedule's shape: exponential growth
// from base, the server's advice as a floor, the cap as a ceiling —
// with jitter pinned to identity so the arithmetic is observable.
func TestBackoffWait(t *testing.T) {
	ident := func(d time.Duration) time.Duration { return d }
	b := backoff{base: 100 * time.Millisecond, cap: 2 * time.Second, jitter: ident}
	cases := []struct {
		attempt int
		advice  time.Duration
		want    time.Duration
	}{
		{0, 0, 100 * time.Millisecond},
		{1, 0, 200 * time.Millisecond},
		{2, 0, 400 * time.Millisecond},
		{0, time.Second, time.Second},          // advice floors the small exponential term
		{10, 0, 2 * time.Second},               // cap wins over 102.4 s
		{0, 30 * time.Second, 2 * time.Second}, // cap wins over advice too
		{200, time.Second, 2 * time.Second},    // a huge attempt count hits the cap without overflowing
	}
	for _, c := range cases {
		if got := b.wait(c.attempt, c.advice); got != c.want {
			t.Errorf("wait(%d, %s) = %s, want %s", c.attempt, c.advice, got, c.want)
		}
	}
}

// TestBackoffJitterBounded: the default jitter keeps every wait inside
// (0, cap], never zero and never above the cap.
func TestBackoffJitterBounded(t *testing.T) {
	b := New("").retry
	for attempt := 0; attempt < 12; attempt++ {
		for i := 0; i < 50; i++ {
			w := b.wait(attempt, 700*time.Millisecond)
			if w <= 0 || w > b.cap {
				t.Fatalf("wait(%d) = %s, outside (0, %s]", attempt, w, b.cap)
			}
		}
	}
}

// drainBackend settles every run instantly; the queue pressure in the
// saturation test comes from a worker pool of one and a tiny sleep that
// keeps a run on the worker long enough for the queue to fill.
type drainBackend struct {
	hold time.Duration
	mu   sync.Mutex
	runs int
}

func (d *drainBackend) RunSeededContext(_ context.Context, bench string, sc secmem.Config, _ uint64) (*stats.Stats, error) {
	time.Sleep(d.hold)
	d.mu.Lock()
	d.runs++
	d.mu.Unlock()
	return &stats.Stats{Benchmark: bench, Scheme: sc.Scheme, Cycles: 1, Instructions: 1}, nil
}

// TestSaturatedQueueDrainsThroughClient is the satellite acceptance:
// with one worker and a depth-1 queue, a burst of distinct submissions
// far over capacity must all eventually land — the client absorbs every
// 429 with capped jittered backoff and resubmits until the queue has
// room — and raw Submit must still surface QueueFullError immediately.
func TestSaturatedQueueDrainsThroughClient(t *testing.T) {
	fb := &drainBackend{hold: 20 * time.Millisecond}
	s := server.New(server.Config{Backend: fb, Workers: 1, QueueDepth: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Drain()

	benches := []string{"bfs", "hotspot", "kmeans", "srad", "stream", "sgemm"}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	var wg sync.WaitGroup
	errs := make(chan error, len(benches))
	sawFull := make(chan struct{}, len(benches))
	for _, bench := range benches {
		wg.Add(1)
		go func(bench string) {
			defer wg.Done()
			c := New(ts.URL)
			c.retry = backoff{base: 5 * time.Millisecond, cap: 50 * time.Millisecond}
			// Prove the raw path still fails fast under saturation.
			if _, err := c.Submit(ctx, server.RunRequest{Benchmark: bench, Scheme: "pssm"}); err != nil {
				var full *QueueFullError
				if !errors.As(err, &full) {
					errs <- fmt.Errorf("%s: raw submit: %v", bench, err)
					return
				}
				sawFull <- struct{}{}
			}
			st, err := c.Run(ctx, server.RunRequest{Benchmark: bench, Scheme: "pssm"})
			if err != nil {
				errs <- fmt.Errorf("%s: %v", bench, err)
				return
			}
			if st.State != server.StateDone {
				errs <- fmt.Errorf("%s: state %s: %s", bench, st.State, st.Error)
			}
		}(bench)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if len(sawFull) == 0 {
		t.Error("queue never saturated; the test exercised no backpressure")
	}
	fb.mu.Lock()
	defer fb.mu.Unlock()
	if fb.runs != len(benches) {
		t.Errorf("backend ran %d of %d distinct submissions", fb.runs, len(benches))
	}
}
