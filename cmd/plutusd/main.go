// Command plutusd serves Plutus simulations as a service: an HTTP/JSON
// API over the shared harness runner, with a bounded job queue, a
// worker pool, server-sent-event progress streams, and a run cache
// shared across all clients — submitting the same (benchmark, scheme)
// twice simulates once.
//
// Usage:
//
//	plutusd -addr :8091 -workers 4 -queue 64 -insts 20000
//
// Then, from any client:
//
//	plutussim -bench bfs -scheme plutus -remote http://127.0.0.1:8091
//	curl -s -X POST localhost:8091/v1/runs \
//	    -d '{"benchmark":"bfs","scheme":"plutus"}'
//
// On SIGTERM/SIGINT the daemon drains: it stops accepting new runs
// (503), finishes every accepted job, keeps serving status/result reads
// for a short linger window so waiting clients can collect, then exits.
//
// With -state-dir the daemon survives harder deaths than SIGTERM: every
// job is persisted to disk, finished results keep being served after a
// restart, and jobs that were queued or running when the daemon died
// are re-enqueued on boot. Add -checkpoint-every to snapshot running
// simulations so the re-enqueued jobs resume mid-run instead of
// restarting, and -preempt-slice to bound how long any one job may hold
// a worker before it is parked at a checkpoint and requeued:
//
//	plutusd -state-dir /var/lib/plutusd -checkpoint-every 100000 -preempt-slice 30s
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"github.com/plutus-gpu/plutus/internal/harness"
	"github.com/plutus-gpu/plutus/internal/server"
)

// options collects the flag values run needs.
type options struct {
	addr         string
	workers      int
	queue        int
	insts        uint64
	volta        bool
	linger       time.Duration
	stateDir     string
	ckptEvery    uint64
	preemptSlice time.Duration
}

func main() {
	var o options
	flag.StringVar(&o.addr, "addr", ":8091", "listen address")
	flag.IntVar(&o.workers, "workers", runtime.GOMAXPROCS(0), "worker-pool size (concurrent simulations)")
	flag.IntVar(&o.queue, "queue", 64, "queued-job bound; a full queue rejects submissions with 429")
	flag.Uint64Var(&o.insts, "insts", harness.DefaultInstructions, "warp-instruction budget per run")
	flag.BoolVar(&o.volta, "volta", false, "full 80-SM/32-partition Volta config (slow)")
	flag.DurationVar(&o.linger, "linger", 2*time.Second, "how long to keep serving reads after the drain finishes")
	flag.StringVar(&o.stateDir, "state-dir", "", "persist jobs and run snapshots here; a restarted daemon recovers them")
	flag.Uint64Var(&o.ckptEvery, "checkpoint-every", 0, "snapshot running simulations every N cycles (requires -state-dir)")
	flag.DurationVar(&o.preemptSlice, "preempt-slice", 0, "max time one job may hold a worker before being parked at a checkpoint and requeued (requires -checkpoint-every)")
	flag.Parse()
	if o.ckptEvery > 0 && o.stateDir == "" {
		fmt.Fprintln(os.Stderr, "plutusd: -checkpoint-every requires -state-dir")
		os.Exit(1)
	}
	if o.preemptSlice > 0 && o.ckptEvery == 0 {
		fmt.Fprintln(os.Stderr, "plutusd: -preempt-slice requires -checkpoint-every (preemption parks jobs at checkpoints)")
		os.Exit(1)
	}
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "plutusd:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	hcfg := harness.Config{
		MaxInstructions: o.insts,
		Parallelism:     o.workers,
		FullVolta:       o.volta,
	}
	scfg := server.Config{
		Workers:      o.workers,
		QueueDepth:   o.queue,
		PreemptSlice: o.preemptSlice,
	}
	if o.stateDir != "" {
		scfg.StateDir = filepath.Join(o.stateDir, "jobs")
		if o.ckptEvery > 0 {
			hcfg.CheckpointEvery = o.ckptEvery
			hcfg.CheckpointDir = filepath.Join(o.stateDir, "checkpoints")
			hcfg.Resume = true
			if err := os.MkdirAll(hcfg.CheckpointDir, 0o755); err != nil {
				return fmt.Errorf("checkpoint dir: %w", err)
			}
		}
	}
	runner := harness.NewRunner(hcfg)
	scfg.Backend = runner
	scfg.MaxInstructions = runner.Config().MaxInstructions
	s := server.New(scfg)

	hs := &http.Server{Addr: o.addr, Handler: s.Handler()}
	errCh := make(chan error, 1)
	go func() {
		if err := hs.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errCh <- err
		}
	}()
	log.Printf("plutusd listening on %s (%d workers, queue %d, %d insts/run)",
		o.addr, o.workers, o.queue, runner.Config().MaxInstructions)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stop()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}

	// Graceful drain: refuse new submissions, carry every accepted job
	// to a settled result, linger so in-flight clients can fetch it,
	// then close the listener.
	log.Print("plutusd: signal received; draining (new submissions get 503)")
	s.Drain()
	log.Printf("plutusd: drain complete; lingering %s for result pickup", o.linger)
	time.Sleep(o.linger)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return hs.Shutdown(shutdownCtx)
}
