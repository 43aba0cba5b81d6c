package main

import (
	"context"
	"fmt"
	"time"

	"github.com/plutus-gpu/plutus/internal/harness"
	"github.com/plutus-gpu/plutus/internal/secmem"
	"github.com/plutus-gpu/plutus/internal/stats"
	"github.com/plutus-gpu/plutus/internal/workload"
)

const (
	protectedBytes = 128 << 20
	// graphBudget is the figure budget of results/.
	graphBudget = 20000
	// writeBudget exceeds every sweep-write stream (at most 288k
	// warp-instructions), so each cell runs to the end of its stream.
	writeBudget = 300000
)

// cellSpec is one (benchmark, scheme) grid cell.
type cellSpec struct{ bench, scheme string }

// sweep runs a fixed grid of cells through harness.Runner.RunSeeded in a
// fixed order, one simulation at a time: a cell's host time is then not
// shared with a co-running simulation, and the garbage collector's
// background work has the other processor to itself.
type sweep struct {
	seed   uint64
	budget uint64
	// warmup is the budget of the set-up's warm-up run of each cell.
	warmup  uint64
	cells   []cellSpec
	benches []string
	scs     map[string]secmem.Config
}

func newSweepGraph(seed uint64) bench {
	return &sweep{seed: seed, budget: graphBudget, warmup: 500, cells: []cellSpec{
		{"bfs", "pssm"}, {"bfs", "plutus"}, {"spmv", "pssm"},
		{"spmv", "plutus"}, {"pagerank", "pssm"}, {"pagerank", "plutus"},
	}}
}

func newSweepWrite(seed uint64) bench {
	return &sweep{seed: seed, budget: writeBudget, warmup: 4000, cells: []cellSpec{
		{"histo", "nosec"}, {"histo", "plutus"}, {"histo", "mgx"},
		{"backprop", "nosec"}, {"backprop", "plutus"}, {"backprop", "mgx"},
		{"stream", "nosec"}, {"stream", "plutus"}, {"stream", "mgx"},
	}}
}

func cellID(bench, scheme string, seed uint64) string {
	return fmt.Sprintf("%s/%s/%d", bench, scheme, seed)
}

// setup resolves every scheme and workload name and warms each cell up
// on a small budget, so the timed phase starts with the code paths and
// the heap already in use.
func (s *sweep) setup(ctx context.Context, e *env) error {
	s.scs = map[string]secmem.Config{}
	for _, c := range s.cells {
		sc, err := secmem.ByName(c.scheme, protectedBytes)
		if err != nil {
			return err
		}
		s.scs[c.scheme] = sc
		if _, err := workload.GetSeeded(c.bench, s.seed); err != nil {
			return err
		}
		s.benches = append(s.benches, c.bench)
	}
	warm := harness.NewRunner(harness.Config{MaxInstructions: s.warmup, Benchmarks: s.benches, Parallelism: 1})
	return e.tr.region(ctx, "warmup", func(context.Context) error {
		for _, c := range s.cells {
			if _, err := warm.RunSeeded(c.bench, s.scs[c.scheme], s.seed); err != nil {
				return err
			}
		}
		return nil
	})
}

// pass runs every cell once on a fresh Runner (so nothing is served from
// the run cache) and checks each result.
func (s *sweep) pass(ctx context.Context, e *env, p int, ph *phase) {
	r := harness.NewRunner(harness.Config{MaxInstructions: s.budget, Benchmarks: s.benches, Parallelism: 1})
	for _, c := range s.cells {
		id := cellID(c.bench, c.scheme, s.seed)
		t0 := time.Now()
		var st *stats.Stats
		err := e.tr.span(ctx, "harness.RunSeeded", id, func(context.Context) error {
			var err error
			st, err = r.RunSeeded(c.bench, s.scs[c.scheme], s.seed)
			return err
		})
		if err != nil {
			// A false security alarm surfaces here as a harness error.
			ph.op(time.Since(t0))
			ph.fail("%s: %v", id, err)
			continue
		}
		ph.digest(ctx, e, id, st)
		ph.op(time.Since(t0))
		ph.retired(st.Instructions)
		ph.result(p, st)
		if st.Sec.TamperDetected != 0 || st.Sec.ReplayDetected != 0 {
			ph.fail("%s: false security alarm: tamper %d replay %d", id, st.Sec.TamperDetected, st.Sec.ReplayDetected)
		}
		if st.Instructions == 0 || (s.budget == writeBudget && st.Instructions >= s.budget) {
			ph.fail("%s: retired %d warp-instructions at budget %d", id, st.Instructions, s.budget)
		}
	}
	if p == 0 {
		m := r.Metrics()
		ph.setLayer("harness.hit_rate", m.HitRate())
	}
}

func (s *sweep) finish(context.Context, *env, *phase) {}

func (s *sweep) close() {}
