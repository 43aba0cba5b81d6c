package cluster

import (
	"context"
	"fmt"
	"sync"
)

// SweepCell is the public status of one grid cell within a sweep.
type SweepCell struct {
	Benchmark string `json:"benchmark"`
	Scheme    string `json:"scheme"`
	Seed      uint64 `json:"seed"`
	Key       string `json:"key"`
	Done      bool   `json:"done"`
	Digest    string `json:"digest,omitempty"`
	Error     string `json:"error,omitempty"`
}

// Sweep tracks one submitted (benchmark × scheme × seed) grid.
type Sweep struct {
	ID     string
	Tenant string

	mu    sync.Mutex
	cells []SweepCell
	done  chan struct{}
	err   error
}

// SweepStatus is the wire rendering of a sweep's progress.
type SweepStatus struct {
	ID        string      `json:"id"`
	Tenant    string      `json:"tenant"`
	Total     int         `json:"total"`
	Completed int         `json:"completed"`
	Failed    int         `json:"failed"`
	Done      bool        `json:"done"`
	Cells     []SweepCell `json:"cells"`
}

// Status snapshots the sweep's progress.
func (sw *Sweep) Status() SweepStatus {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	st := SweepStatus{ID: sw.ID, Tenant: sw.Tenant, Total: len(sw.cells)}
	st.Cells = append([]SweepCell(nil), sw.cells...)
	for _, c := range st.Cells {
		if !c.Done {
			continue
		}
		if c.Error == "" {
			st.Completed++
		} else {
			st.Failed++
		}
	}
	select {
	case <-sw.done:
		st.Done = true
	default:
	}
	return st
}

// Wait blocks until every cell settles (or ctx cancels) and returns the
// first cell error, if any.
func (sw *Sweep) Wait(ctx context.Context) error {
	select {
	case <-sw.done:
		sw.mu.Lock()
		defer sw.mu.Unlock()
		return sw.err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// SubmitSweep expands benches × schemes × seeds into a run grid,
// admits it against the tenant's quota as one unit (a sweep is either
// fully admitted or fully shed), and drives every cell to settlement in
// the background. An empty seeds slice means the canonical seed 0.
func (co *Coordinator) SubmitSweep(tenantName string, benches, schemes []string, seeds []uint64) (*Sweep, error) {
	if len(benches) == 0 || len(schemes) == 0 {
		return nil, &BadRequestError{fmt.Errorf("cluster: empty sweep (benchmarks %v, schemes %v)", benches, schemes)}
	}
	if len(seeds) == 0 {
		seeds = []uint64{0}
	}
	// Expand bench-major, deterministically, validating every name up
	// front so a typo fails the whole sweep instead of one cell mid-run.
	var cells []SweepCell
	for _, bench := range benches {
		for _, scheme := range schemes {
			for _, seed := range seeds {
				key, err := co.resolve(bench, scheme, seed)
				if err != nil {
					return nil, err
				}
				cells = append(cells, SweepCell{Benchmark: bench, Scheme: scheme, Seed: seed, Key: key})
			}
		}
	}
	if err := co.admit(tenantName, len(cells)); err != nil {
		return nil, err
	}

	co.mu.Lock()
	co.sweepSeq++
	sw := &Sweep{
		ID:     fmt.Sprintf("sweep-%d", co.sweepSeq),
		Tenant: tenantName,
		cells:  cells,
		done:   make(chan struct{}),
	}
	co.sweeps[sw.ID] = sw
	co.mu.Unlock()

	go co.runSweep(sw)
	return sw, nil
}

// SweepByID returns a submitted sweep.
func (co *Coordinator) SweepByID(id string) (*Sweep, bool) {
	co.mu.Lock()
	defer co.mu.Unlock()
	sw, ok := co.sweeps[id]
	return sw, ok
}

// runSweep drives every cell of a sweep concurrently; the worker-pick
// and tenant-inflight machinery bound actual parallelism.
func (co *Coordinator) runSweep(sw *Sweep) {
	defer close(sw.done)
	sw.mu.Lock()
	n := len(sw.cells)
	specs := append([]SweepCell(nil), sw.cells...)
	sw.mu.Unlock()
	defer co.releasePending(sw.Tenant, n)

	var wg sync.WaitGroup
	for i, spec := range specs {
		wg.Add(1)
		go func(i int, spec SweepCell) {
			defer wg.Done()
			digest, err := co.runSweepCell(sw.Tenant, spec)
			sw.mu.Lock()
			sw.cells[i].Done = true
			sw.cells[i].Digest = digest
			if err != nil {
				sw.cells[i].Error = err.Error()
				if sw.err == nil {
					sw.err = fmt.Errorf("cell %s: %w", spec.Key, err)
				}
			}
			sw.mu.Unlock()
		}(i, spec)
	}
	wg.Wait()
}

func (co *Coordinator) runSweepCell(tenantName string, spec SweepCell) (string, error) {
	c, _, digest := co.startCell(tenantName, spec.Benchmark, spec.Scheme, spec.Key, spec.Seed)
	if c == nil {
		return digest, nil
	}
	<-c.done
	if c.err != nil {
		return "", c.err
	}
	return c.digest, nil
}
