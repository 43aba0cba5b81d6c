package secmem

import (
	"testing"

	"github.com/plutus-gpu/plutus/internal/geom"
)

// TestRequestPathSteadyStateAllocs is the request path's dynamic
// allocation gate. hotalloc proves the annotated bodies free of escapes,
// but it cannot see a free list, MSHR slab, wait queue or map that keeps
// growing; this test can. For every registry scheme, an engine with
// small MSHR files is warmed over a fixed sector set with mixed reads
// and writebacks until its metadata caches are full, its fetches park
// on full MSHRs, every record list, page and tree-map key the batch
// touches exists, and the event queue's node slab has grown to the
// batch's peak of live events. The same batch, drained to empty, must
// then allocate nothing.
//
// Each sector is written at most twice, so no minor counter overflows
// and no 2-bit compact counter saturates: overflow re-encryption and
// the compact-overflow serial fetch are cold paths that still allocate.
func TestRequestPathSteadyStateAllocs(t *testing.T) {
	const (
		sectors = 1024
		stride  = protected / sectors
		runs    = 3
	)
	data := sector(0x5eed, 0xfeed, 7)
	addr := func(k int) geom.Addr { return geom.Addr(k%sectors) * stride }
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			cfg, err := ByName(name, protected)
			if err != nil {
				t.Fatal(err)
			}
			cfg.MetaMSHRs = 4
			r := wire(newRig(t, cfg))
			parks, build := 0, r.e.rec.parked.New
			r.e.rec.parked.New = func() *parkedFetch { parks++; return build() }
			for k := 0; k < sectors; k++ {
				r.e.Writeback(addr(k), data, nil)
				r.e.Read(addr(k), discardRead)
			}
			r.eng.Drain(0)

			// One batch issues a read of every sector, one per cycle, and a
			// writeback of the next sector in a rotating window every 8th
			// cycle; over the 6 batches below the window covers 768 of the
			// 1024 sectors once.
			written, k := 0, 0
			var issue func()
			issue = func() {
				r.e.Read(addr(k), discardRead)
				if k%8 == 0 {
					r.e.Writeback(addr(written), data, nil)
					written++
				}
				if k++; k < sectors {
					r.eng.Schedule(1, issue)
				}
			}
			batch := func() {
				k = 0
				r.eng.Schedule(0, issue)
				r.eng.Drain(0)
				if n := r.e.Pending(); n != 0 || r.e.mshrWait.Len() != 0 {
					t.Fatalf("drained batch left %d records and %d parked fetches", n, r.e.mshrWait.Len())
				}
			}
			batch()
			batch()
			if got := testing.AllocsPerRun(runs, batch); got != 0 {
				t.Fatalf("request path allocates in steady state: %.1f allocs per batch", got)
			}
			if written > sectors {
				t.Fatalf("window wrapped: %d writebacks over %d sectors", written, sectors)
			}
			if r.e.macCache != nil && parks == 0 {
				t.Fatalf("no metadata fetch parked on a full MSHR file")
			}
			if r.st.Sec.CompactOverflow != 0 {
				t.Fatalf("%d reads took the compact-overflow path", r.st.Sec.CompactOverflow)
			}
		})
	}
}

// discardRead is a top-level read callback, so passing it allocates no
// closure.
func discardRead(ReadResult) {}

// Fetches parked on full MSHR files all complete. Fill completions wake
// parked fetches a bounded batch at a time, and a burst like this one
// reaches a woken batch that issues no fill while thousands of fetches
// are still parked: that batch must wake the next itself, or the event
// queue empties with the requests unserved.
func TestParkedFetchesComplete(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			cfg, err := ByName(name, protected)
			if err != nil {
				t.Fatal(err)
			}
			cfg.MetaMSHRs = 4
			r := wire(newRig(t, cfg))
			reads := 0
			for k := 0; k < 1024; k++ {
				a := geom.Addr(k) * 1024
				r.e.Writeback(a, sector(1, 2, 3), nil)
				r.e.Read(a, func(ReadResult) { reads++ })
			}
			r.eng.Drain(0)
			if reads != 1024 || r.e.Pending() != 0 || r.e.mshrWait.Len() != 0 {
				t.Fatalf("%d of 1024 reads completed; %d requests pending, %d fetches parked",
					reads, r.e.Pending(), r.e.mshrWait.Len())
			}
		})
	}
}
