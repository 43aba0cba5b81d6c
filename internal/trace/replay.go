package trace

import (
	"fmt"
	"os"
	"sort"

	"github.com/plutus-gpu/plutus/internal/geom"
	"github.com/plutus-gpu/plutus/internal/gpusim"
	"github.com/plutus-gpu/plutus/internal/valmodel"
)

// Replay adapts a serialized trace to gpusim.Workload with bounded
// memory: it is a set of per-warp cursors over a Reader, so only the
// header and footer index stay resident, and each warp streams through
// its chunks one at a time — a chunk is dropped the moment its last
// record is consumed, so replaying a multi-GB trace never materializes
// the record stream. Memory values come from the value model embedded
// in the header, so a replay reproduces the capture source's memory
// image and store stream exactly.
//
// The cursor is the per-warp consumed-record count, and RestoreCursor
// seeks through the footer index to the chunk containing each position
// — so traced runs checkpoint, resume, and preempt byte-identically to
// synthetic ones.
//
// The reader opens the file for each chunk load and closes it again
// (one open per DefaultChunkRecords records), so an idle or
// merely-validated Replay holds no file descriptor. Next cannot report
// errors through the Workload interface; a chunk that fails to load or
// verify mid-run panics with the decode error — replay I/O failure is
// environment breakage, not a result.
type Replay struct {
	name string
	tr   *Reader
	cur  []warpCursor
	// resident counts records currently decoded; maxResident is its
	// high-water mark, the number the alloc-bounded test pins against
	// the one-chunk-per-warp guarantee.
	resident    int
	maxResident int
}

// warpCursor is one warp's position in its stream.
type warpCursor struct {
	pos   uint64 // records consumed
	chunk int    // index of the chunk containing pos
	recs  []Record
	off   int // next record within recs
}

// OpenReplay validates the trace at path (header, trailer, and footer
// index CRCs) through one open descriptor and returns a replayable
// workload named name. The file is closed again before returning;
// chunks load on demand.
func OpenReplay(name, path string) (*Replay, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	tr, err := NewReader(f, fi.Size())
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	tr.r = reopen(path)
	return &Replay{name: name, tr: tr, cur: make([]warpCursor, tr.Warps())}, nil
}

// reopen reads the file at its path, opening it for each read.
type reopen string

func (p reopen) ReadAt(b []byte, off int64) (int, error) {
	f, err := os.Open(string(p))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	return f.ReadAt(b, off)
}

// Name implements gpusim.Workload.
func (r *Replay) Name() string { return r.name }

// Warps implements gpusim.Workload.
func (r *Replay) Warps() int { return r.tr.Warps() }

// TotalRecords returns the trace's record count.
func (r *Replay) TotalRecords() uint64 { return r.tr.TotalRecords() }

// ValueModel implements valmodel.Modeler, so a replay can itself be
// captured with full value fidelity.
func (r *Replay) ValueModel() valmodel.Model { return r.tr.hdr.Model }

// Next implements gpusim.Workload, streaming warp w through its
// chunks in capture order.
func (r *Replay) Next(w int) (gpusim.Inst, bool) {
	c := &r.cur[w]
	if c.pos >= r.tr.WarpRecords(w) {
		return gpusim.Inst{}, false
	}
	if c.recs == nil {
		recs, err := r.tr.LoadChunk(w, c.chunk)
		if err != nil {
			// See the type comment: the Workload interface has no error
			// path, and silently retiring the warp would corrupt results.
			panic(fmt.Sprintf("trace: replay %s: %v", r.name, err))
		}
		c.recs = recs
		c.off = int(c.pos - r.tr.index[w][c.chunk].FirstIndex)
		r.resident += len(recs)
		if r.resident > r.maxResident {
			r.maxResident = r.resident
		}
	}
	rec := c.recs[c.off]
	c.off++
	c.pos++
	if c.off == len(c.recs) {
		r.resident -= len(c.recs)
		c.recs = nil
		c.chunk++
	}
	return rec.Inst(), true
}

// MemValue implements gpusim.Workload (pure in addr, safe for the
// parallel partition shards).
func (r *Replay) MemValue(a geom.Addr) uint32 { return r.tr.hdr.Model.MemValue(a) }

// StoreValue implements gpusim.Workload.
func (r *Replay) StoreValue(w int, a geom.Addr) uint32 { return r.tr.hdr.Model.StoreValue(w, a) }

// MaxResidentRecords returns the high-water mark of simultaneously
// decoded records across all warps — bounded by warps × chunk target
// regardless of trace length.
func (r *Replay) MaxResidentRecords() int { return r.maxResident }

// Cursor implements gpusim.Workload: the per-warp consumed-record
// counts, the stream's complete mutable state.
func (r *Replay) Cursor() []uint64 {
	out := make([]uint64, len(r.cur))
	for w := range r.cur {
		out[w] = r.cur[w].pos
	}
	return out
}

// RestoreCursor implements gpusim.Workload, seeking each warp to a
// previously captured position via the footer index. Loaded chunks are
// dropped; the next Next reloads the right one.
func (r *Replay) RestoreCursor(cur []uint64) error {
	if len(cur) != len(r.cur) {
		return fmt.Errorf("trace %s: cursor has %d warps, trace has %d", r.name, len(cur), len(r.cur))
	}
	for w, pos := range cur {
		if n := r.tr.WarpRecords(w); pos > n {
			return fmt.Errorf("trace %s: warp %d cursor %d beyond %d records", r.name, w, pos, n)
		}
	}
	for w, pos := range cur {
		c := &r.cur[w]
		if c.recs != nil {
			r.resident -= len(c.recs)
		}
		// The first chunk extending past pos; a cursor at the stream's
		// end leaves chunk one past the last.
		chunks := r.tr.index[w]
		i := sort.Search(len(chunks), func(i int) bool {
			return chunks[i].FirstIndex+uint64(chunks[i].Count) > pos
		})
		*c = warpCursor{pos: pos, chunk: i}
	}
	return nil
}
