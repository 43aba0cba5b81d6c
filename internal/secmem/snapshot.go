package secmem

import (
	"fmt"
	"reflect"

	"github.com/plutus-gpu/plutus/internal/checkpoint"
	"github.com/plutus-gpu/plutus/internal/dense"
	"github.com/plutus-gpu/plutus/internal/geom"
)

// part is one snapshotted piece of the engine's composition.
type part interface {
	Snapshot(*checkpoint.Encoder) error
	Restore(*checkpoint.Decoder) error
}

// present drops the parts the composition lacks (nil pointers), keeping
// the rest in order.
func present(ps ...part) []part {
	out := ps[:0]
	for _, p := range ps {
		if !reflect.ValueOf(p).IsNil() {
			out = append(out, p)
		}
	}
	return out
}

// Snapshot encodes the engine's complete mutable state: the functional
// DRAM image (ciphertexts and MACs), the stale-MAC / tamper / replay /
// region write-tracking sets, then every part the composition holds, in
// one fixed order: share versions, derived versions, the split counters,
// the original counter region with the MAC cache, the compact region,
// and the value cache. Dense stores are walked in ascending index order
// (and the one remaining map in sorted key order) so identical state is
// identical bytes.
//
// The engine must be quiescent — no in-flight datapath requests and no
// fetches parked on MSHR exhaustion — because those hold closures that
// cannot be serialized; snapshots are taken at drained epoch boundaries.
// Scratch state (overflowPlain, hashScratch, the run buffers) is dead
// between drained epochs and is deliberately not captured.
func (e *Engine) Snapshot(enc *checkpoint.Encoder) error {
	if e.pending != 0 || e.mshrWait.Len() != 0 {
		return fmt.Errorf("secmem: %d pending requests, %d MSHR waiters: %w",
			e.pending, e.mshrWait.Len(), checkpoint.ErrNotQuiescent)
	}
	enc.U64(uint64(e.mem.Count()))
	e.mem.ForEach(func(i uint64, rec []byte) {
		enc.U64(i * geom.SectorSize)
		enc.Bytes(rec)
	})
	enc.U64(uint64(e.macsSet.Count()))
	e.macsSet.ForEach(func(i uint64) {
		enc.U64(i)
		enc.U64(e.macs.Get(i))
	})
	snapshotBitmap(enc, &e.macStale)
	snapshotBitmap(enc, &e.taintData)
	snapshotBitmap(enc, &e.taintMeta)
	snapshotBitmap(enc, &e.ctr.replayed)
	snapshotBitmap(enc, &e.cctr.replayed)
	snapshotAddrBoolMap(enc, e.bmtTampered)
	snapshotBitmap(enc, &e.regionWritten)
	for _, p := range present(e.shares, e.derived, e.split, e.ctr.tree, e.ctr.cache, e.macCache, e.ctr.treeCache,
		e.compact, e.cctr.tree, e.cctr.cache, e.cctr.treeCache, e.vcache) {
		if err := p.Snapshot(enc); err != nil {
			return err
		}
	}
	return nil
}

// Restore decodes state written by Snapshot into an engine freshly
// built from the same configuration. Runtime wiring — the DRAM channel,
// stats sink, InitData hook, and the split store's OnOverflow callback —
// is left exactly as New installed it.
func (e *Engine) Restore(dec *checkpoint.Decoder) error {
	if e.pending != 0 || e.mshrWait.Len() != 0 {
		return fmt.Errorf("secmem: restore into a busy engine: %w", checkpoint.ErrNotQuiescent)
	}
	var mem dense.Sectors
	nm := dec.U64()
	for i := uint64(0); i < nm && dec.Err() == nil; i++ {
		a := geom.Addr(dec.U64())
		ct := dec.Bytes()
		if len(ct) != geom.SectorSize && dec.Err() == nil {
			return fmt.Errorf("secmem: sector %#x has %d bytes, want %d: %w",
				uint64(a), len(ct), geom.SectorSize, checkpoint.ErrCorrupt)
		}
		if dec.Err() == nil {
			copy(mem.Put(uint64(a)/geom.SectorSize), ct)
		}
	}
	var macs dense.U64
	var macsSet dense.Bitmap
	nmac := dec.U64()
	for i := uint64(0); i < nmac && dec.Err() == nil; i++ {
		k := dec.U64()
		macsSet.Set(k)
		macs.Set(k, dec.U64())
	}
	macStale := restoreBitmap(dec)
	taintData := restoreBitmap(dec)
	taintMeta := restoreBitmap(dec)
	ctrReplayed := restoreBitmap(dec)
	cctrReplayed := restoreBitmap(dec)
	bmtTampered := restoreAddrBoolMap(dec)
	regionWritten := restoreBitmap(dec)
	if err := dec.Err(); err != nil {
		return fmt.Errorf("secmem: %w", err)
	}
	e.mem = mem
	e.macsSet = macsSet
	e.macs = macs
	e.macStale = macStale
	e.taintData = taintData
	e.taintMeta = taintMeta
	e.ctr.replayed = ctrReplayed
	e.cctr.replayed = cctrReplayed
	e.bmtTampered = bmtTampered
	e.regionWritten = regionWritten
	for _, p := range present(e.shares, e.derived, e.split, e.ctr.tree, e.ctr.cache, e.macCache, e.ctr.treeCache,
		e.compact, e.cctr.tree, e.cctr.cache, e.cctr.treeCache, e.vcache) {
		if err := p.Restore(dec); err != nil {
			return err
		}
	}
	return nil
}

// snapshotBitmap encodes a dense index set in the same wire layout the
// old bool-valued maps used (count, then ascending key/true pairs), so a
// restored engine re-encodes to the very same bytes.
func snapshotBitmap(enc *checkpoint.Encoder, b *dense.Bitmap) {
	enc.U64(uint64(b.Count()))
	b.ForEach(func(k uint64) {
		enc.U64(k)
		enc.Bool(true)
	})
}

func restoreBitmap(dec *checkpoint.Decoder) dense.Bitmap {
	var b dense.Bitmap
	n := dec.U64()
	for i := uint64(0); i < n && dec.Err() == nil; i++ {
		k := dec.U64()
		if dec.Bool() {
			b.Set(k)
		}
	}
	return b
}

// snapshotAddrBoolMap encodes an address-keyed taint map with full
// fidelity in sorted key order.
func snapshotAddrBoolMap(enc *checkpoint.Encoder, m map[geom.Addr]bool) {
	enc.U64(uint64(len(m)))
	for _, k := range checkpoint.SortedKeys(m) {
		enc.U64(uint64(k))
		enc.Bool(m[k])
	}
}

func restoreAddrBoolMap(dec *checkpoint.Decoder) map[geom.Addr]bool {
	n := dec.U64()
	m := make(map[geom.Addr]bool, n)
	for i := uint64(0); i < n && dec.Err() == nil; i++ {
		k := geom.Addr(dec.U64())
		m[k] = dec.Bool()
	}
	return m
}
