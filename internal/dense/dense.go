// Package dense provides lazily-paged dense stores indexed by small
// integer keys (sector, group, unit indices). The simulator's hot paths
// previously kept this state in Go maps, whose hashing and pointer-ful
// buckets dominated both CPU (map probes on every access) and GC cost
// (scan work proportional to resident state). These stores replace them
// with flat pages allocated on first touch (and, for 32 B records, a
// slab grown one chunk at a time): O(1) array indexing, noscan payloads,
// and a deterministic ascending-index walk for snapshot encoding.
//
// All stores share the map semantics the callers relied on: a key that
// was never written reads as the zero value, and explicit presence (where
// it matters — materialized DRAM sectors, counter groups) is tracked by
// an accompanying bitmap rather than by map membership.
package dense

import (
	"math/bits"

	"github.com/plutus-gpu/plutus/internal/checkpoint"
)

// pageBits sizes one page at 4096 entries: large enough that page-table
// indirection is negligible. A touched page costs its whole size however
// few of its entries are set: 512 B for a Bitmap, 16 KiB for a U32 or a
// Sectors index, 32 KiB for a U64. Sectors keeps its 32 B records out of
// the pages, in a slab: a record page of 4096 would cost 128 KiB, and
// the simulator's memory images fill a tenth to a third of the pages
// they touch.
const pageBits = 12
const pageSize = 1 << pageBits
const pageMask = pageSize - 1

// Bitmap is a lazily-paged bitset over uint64 indices with a maintained
// population count. It replaces map[uint64]bool sets whose entries are
// only ever true (Set/Clear/Get; a cleared bit is indistinguishable from
// a never-set one, exactly like map delete).
type Bitmap struct {
	pages [][]uint64
	count int
}

const bitmapPageWords = pageSize / 64

// newPage allocates one page of n entries. Pages are the stores' only
// allocation — footprint, once per pageSize entries — so keeping it out
// of line lets callers that inline Set and Put stay allocation-free in
// the compiler's escape analysis.
//
//go:noinline
func newPage[T any](n int) []T { return make([]T, n) }

// Get reports whether bit i is set.
//
//simlint:hotpath
func (b *Bitmap) Get(i uint64) bool {
	p := i >> pageBits
	if p >= uint64(len(b.pages)) || b.pages[p] == nil {
		return false
	}
	o := i & pageMask
	return b.pages[p][o>>6]&(1<<(o&63)) != 0
}

func (b *Bitmap) page(p uint64) []uint64 {
	for uint64(len(b.pages)) <= p {
		b.pages = append(b.pages, nil)
	}
	if b.pages[p] == nil {
		b.pages[p] = newPage[uint64](bitmapPageWords)
	}
	return b.pages[p]
}

// Set sets bit i.
//
//simlint:hotpath
func (b *Bitmap) Set(i uint64) {
	pg := b.page(i >> pageBits)
	o := i & pageMask
	m := uint64(1) << (o & 63)
	if pg[o>>6]&m == 0 {
		pg[o>>6] |= m
		b.count++
	}
}

// Clear clears bit i.
//
//simlint:hotpath
func (b *Bitmap) Clear(i uint64) {
	p := i >> pageBits
	if p >= uint64(len(b.pages)) || b.pages[p] == nil {
		return
	}
	o := i & pageMask
	m := uint64(1) << (o & 63)
	if b.pages[p][o>>6]&m != 0 {
		b.pages[p][o>>6] &^= m
		b.count--
	}
}

// Count returns the number of set bits.
//
//simlint:hotpath
func (b *Bitmap) Count() int { return b.count }

// ForEach calls fn for every set bit in ascending index order.
func (b *Bitmap) ForEach(fn func(i uint64)) {
	for p, pg := range b.pages {
		if pg == nil {
			continue
		}
		base := uint64(p) << pageBits
		for w, word := range pg {
			for word != 0 {
				t := bits.TrailingZeros64(word)
				fn(base + uint64(w<<6+t))
				word &^= 1 << t
			}
		}
	}
}

// Reset clears the bitmap, keeping allocated pages for reuse.
func (b *Bitmap) Reset() {
	for _, pg := range b.pages {
		for w := range pg {
			pg[w] = 0
		}
	}
	b.count = 0
}

// U64 is a lazily-paged array of uint64 values; unwritten entries read
// zero. It replaces map[uint64]uint64 whose readers use the zero default.
type U64 struct {
	pages [][]uint64
}

// Get returns the value at index i (zero if never set).
//
//simlint:hotpath
func (v *U64) Get(i uint64) uint64 {
	p := i >> pageBits
	if p >= uint64(len(v.pages)) || v.pages[p] == nil {
		return 0
	}
	return v.pages[p][i&pageMask]
}

// Set stores x at index i.
//
//simlint:hotpath
func (v *U64) Set(i uint64, x uint64) {
	p := i >> pageBits
	for uint64(len(v.pages)) <= p {
		v.pages = append(v.pages, nil)
	}
	if v.pages[p] == nil {
		v.pages[p] = newPage[uint64](pageSize)
	}
	v.pages[p][i&pageMask] = x
}

// U32 is U64 for uint32 values (minor and compact counters).
type U32 struct {
	pages [][]uint32
}

// Get returns the value at index i (zero if never set).
//
//simlint:hotpath
func (v *U32) Get(i uint64) uint32 {
	p := i >> pageBits
	if p >= uint64(len(v.pages)) || v.pages[p] == nil {
		return 0
	}
	return v.pages[p][i&pageMask]
}

// Set stores x at index i.
//
//simlint:hotpath
func (v *U32) Set(i uint64, x uint32) {
	p := i >> pageBits
	for uint64(len(v.pages)) <= p {
		v.pages = append(v.pages, nil)
	}
	if v.pages[p] == nil {
		v.pages[p] = newPage[uint32](pageSize)
	}
	v.pages[p][i&pageMask] = x
}

// SectorBytes is the fixed record size of a Sectors store entry (one
// 32 B DRAM sector).
const SectorBytes = 32

// chunkBits sizes one slab chunk of a Sectors store at 512 records
// (16 KiB).
const chunkBits = 9
const chunkRecords = 1 << chunkBits
const chunkMask = chunkRecords - 1

// Sectors is a store of 32-byte records with explicit presence,
// replacing map[addr][]byte DRAM images. The records sit in a slab of
// fixed-size chunks in first-Put order, reached through a paged int32
// slot index (a record's number plus one; zero is absent) and a present
// bitmap for the ascending walk. An image therefore costs its records
// plus 4 B per slot of every touched index page, not a whole record page
// per touched page. The slab is flat bytes (noscan: the GC never walks
// it), and Lookup returns a slice aliasing it so callers mutate records
// in place without copying. A store holds fewer than 2^31 records.
type Sectors struct {
	index   [][]int32
	chunks  [][]byte
	n       int32 // records in the slab
	present Bitmap
}

// record returns record r of the slab.
//
//simlint:hotpath
func (s *Sectors) record(r int32) []byte {
	c := s.chunks[r>>chunkBits]
	o := int(r&chunkMask) * SectorBytes
	return c[o : o+SectorBytes : o+SectorBytes]
}

// Lookup returns the record at index i and whether it is present. The
// returned slice aliases store memory; it is valid until the store is
// restored over.
//
//simlint:hotpath
func (s *Sectors) Lookup(i uint64) ([]byte, bool) {
	p := i >> pageBits
	if p >= uint64(len(s.index)) || s.index[p] == nil {
		return nil, false
	}
	r := s.index[p][i&pageMask]
	if r == 0 {
		return nil, false
	}
	return s.record(r - 1), true
}

// Put marks record i present and returns its 32-byte slice for the
// caller to fill (zeroed if never previously written).
//
//simlint:hotpath
func (s *Sectors) Put(i uint64) []byte {
	p := i >> pageBits
	for uint64(len(s.index)) <= p {
		s.index = append(s.index, nil)
	}
	if s.index[p] == nil {
		s.index[p] = newPage[int32](pageSize)
	}
	slot := &s.index[p][i&pageMask]
	if *slot == 0 {
		if s.n&chunkMask == 0 {
			s.chunks = append(s.chunks, newPage[byte](chunkRecords*SectorBytes))
		}
		s.n++
		*slot = s.n
		s.present.Set(i)
	}
	return s.record(*slot - 1)
}

// Count returns the number of present records.
//
//simlint:hotpath
func (s *Sectors) Count() int { return int(s.n) }

// ForEach calls fn for every present record in ascending index order.
// The slice passed to fn aliases store memory.
func (s *Sectors) ForEach(fn func(i uint64, rec []byte)) {
	s.present.ForEach(func(i uint64) {
		fn(i, s.record(s.index[i>>pageBits][i&pageMask]-1))
	})
}

// Walk walks the set as a count, then each member's index in ascending
// order, each followed by whatever member walks for it. Decoding
// rebuilds the set, and fails with ErrCorrupt on an index at or past
// limit or on a count the bytes left cannot hold at 8+elem bytes a
// member.
func (b *Bitmap) Walk(c *checkpoint.Codec, limit uint64, elem int, member func(i uint64)) {
	n := b.Count()
	c.Len(&n, limit, 8+elem)
	if !c.Decoding() {
		b.ForEach(func(i uint64) {
			c.Index(&i, limit)
			member(i)
		})
		return
	}
	*b = Bitmap{}
	for ; n > 0 && c.Err() == nil; n-- {
		var i uint64
		c.Index(&i, limit)
		if c.Err() != nil {
			return
		}
		b.Set(i)
		member(i)
	}
}

// WalkSet walks the set in the layout of the bool maps it replaced: a
// count, then (index, true) pairs.
func (b *Bitmap) WalkSet(c *checkpoint.Codec, limit uint64) {
	b.Walk(c, limit, 1, func(i uint64) {
		in := true
		c.Bool(&in)
		if !in {
			b.Clear(i)
		}
	})
}

// Walk walks the store as a count, then (byte address, 32 B record)
// pairs in ascending order: the layout of the address-keyed maps it
// replaced. Decoding rebuilds the store, its slab in the order the
// records arrive, and fails with ErrCorrupt on a record index at or past
// limit.
func (s *Sectors) Walk(c *checkpoint.Codec, limit uint64) {
	n := s.Count()
	c.Len(&n, limit, 8+4+SectorBytes)
	if !c.Decoding() {
		s.ForEach(func(i uint64, rec []byte) {
			a := i * SectorBytes
			c.U64(&a)
			c.Bytes(rec)
		})
		return
	}
	*s = Sectors{}
	for ; n > 0 && c.Err() == nil; n-- {
		var a uint64
		var rec [SectorBytes]byte
		c.Index(&a, limit*SectorBytes)
		c.Bytes(rec[:])
		if c.Err() == nil {
			copy(s.Put(a/SectorBytes), rec[:])
		}
	}
}
