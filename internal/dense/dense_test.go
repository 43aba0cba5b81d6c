package dense

import (
	"errors"
	"runtime"
	"sort"
	"testing"

	"github.com/plutus-gpu/plutus/internal/checkpoint"
)

// xorshift is the package-test PRNG (math/rand is banned in
// determinism-scoped packages by simlint's detrand analyzer).
type xorshift uint64

func (x *xorshift) next() uint64 {
	v := *x
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = v
	return uint64(v)
}

// TestBitmapBasics: Set/Get/Clear/Count against a reference map, with
// indices spanning many pages, and ForEach visiting exactly the set
// indices in ascending order.
func TestBitmapBasics(t *testing.T) {
	var b Bitmap
	ref := map[uint64]bool{}
	rng := xorshift(42)
	for n := 0; n < 20000; n++ {
		i := rng.next() % (64 * pageSize)
		if rng.next()%3 == 0 {
			b.Clear(i)
			delete(ref, i)
		} else {
			b.Set(i)
			ref[i] = true
		}
	}
	if b.Count() != len(ref) {
		t.Fatalf("Count() = %d, want %d", b.Count(), len(ref))
	}
	for i := range ref {
		if !b.Get(i) {
			t.Fatalf("Get(%d) = false, want true", i)
		}
	}
	var got []uint64
	b.ForEach(func(i uint64) { got = append(got, i) })
	if len(got) != len(ref) {
		t.Fatalf("ForEach visited %d indices, want %d", len(got), len(ref))
	}
	if !sort.SliceIsSorted(got, func(a, b int) bool { return got[a] < got[b] }) {
		t.Fatal("ForEach order is not ascending")
	}
	for _, i := range got {
		if !ref[i] {
			t.Fatalf("ForEach visited unset index %d", i)
		}
	}
	b.Reset()
	if b.Count() != 0 || b.Get(got[0]) {
		t.Fatal("Reset did not clear the bitmap")
	}
}

// TestBitmapClearUntouched: clearing an index whose page was never
// allocated must not allocate the page or disturb the count.
func TestBitmapClearUntouched(t *testing.T) {
	var b Bitmap
	b.Clear(10 * pageSize)
	if b.Count() != 0 {
		t.Fatalf("Count() = %d after clearing an untouched index", b.Count())
	}
	if b.Get(10 * pageSize) {
		t.Fatal("Get reports an index that was only ever cleared")
	}
}

// TestU64U32ZeroDefault: reads from untouched indices return zero;
// writes round-trip across page boundaries, including overwrites and
// explicit zero stores.
func TestU64U32ZeroDefault(t *testing.T) {
	var v64 U64
	var v32 U32
	if v64.Get(3*pageSize+7) != 0 || v32.Get(5*pageSize+1) != 0 {
		t.Fatal("untouched index is nonzero")
	}
	ref64 := map[uint64]uint64{}
	ref32 := map[uint64]uint32{}
	rng := xorshift(7)
	for n := 0; n < 20000; n++ {
		i := rng.next() % (32 * pageSize)
		x := rng.next()
		if n%17 == 0 {
			x = 0 // explicit zero store must also round-trip
		}
		v64.Set(i, x)
		ref64[i] = x
		v32.Set(i, uint32(x))
		ref32[i] = uint32(x)
	}
	for i, want := range ref64 {
		if got := v64.Get(i); got != want {
			t.Fatalf("U64.Get(%d) = %d, want %d", i, got, want)
		}
	}
	for i, want := range ref32 {
		if got := v32.Get(i); got != want {
			t.Fatalf("U32.Get(%d) = %d, want %d", i, got, want)
		}
	}
}

// TestSectors: Put/Lookup/Count against a reference map, re-Puts
// overwriting in place, a first Put handing out a zeroed record, and
// ForEach walking present records ascending with the stored contents.
func TestSectors(t *testing.T) {
	var s Sectors
	ref := map[uint64][SectorBytes]byte{}
	rng := xorshift(0xdeadbeef)
	for n := 0; n < 8000; n++ {
		i := rng.next() % (16 * pageSize)
		var rec [SectorBytes]byte
		for j := range rec {
			rec[j] = byte(rng.next())
		}
		copy(s.Put(i), rec[:])
		ref[i] = rec
	}
	if s.Count() != len(ref) {
		t.Fatalf("Count() = %d, want %d", s.Count(), len(ref))
	}
	for i, want := range ref {
		got, ok := s.Lookup(i)
		if !ok {
			t.Fatalf("Lookup(%d) missing", i)
		}
		if string(got) != string(want[:]) {
			t.Fatalf("Lookup(%d) = %x, want %x", i, got, want)
		}
	}
	var visited []uint64
	s.ForEach(func(i uint64, rec []byte) {
		visited = append(visited, i)
		want := ref[i]
		if string(rec) != string(want[:]) {
			t.Fatalf("ForEach(%d) = %x, want %x", i, rec, want)
		}
	})
	if len(visited) != len(ref) {
		t.Fatalf("ForEach visited %d records, want %d", len(visited), len(ref))
	}
	if !sort.SliceIsSorted(visited, func(a, b int) bool { return visited[a] < visited[b] }) {
		t.Fatal("Sectors.ForEach order is not ascending")
	}

	// A first Put hands out a zeroed record, even on a page that holds
	// others.
	i := visited[0] + 1
	for _, ok := ref[i]; ok; _, ok = ref[i] {
		i++
	}
	if _, ok := s.Lookup(i); ok {
		t.Fatalf("Lookup(%d) present before Put", i)
	}
	for j, b := range s.Put(i) {
		if b != 0 {
			t.Fatalf("first Put(%d): byte %d = %#x, want 0", i, j, b)
		}
	}
}

// TestSparseSectorsCostTheirRecords: a store holding one record in
// every ten slots allocates its records, its index pages and its
// bitmap, not a 128 KiB record page for each 4096 slots it touches.
func TestSparseSectorsCostTheirRecords(t *testing.T) {
	const slots = 256 * pageSize
	var s Sectors
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	for i := uint64(0); i < slots; i += 10 {
		s.Put(i)[0] = byte(i)
	}
	runtime.ReadMemStats(&ms)
	got := ms.TotalAlloc - before
	records := uint64(s.Count()) * SectorBytes
	index := uint64(slots/pageSize) * (pageSize*4 + pageSize/8)
	if want := (records + index) * 11 / 10; got > want {
		t.Fatalf("%d records over %d slots allocated %d B, want at most %d (records %d, index and bitmap %d)",
			s.Count(), slots, got, want, records, index)
	}
	for i := uint64(0); i < slots; i++ {
		rec, ok := s.Lookup(i)
		if ok != (i%10 == 0) || ok && rec[0] != byte(i) {
			t.Fatalf("Lookup(%d) = %x, %v", i, rec, ok)
		}
	}
}

// walkAll walks a bitmap, a payload-carrying bitmap and a sector store
// under one limit.
func walkAll(b, m *Bitmap, vals *U64, s *Sectors, limit uint64) func(*checkpoint.Codec) {
	return func(c *checkpoint.Codec) {
		b.WalkSet(c, limit)
		m.Walk(c, limit, 8, func(i uint64) {
			v := vals.Get(i)
			c.U64(&v)
			vals.Set(i, v)
		})
		s.Walk(c, limit)
	}
}

// TestWalkRoundTrip: walked out and back into fresh stores, every store
// re-encodes to the same bytes.
func TestWalkRoundTrip(t *testing.T) {
	var b, m Bitmap
	var vals U64
	var s Sectors
	for i := uint64(0); i < 20000; i += 7 {
		b.Set(i)
		m.Set(i * 3)
		vals.Set(i*3, i)
		copy(s.Put(i*5), []byte{byte(i), byte(i >> 8)})
	}
	want, err := checkpoint.Marshal(walkAll(&b, &m, &vals, &s, 1<<20))
	if err != nil {
		t.Fatal(err)
	}
	var b2, m2 Bitmap
	var vals2 U64
	var s2 Sectors
	if err := checkpoint.Unmarshal(want, walkAll(&b2, &m2, &vals2, &s2, 1<<20)); err != nil {
		t.Fatal(err)
	}
	got, err := checkpoint.Marshal(walkAll(&b2, &m2, &vals2, &s2, 1<<20))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("re-encoded stores differ: %d vs %d bytes", len(got), len(want))
	}
}

// TestWalkRejectsHostileInput: an index at the limit, a count past the
// limit, and a count the bytes left cannot hold all fail with
// ErrCorrupt before a page is allocated for them.
func TestWalkRejectsHostileInput(t *testing.T) {
	const limit = 1 << 20
	cases := map[string]func(e *checkpoint.Encoder){
		"bitmap index": func(e *checkpoint.Encoder) { e.U64(1); e.U64(limit); e.Bool(true) },
		"bitmap count": func(e *checkpoint.Encoder) { e.U64(limit + 1) },
		"short count":  func(e *checkpoint.Encoder) { e.U64(1000); e.U64(0); e.Bool(true) },
		"sector index": func(e *checkpoint.Encoder) {
			e.U64(0)
			e.U64(0)
			e.U64(1)
			e.U64(1 << 62)
			e.Bytes(make([]byte, SectorBytes))
		},
		"sector size": func(e *checkpoint.Encoder) {
			e.U64(0)
			e.U64(0)
			e.U64(1)
			e.U64(0)
			e.Bytes(make([]byte, SectorBytes+1))
		},
	}
	for name, enc := range cases {
		e := checkpoint.NewEncoder()
		enc(e)
		var b, m Bitmap
		var vals U64
		var s Sectors
		if err := checkpoint.Unmarshal(e.Data(), walkAll(&b, &m, &vals, &s, limit)); !errors.Is(err, checkpoint.ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
		if len(b.pages) > 0 || len(s.index) > 0 || len(s.chunks) > 0 {
			t.Errorf("%s: pages allocated from a rejected input", name)
		}
	}
}
