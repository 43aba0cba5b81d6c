package cache

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"github.com/plutus-gpu/plutus/internal/geom"
)

func small(t *testing.T) *Cache {
	t.Helper()
	c, err := New(Config{Name: "t", SizeBytes: 2048, BlockSize: 128, Ways: 4, MSHRs: 4})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestValidate(t *testing.T) {
	bad := []Config{
		{Name: "zero"},
		{Name: "sector", SizeBytes: 1024, BlockSize: 48, Ways: 2, MSHRs: 1},
		{Name: "div", SizeBytes: 1000, BlockSize: 128, Ways: 4, MSHRs: 1},
		{Name: "pow2", SizeBytes: 128 * 4 * 3, BlockSize: 128, Ways: 4, MSHRs: 1},
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %q validated, want error", cfg.Name)
		}
	}
	good := Config{Name: "ok", SizeBytes: 2048, BlockSize: 32, Ways: 4, MSHRs: 8}
	if err := good.Validate(); err != nil {
		t.Errorf("good config rejected: %v", err)
	}
}

func TestMissFillHit(t *testing.T) {
	c := small(t)
	mask := c.MaskFor(0x1000)
	out, need, m := c.Lookup(0x1000, mask, false, nil)
	if out != Miss || need != mask || m == (MSHR{}) {
		t.Fatalf("first lookup: %v need=%04b", out, need)
	}
	if ev, evicted, _ := c.Fill(m, false); evicted {
		t.Fatalf("fill into empty cache evicted %v", ev)
	}
	out, _, _ = c.Lookup(0x1000, mask, false, nil)
	if out != Hit {
		t.Fatalf("lookup after fill: %v, want hit", out)
	}
	if c.Stats.Hits != 1 || c.Stats.Misses != 1 {
		t.Errorf("stats = %+v", c.Stats)
	}
}

func TestSectoredPartialPresence(t *testing.T) {
	c := small(t)
	// Fetch sector 0 only.
	_, _, m := c.Lookup(0x2000, 0b0001, false, nil)
	c.Fill(m, false)
	// Sector 1 of the same block should miss with need = sector 1 only.
	out, need, m2 := c.Lookup(0x2020, 0b0010, false, nil)
	if out != Miss || need != 0b0010 {
		t.Fatalf("partial lookup: %v need=%04b, want miss 0b0010", out, need)
	}
	c.Fill(m2, false)
	if got := c.Probe(0x2000); got != 0b0011 {
		t.Fatalf("Probe = %04b, want 0b0011", got)
	}
}

func TestMSHRMerging(t *testing.T) {
	c := small(t)
	done := 0
	_, _, m := c.Lookup(0x3000, 0b0001, false, func() { done++ })
	out, _, m2 := c.Lookup(0x3000, 0b0001, false, func() { done++ })
	if out != MissMerged || m2 != m {
		t.Fatalf("second lookup: %v, want merged into same MSHR", out)
	}
	// A different sector of the same block extends the MSHR.
	out, need, m3 := c.Lookup(0x3020, 0b0010, false, func() { done++ })
	if out != Miss || need != 0b0010 || m3 != m {
		t.Fatalf("extend lookup: %v need=%04b", out, need)
	}
	_, _, ws := c.Fill(m, false)
	c.Wake(ws)
	if done != 3 {
		t.Fatalf("waiters run = %d, want 3", done)
	}
	if c.Stats.MSHRMerges != 1 {
		t.Errorf("MSHRMerges = %d, want 1", c.Stats.MSHRMerges)
	}
}

func TestMSHRExhaustion(t *testing.T) {
	c := small(t)
	for i := 0; i < 4; i++ {
		out, _, _ := c.Lookup(geom.Addr(0x4000+i*128), 0b0001, false, nil)
		if out != Miss {
			t.Fatalf("lookup %d: %v", i, out)
		}
	}
	out, _, m := c.Lookup(0x9000, 0b0001, false, nil)
	if out != MissNoMSHR || m != (MSHR{}) {
		t.Fatalf("5th miss: %v, want MissNoMSHR", out)
	}
}

func TestEvictionLRUAndDirty(t *testing.T) {
	c := small(t)
	// 4 sets; blocks mapping to set 0 are 0, 4*128, 8*128, ...
	addrs := []geom.Addr{0, 512, 1024, 1536, 2048}
	for _, a := range addrs[:4] {
		_, _, m := c.Lookup(a, 0b1111, true, nil)
		c.Fill(m, true) // dirty fill
	}
	// Touch addr 0 so it is MRU; victim should be 512.
	c.Lookup(0, 0b0001, false, nil)
	_, _, m := c.Lookup(addrs[4], 0b0001, false, nil)
	ev, evicted, _ := c.Fill(m, false)
	if !evicted || ev.Addr != 512 {
		t.Fatalf("eviction = %+v (evicted %v), want victim 512", ev, evicted)
	}
	if ev.Dirty != 0b1111 {
		t.Fatalf("victim dirty = %04b, want all", ev.Dirty)
	}
	if c.Stats.DirtyEvictions != 1 {
		t.Errorf("DirtyEvictions = %d", c.Stats.DirtyEvictions)
	}
}

func TestWriteMarksDirty(t *testing.T) {
	c := small(t)
	_, _, m := c.Lookup(0x5000, 0b0001, false, nil)
	c.Fill(m, false)
	if c.DirtyMask(0x5000) != 0 {
		t.Fatal("clean fill left dirty bits")
	}
	out, _, _ := c.Lookup(0x5000, 0b0001, true, nil)
	if out != Hit || c.DirtyMask(0x5000) != 0b0001 {
		t.Fatalf("write hit: %v dirty=%04b", out, c.DirtyMask(0x5000))
	}
	c.CleanSectors(0x5000, 0b0001)
	if c.DirtyMask(0x5000) != 0 {
		t.Fatal("CleanSectors did not clear dirty bit")
	}
}

func TestInsertAndInvalidate(t *testing.T) {
	c := small(t)
	c.Insert(0x6000, 0b0101, true)
	if c.Probe(0x6000) != 0b0101 || c.DirtyMask(0x6000) != 0b0101 {
		t.Fatalf("Insert state: valid=%04b dirty=%04b", c.Probe(0x6000), c.DirtyMask(0x6000))
	}
	d := c.Invalidate(0x6000)
	if d != 0b0101 || c.Probe(0x6000) != 0 {
		t.Fatalf("Invalidate returned %04b, probe=%04b", d, c.Probe(0x6000))
	}
}

func TestMarkDirtyRequiresPresence(t *testing.T) {
	c := small(t)
	if c.MarkDirty(0x7000, 0b0001) {
		t.Fatal("MarkDirty succeeded on absent block")
	}
	c.Insert(0x7000, 0b0001, false)
	if !c.MarkDirty(0x7000, 0b0001) {
		t.Fatal("MarkDirty failed on present sector")
	}
	if c.MarkDirty(0x7000, 0b0010) {
		t.Fatal("MarkDirty succeeded on absent sector")
	}
}

func Test32ByteBlockGeometry(t *testing.T) {
	c := MustNew(Config{Name: "fine", SizeBytes: 2048, BlockSize: 32, Ways: 4, MSHRs: 8})
	if c.SectorsPerBlock() != 1 || c.AllMask() != 0b0001 {
		t.Fatalf("32B geometry: sectors=%d mask=%04b", c.SectorsPerBlock(), c.AllMask())
	}
	// Adjacent 32 B addresses are distinct blocks.
	_, _, m := c.Lookup(0x100, 0b0001, false, nil)
	c.Fill(m, false)
	out, _, _ := c.Lookup(0x120, 0b0001, false, nil)
	if out != Miss {
		t.Fatalf("adjacent 32B block: %v, want miss", out)
	}
}

func TestWalkDirty(t *testing.T) {
	c := small(t)
	c.Insert(0x100, 0b0011, true)
	c.Insert(0x200, 0b0001, false)
	var blocks []geom.Addr
	c.WalkDirty(func(b geom.Addr, d geom.SectorMask) { blocks = append(blocks, b) })
	if len(blocks) != 1 || blocks[0] != 0x100 {
		t.Fatalf("WalkDirty visited %v", blocks)
	}
}

// An eviction names the victim's line, and the incoming block holds it.
func TestEvictionNamesIncomingLine(t *testing.T) {
	c := small(t)
	// 4 sets of 4 ways; these five blocks all map to set 0.
	addrs := []geom.Addr{0, 512, 1024, 1536, 2048}
	lines := map[int]bool{}
	for _, a := range addrs[:4] {
		_, _, m := c.Lookup(a, 0b0001, false, nil)
		c.Fill(m, false)
		ln, ok := c.Line(a)
		if !ok || ln < 0 || ln >= len(c.lines) || lines[ln] {
			t.Fatalf("block %#x: line %d ok=%v, want a fresh line of %d", a, ln, ok, len(c.lines))
		}
		lines[ln] = true
	}
	victimLine, _ := c.Line(512)
	c.Lookup(0, 0b0001, false, nil) // 512 becomes LRU
	_, _, m := c.Lookup(addrs[4], 0b0010, false, nil)
	ev, evicted, _ := c.Fill(m, false)
	if !evicted || ev.Addr != 512 || ev.Line != victimLine {
		t.Fatalf("eviction = %+v (evicted %v), want block 0x200 from line %d", ev, evicted, victimLine)
	}
	if ln, ok := c.Line(addrs[4] + 32); !ok || ln != ev.Line {
		t.Fatalf("incoming block is on line %d (ok=%v), want the victim's line %d", ln, ok, ev.Line)
	}
	// Insert reports the line the same way.
	ev, evicted = c.Insert(3000*128, 0b0001, true)
	if ln, ok := c.Line(3000 * 128); !evicted || !ok || ln != ev.Line {
		t.Fatalf("Insert eviction %+v (evicted %v), incoming block on line %d (ok=%v)", ev, evicted, ln, ok)
	}
}

// A resident block keeps its line across hits, partial fills, stores
// and other blocks' traffic in its set.
func TestLineStableWhileResident(t *testing.T) {
	c := small(t)
	_, _, m := c.Lookup(0x2000, 0b0001, false, nil)
	c.Fill(m, false)
	ln, ok := c.Line(0x2000)
	if !ok {
		t.Fatal("filled block has no line")
	}
	c.Lookup(0x2000, 0b0001, false, nil) // hit
	_, _, m = c.Lookup(0x2040, 0b0100, false, nil)
	c.FillSectors(m, 0b0100, false) // partial fill of another sector
	c.Insert(0x2060, 0b1000, true)  // store-style insert
	_, _, m = c.Lookup(0x2000+512, 0b0001, false, nil)
	c.Fill(m, false) // another block in the same set
	for _, a := range []geom.Addr{0x2000, 0x2020, 0x2040, 0x2060} {
		if got, ok := c.Line(a); !ok || got != ln {
			t.Fatalf("Line(%#x) = %d (ok=%v), want %d", a, got, ok, ln)
		}
	}
	if c.Probe(0x2000) != 0b1101 {
		t.Fatalf("Probe = %04b, want 1101", c.Probe(0x2000))
	}
}

// A block that is not resident has no line: never installed, still
// waiting on its MSHR, evicted, or invalidated.
func TestAbsentBlockHasNoLine(t *testing.T) {
	c := small(t)
	if _, ok := c.Line(0x1000); ok {
		t.Fatal("never-touched block has a line")
	}
	_, _, m := c.Lookup(0x1000, 0b0001, false, nil)
	if _, ok := c.Line(0x1000); ok {
		t.Fatal("block with only an MSHR has a line")
	}
	c.Fill(m, false)
	c.Invalidate(0x1000)
	if _, ok := c.Line(0x1000); ok {
		t.Fatal("invalidated block has a line")
	}
	for _, a := range []geom.Addr{0, 512, 1024, 1536, 2048} {
		c.Insert(a, 0b0001, false)
	}
	if _, ok := c.Line(0); ok {
		t.Fatal("evicted block has a line")
	}
}

// WalkLines visits exactly the valid lines, each with its own number.
func TestWalkLines(t *testing.T) {
	c := small(t)
	c.Insert(0x100, 0b0011, true)
	c.Insert(0x200, 0b0001, false)
	seen := 0
	c.WalkLines(func(ln int, b geom.Addr, valid, dirty geom.SectorMask) {
		seen++
		if got, ok := c.Line(b); !ok || got != ln || valid != c.Probe(b) || dirty != c.DirtyMask(b) {
			t.Errorf("line %d: block %#x valid %04b dirty %04b; Line=%d ok=%v", ln, b, valid, dirty, got, ok)
		}
	})
	if seen != 2 {
		t.Fatalf("WalkLines visited %d lines, want 2", seen)
	}
}

// Property: after any sequence of lookups+fills, every resident sector was
// previously filled, and dirty implies valid.
func TestDirtyImpliesValidProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		c := MustNew(Config{Name: "q", SizeBytes: 1024, BlockSize: 128, Ways: 2, MSHRs: 2})
		for _, op := range ops {
			addr := geom.Addr(op&0x0fff) * 32
			write := op&0x1000 != 0
			out, _, m := c.Lookup(addr, c.MaskFor(addr), write, nil)
			if out == Miss {
				c.Fill(m, write)
			}
		}
		okAll := true
		for _, ln := range c.lines {
			if ln.dirty&^ln.valid != 0 {
				okAll = false
			}
		}
		return okAll
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// A fill naming a retired MSHR stays a no-op after its slot is reused,
// even for the same block: the generation, not the slot, names it.
func TestStaleFillAfterSlotReuseIsNoOp(t *testing.T) {
	c := MustNew(Config{Name: "one", SizeBytes: 2048, BlockSize: 128, Ways: 4, MSHRs: 1})
	_, _, old := c.Lookup(0x1000, 0b0001, false, nil)
	c.Fill(old, false)
	c.Invalidate(0x1000)
	ran := false
	out, _, cur := c.Lookup(0x1000, 0b0001, false, func() { ran = true })
	if out != Miss || cur.slot != old.slot || cur == old {
		t.Fatalf("re-miss: %v in slot %d (old slot %d), want a new allocation of the same slot", out, cur.slot, old.slot)
	}
	if ev, evicted, ws, done := c.FillSectors(old, 0b0001, true); evicted || done || ws != (Waiters{}) {
		t.Fatalf("stale fill acted: ev=%v evicted=%v done=%v", ev, evicted, done)
	}
	if c.Probe(0x1000) != 0 || c.DirtyMask(0x1000) != 0 || c.InflightMisses() != 1 || ran {
		t.Fatalf("stale fill changed state: probe=%04b dirty=%04b inflight=%d ran=%v",
			c.Probe(0x1000), c.DirtyMask(0x1000), c.InflightMisses(), ran)
	}
	_, _, ws := c.Fill(cur, false)
	c.Wake(ws)
	if !ran || c.Probe(0x1000) != 0b0001 || c.InflightMisses() != 0 {
		t.Fatalf("live fill: ran=%v probe=%04b inflight=%d", ran, c.Probe(0x1000), c.InflightMisses())
	}
}

// A waiter may re-enter Lookup and take the slot its MSHR just freed;
// the waiters still to run must neither be lost nor run twice, and the
// new MSHR's waiters must wait for its own fill.
func TestWaiterReentersFreedSlot(t *testing.T) {
	c := MustNew(Config{Name: "one", SizeBytes: 2048, BlockSize: 128, Ways: 4, MSHRs: 1})
	var log []string
	var next MSHR
	_, _, m := c.Lookup(0x2000, 0b0001, false, func() {
		log = append(log, "a")
		var out Outcome
		out, _, next = c.Lookup(0x3000, 0b0001, false, func() { log = append(log, "x") })
		if out != Miss {
			t.Errorf("re-entrant lookup: %v, want a miss in the freed slot", out)
		}
		c.Lookup(0x3000, 0b0001, false, func() { log = append(log, "y") })
	})
	c.Lookup(0x2000, 0b0001, false, func() { log = append(log, "b") })
	c.Lookup(0x2000, 0b0001, false, func() { log = append(log, "c") })
	_, _, ws := c.Fill(m, false)
	c.Wake(ws)
	if got := strings.Join(log, ""); got != "abc" || next.slot != m.slot {
		t.Fatalf("first wake ran %q (new MSHR in slot %d, old %d), want \"abc\" and the same slot", got, next.slot, m.slot)
	}
	_, _, ws = c.Fill(next, false)
	c.Wake(ws)
	if got := strings.Join(log, ""); got != "abcxy" {
		t.Fatalf("second wake: log %q, want \"abcxy\"", got)
	}
}

// A warmed cache's miss, merge, fill and wake cycle allocates nothing:
// the slab, its index and the wait nodes are all reused.
func TestMSHRCycleSteadyStateAllocs(t *testing.T) {
	c := MustNew(Config{Name: "q", SizeBytes: 1024, BlockSize: 128, Ways: 2, MSHRs: 4})
	woke := 0
	fn := func() { woke++ }
	batch := func() {
		var live [4]MSHR
		for round := 0; round < 64; round++ {
			for k := range live {
				a := geom.Addr(round*4+k) * 128
				_, _, live[k] = c.Lookup(a, 0b0001, false, fn)
				c.Lookup(a, 0b0001, false, fn)
			}
			for _, m := range live {
				ev, evicted, ws := c.Fill(m, false)
				_, _ = ev, evicted
				c.Wake(ws)
			}
		}
	}
	batch()
	if got := testing.AllocsPerRun(10, batch); got != 0 {
		t.Fatalf("warmed MSHR cycle allocates: %.1f allocs per batch", got)
	}
	if woke == 0 || c.InflightMisses() != 0 {
		t.Fatalf("woke %d waiters, %d MSHRs left in flight", woke, c.InflightMisses())
	}
}

func TestOutcomeString(t *testing.T) {
	for o, want := range map[Outcome]string{Hit: "hit", Miss: "miss", MissMerged: "miss-merged", MissNoMSHR: "miss-no-mshr"} {
		if o.String() != want {
			t.Errorf("%d.String() = %q", int(o), o.String())
		}
	}
}
