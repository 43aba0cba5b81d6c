// Package cache implements the set-associative, sectored, write-back
// cache model used for both the L2 data cache and the per-partition
// security-metadata caches (counter, MAC, BMT, compact-counter caches).
//
// Sectoring follows the Volta organization the paper assumes: a cache
// block reserves a full BlockSize of tag+storage, but individual
// SectorSize sectors are valid/dirty independently, and only requested
// sectors are fetched from memory (PSSM relies on this for metadata).
// Blocks whose BlockSize equals SectorSize degenerate to a conventional
// non-sectored cache, which is how the fine-granularity 32 B metadata
// designs are modelled.
//
// The cache is a pure state model: it holds tags and per-sector bits,
// while all timing is imposed by the component driving it. A caller that
// keeps block data does so by line: every tagged block occupies one of
// the cache's numbered lines until it is evicted (Line, Eviction.Line).
// Misses allocate MSHRs with request merging; allocation is on fill, as
// in the paper's Table II.
package cache

import (
	"fmt"

	"github.com/plutus-gpu/plutus/internal/geom"
	"github.com/plutus-gpu/plutus/internal/stats"
)

// Config describes one cache instance.
type Config struct {
	Name      string
	SizeBytes int
	BlockSize int // bytes per tagged block (128 or 32)
	Ways      int
	MSHRs     int
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.SizeBytes <= 0 || c.BlockSize <= 0 || c.Ways <= 0 || c.MSHRs <= 0:
		return fmt.Errorf("cache %q: all sizes must be positive: %+v", c.Name, c)
	case c.BlockSize%geom.SectorSize != 0:
		return fmt.Errorf("cache %q: block size %d is not a multiple of the %d B sector", c.Name, c.BlockSize, geom.SectorSize)
	case c.SizeBytes%(c.BlockSize*c.Ways) != 0:
		return fmt.Errorf("cache %q: size %d not divisible by block*ways", c.Name, c.SizeBytes)
	}
	sets := c.SizeBytes / (c.BlockSize * c.Ways)
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache %q: set count %d is not a power of two", c.Name, sets)
	}
	return nil
}

type line struct {
	tag   geom.Addr // block-aligned address
	valid geom.SectorMask
	dirty geom.SectorMask
	lru   uint64
}

// Eviction describes a victim block leaving the cache.
type Eviction struct {
	Addr  geom.Addr // block-aligned address of the victim
	Dirty geom.SectorMask
	// Line is the victim's line, which the incoming block now holds.
	Line int
}

// MSHR names one allocation of an MSHR slot: the slot and the
// generation it was allocated in. A fill naming an allocation that has
// since retired is a no-op, even after its slot is reused for the same
// block. The zero value names no allocation.
type MSHR struct {
	slot int32
	gen  uint32
}

// mshr is one slab entry: an outstanding miss to one block, merging
// later requests, with its waiters as an intrusive list of wait nodes.
type mshr struct {
	addr       geom.Addr       // block-aligned
	gen        uint32          // bumped at every allocation, so never 0 when live
	head, tail int32           // first and last wait node; 0 when none
	pending    geom.SectorMask // sectors requested from memory so far
	arrived    geom.SectorMask // sectors whose fill data has landed
	live       bool
}

// waitNode is one registered waiter. Node 0 is the list terminator.
type waitNode struct {
	fn   func()
	next int32
}

// Waiters is the waiter list a completing fill detached from its MSHR;
// Wake runs it. A detached list shares no node with any live MSHR, so a
// waiter that re-enters Lookup and takes the freed slot cannot disturb
// the waiters still to run.
type Waiters struct{ head int32 }

// Cache is one cache instance. Create with New.
type Cache struct {
	cfg Config
	// lines holds set s at lines[s*Ways : (s+1)*Ways]; a line's number
	// is its index here.
	lines []line
	//simlint:ignore snapsym derived from cfg.Sets at construction
	setMask geom.Addr
	//simlint:ignore snapsym derived from cfg.BlockBytes at construction
	sectors  int // sectors per block
	lruClock uint64
	// The MSHR slab: cfg.MSHRs entries, the free slots as a stack, and
	// the block → live slot index. Empty at a checkpoint (Codec).
	//simlint:ignore snapsym request scratch, all free when a drained cache is walked
	mshrs []mshr
	//simlint:ignore snapsym request scratch, all free when a drained cache is walked
	freeSlots []int32
	//simlint:ignore snapsym request scratch, empty when a drained cache is walked
	index map[geom.Addr]int32
	// nodes holds every wait node; freeNode heads the free ones.
	//simlint:ignore snapsym request scratch, all free when a drained cache is walked
	nodes []waitNode
	//simlint:ignore snapsym request scratch, all free when a drained cache is walked
	freeNode int32
	Stats    stats.CacheStats
}

// New builds a cache from cfg.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nSets := cfg.SizeBytes / (cfg.BlockSize * cfg.Ways)
	c := &Cache{
		cfg:       cfg,
		lines:     make([]line, nSets*cfg.Ways),
		setMask:   geom.Addr(nSets - 1),
		sectors:   cfg.BlockSize / geom.SectorSize,
		mshrs:     make([]mshr, cfg.MSHRs),
		freeSlots: make([]int32, cfg.MSHRs),
		index:     make(map[geom.Addr]int32),
		nodes:     make([]waitNode, 1),
	}
	for i := range c.freeSlots {
		// Stacked so the first allocation takes slot 0.
		c.freeSlots[i] = int32(cfg.MSHRs - 1 - i)
	}
	return c, nil
}

// MustNew is New for static configuration; it panics on error.
func MustNew(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// SectorsPerBlock returns how many sectors one tagged block holds.
func (c *Cache) SectorsPerBlock() int { return c.sectors }

// blockAddr aligns a to this cache's block size.
func (c *Cache) blockAddr(a geom.Addr) geom.Addr {
	return a &^ geom.Addr(c.cfg.BlockSize-1)
}

// sectorIn returns the index of a's sector within its block here.
func (c *Cache) sectorIn(a geom.Addr) int {
	return int(a%geom.Addr(c.cfg.BlockSize)) / geom.SectorSize
}

// MaskFor returns the mask selecting only a's sector, in this cache's
// block geometry.
func (c *Cache) MaskFor(a geom.Addr) geom.SectorMask {
	return 1 << c.sectorIn(a)
}

// AllMask selects every sector of a block in this cache's geometry.
func (c *Cache) AllMask() geom.SectorMask { return 1<<c.sectors - 1 }

// setBase returns the number of block's set's first line.
func (c *Cache) setBase(block geom.Addr) int {
	return int((block/geom.Addr(c.cfg.BlockSize))&c.setMask) * c.cfg.Ways
}

// lineOf returns the number of the line holding block, or -1.
func (c *Cache) lineOf(block geom.Addr) int {
	base := c.setBase(block)
	set := c.lines[base : base+c.cfg.Ways]
	for i := range set {
		if set[i].valid != 0 && set[i].tag == block {
			return base + i
		}
	}
	return -1
}

func (c *Cache) find(block geom.Addr) *line {
	if i := c.lineOf(block); i >= 0 {
		return &c.lines[i]
	}
	return nil
}

// Line returns the line holding addr's block, and whether the block is
// resident. Lines are numbered set × Ways + way, below SizeBytes /
// BlockSize; a resident block keeps its line across hits and fills until
// it is evicted or invalidated.
//
//simlint:hotpath
func (c *Cache) Line(addr geom.Addr) (int, bool) {
	i := c.lineOf(c.blockAddr(addr))
	return i, i >= 0
}

// Outcome classifies a lookup.
type Outcome int

const (
	// Hit: every requested sector is present.
	Hit Outcome = iota
	// Miss: at least one requested sector absent; a new memory request is
	// needed for the missing sectors.
	Miss
	// MissMerged: absent sectors are already covered by an in-flight MSHR;
	// no new memory request is needed.
	MissMerged
	// MissNoMSHR: miss, but no MSHR could be allocated; the requester must
	// retry later (models MSHR-full stalls).
	MissNoMSHR
)

// String names the outcome for diagnostics.
func (o Outcome) String() string {
	switch o {
	case Hit:
		return "hit"
	case Miss:
		return "miss"
	case MissMerged:
		return "miss-merged"
	case MissNoMSHR:
		return "miss-no-mshr"
	default:
		return fmt.Sprintf("outcome(%d)", int(o))
	}
}

// Lookup checks for addr's sectors given by mask (in this cache's
// geometry) and updates LRU and statistics. On Miss it returns the mask of
// sectors that must be fetched and the MSHR tracking them (already
// registered). On MissMerged the returned MSHR is the existing one.
// onDone (nullable) is registered as a waiter on Miss and MissMerged.
//
//simlint:hotpath
func (c *Cache) Lookup(addr geom.Addr, mask geom.SectorMask, write bool, onDone func()) (Outcome, geom.SectorMask, MSHR) {
	block := c.blockAddr(addr)
	ln := c.find(block)
	if ln != nil && ln.valid&mask == mask {
		c.lruClock++
		ln.lru = c.lruClock
		if write {
			ln.dirty |= mask
		}
		c.Stats.Hits++
		return Hit, 0, MSHR{}
	}
	var present geom.SectorMask
	if ln != nil {
		present = ln.valid
		c.lruClock++
		ln.lru = c.lruClock
	}
	need := mask &^ present

	if slot, ok := c.index[block]; ok {
		m := &c.mshrs[slot]
		c.addWaiter(m, onDone)
		still := need &^ m.pending
		if still == 0 {
			c.Stats.MSHRMerges++
			return MissMerged, 0, MSHR{slot, m.gen}
		}
		// Partially covered: extend the MSHR with the extra sectors; the
		// caller issues a memory request for just those.
		m.pending |= still
		c.Stats.Misses++
		return Miss, still, MSHR{slot, m.gen}
	}
	n := len(c.freeSlots) - 1
	if n < 0 {
		return MissNoMSHR, need, MSHR{}
	}
	slot := c.freeSlots[n]
	c.freeSlots = c.freeSlots[:n]
	m := &c.mshrs[slot]
	if m.gen++; m.gen == 0 { // zero names no allocation
		m.gen = 1
	}
	m.addr, m.pending, m.arrived, m.live = block, need, 0, true
	c.index[block] = slot
	c.addWaiter(m, onDone)
	c.Stats.Misses++
	return Miss, need, MSHR{slot, m.gen}
}

// addWaiter appends fn (if non-nil) to m's waiter list.
//
//simlint:hotpath
func (c *Cache) addWaiter(m *mshr, fn func()) {
	if fn == nil {
		return
	}
	i := c.freeNode
	if i == 0 {
		i = c.newNode()
	}
	n := &c.nodes[i]
	c.freeNode = n.next
	n.fn, n.next = fn, 0
	if m.head == 0 {
		m.head = i
	} else {
		c.nodes[m.tail].next = i
	}
	m.tail = i
}

// newNode grows the node store by one free node and returns its index;
// the store grows only until it holds the most waiters ever registered
// at once.
//
//go:noinline
func (c *Cache) newNode() int32 {
	c.nodes = append(c.nodes, waitNode{})
	return int32(len(c.nodes) - 1)
}

// Fill installs all of the MSHR's pending sectors at once
// (allocate-on-fill), returning the eviction needed to make room, if
// any, plus the waiters to resume. markDirty makes the filled sectors
// dirty immediately (fill-from-write). Use FillSectors when fill data
// arrives piecemeal.
//
//simlint:hotpath
func (c *Cache) Fill(m MSHR, markDirty bool) (Eviction, bool, Waiters) {
	if !c.live(m) {
		return Eviction{}, false, Waiters{}
	}
	ev, evicted, ws, _ := c.FillSectors(m, c.mshrs[m.slot].pending, markDirty)
	return ev, evicted, ws
}

// live reports whether m names a slot's current allocation.
func (c *Cache) live(m MSHR) bool {
	s := &c.mshrs[m.slot]
	return s.live && s.gen == m.gen
}

// FillSectors records the arrival of some of an MSHR's sectors. The
// sectors are installed immediately; the MSHR completes — its slot is
// freed and its waiters detached into ws — only once every pending
// sector has arrived, so a fill for an MSHR that was extended after this
// memory request was issued cannot prematurely retire the extension.
// A fill naming a retired allocation is a no-op.
//
//simlint:hotpath
func (c *Cache) FillSectors(m MSHR, mask geom.SectorMask, markDirty bool) (ev Eviction, evicted bool, ws Waiters, done bool) {
	if !c.live(m) {
		return Eviction{}, false, Waiters{}, false
	}
	s := &c.mshrs[m.slot]
	s.arrived |= mask & s.pending
	ev, evicted = c.install(s.addr, mask&s.pending, markDirty)
	if s.arrived != s.pending {
		return ev, evicted, Waiters{}, false
	}
	delete(c.index, s.addr)
	s.live = false
	ws = Waiters{s.head}
	s.head, s.tail = 0, 0
	c.freeSlots = append(c.freeSlots, m.slot)
	return ev, evicted, ws, true
}

// Wake runs a detached waiter list in registration order. Each node is
// freed before its waiter runs, so a waiter may register new waiters —
// on any MSHR, including one in the slot the list came from.
//
//simlint:hotpath
func (c *Cache) Wake(ws Waiters) {
	for i := ws.head; i != 0; {
		n := &c.nodes[i]
		fn, next := n.fn, n.next
		n.fn, n.next = nil, c.freeNode
		c.freeNode = i
		fn()
		i = next
	}
}

// install merges sectors into an existing line or allocates a victim,
// returning the victim block if one was evicted.
//
//simlint:hotpath
func (c *Cache) install(block geom.Addr, mask geom.SectorMask, dirty bool) (Eviction, bool) {
	c.lruClock++
	if ln := c.find(block); ln != nil {
		ln.valid |= mask
		if dirty {
			ln.dirty |= mask
		}
		ln.lru = c.lruClock
		return Eviction{}, false
	}
	base := c.setBase(block)
	set := c.lines[base : base+c.cfg.Ways]
	v := 0
	for i := range set {
		if set[i].valid == 0 {
			v = i
			break
		}
		if set[i].lru < set[v].lru {
			v = i
		}
	}
	victim := &set[v]
	var ev Eviction
	evicted := victim.valid != 0
	if evicted {
		c.Stats.Evictions++
		if victim.dirty != 0 {
			c.Stats.DirtyEvictions++
		}
		ev = Eviction{Addr: victim.tag, Dirty: victim.dirty, Line: base + v}
	}
	victim.tag = block
	victim.valid = mask
	victim.dirty = 0
	if dirty {
		victim.dirty = mask
	}
	victim.lru = c.lruClock
	return ev, evicted
}

// Insert places sectors directly (no MSHR), used for write-allocate paths
// in the metadata engines where the "fill" data is produced on-chip.
//
//simlint:hotpath
func (c *Cache) Insert(addr geom.Addr, mask geom.SectorMask, dirty bool) (Eviction, bool) {
	return c.install(c.blockAddr(addr), mask, dirty)
}

// Probe reports which of addr's sectors are present, without side effects.
func (c *Cache) Probe(addr geom.Addr) geom.SectorMask {
	if ln := c.find(c.blockAddr(addr)); ln != nil {
		return ln.valid
	}
	return 0
}

// DirtyMask reports which of addr's sectors are dirty.
func (c *Cache) DirtyMask(addr geom.Addr) geom.SectorMask {
	if ln := c.find(c.blockAddr(addr)); ln != nil {
		return ln.dirty
	}
	return 0
}

// MarkDirty marks present sectors of addr dirty, reporting success.
func (c *Cache) MarkDirty(addr geom.Addr, mask geom.SectorMask) bool {
	ln := c.find(c.blockAddr(addr))
	if ln == nil || ln.valid&mask != mask {
		return false
	}
	ln.dirty |= mask
	return true
}

// CleanSectors clears dirty bits (after a writeback completes).
func (c *Cache) CleanSectors(addr geom.Addr, mask geom.SectorMask) {
	if ln := c.find(c.blockAddr(addr)); ln != nil {
		ln.dirty &^= mask
	}
}

// Invalidate removes addr's block entirely, returning its dirty sectors.
func (c *Cache) Invalidate(addr geom.Addr) geom.SectorMask {
	block := c.blockAddr(addr)
	if ln := c.find(block); ln != nil {
		d := ln.dirty
		ln.valid, ln.dirty, ln.tag = 0, 0, 0
		return d
	}
	return 0
}

// InflightMisses returns the number of allocated MSHRs.
func (c *Cache) InflightMisses() int { return len(c.mshrs) - len(c.freeSlots) }

// FreeMSHRs returns the number of unallocated MSHR entries.
func (c *Cache) FreeMSHRs() int { return len(c.freeSlots) }

// WalkDirty visits every dirty (block, mask) pair; used to flush at
// simulation end so writeback traffic is fully accounted.
func (c *Cache) WalkDirty(fn func(block geom.Addr, dirty geom.SectorMask)) {
	for i := range c.lines {
		if ln := &c.lines[i]; ln.valid != 0 && ln.dirty != 0 {
			fn(ln.tag, ln.dirty)
		}
	}
}

// WalkLines visits every valid line in line order with its block and
// its valid and dirty sectors.
func (c *Cache) WalkLines(fn func(line int, block geom.Addr, valid, dirty geom.SectorMask)) {
	for i := range c.lines {
		if ln := &c.lines[i]; ln.valid != 0 {
			fn(i, ln.tag, ln.valid, ln.dirty)
		}
	}
}
