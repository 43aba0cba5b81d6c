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
// The cache is a pure state model: it holds tags and per-sector bits (and
// optionally data via the caller), while all timing is imposed by the
// component driving it. Misses allocate MSHRs with request merging;
// allocation is on fill, as in the paper's Table II.
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
}

// MSHR tracks an outstanding miss to one block, merging later requests.
type MSHR struct {
	Addr    geom.Addr       // block-aligned
	Pending geom.SectorMask // sectors requested from memory so far
	arrived geom.SectorMask // sectors whose fill data has landed
	waiters []func()
}

// AddWaiter registers fn to run when the fill completes.
func (m *MSHR) AddWaiter(fn func()) { m.waiters = append(m.waiters, fn) }

// Cache is one cache instance. Create with New.
type Cache struct {
	cfg  Config
	sets [][]line
	//simlint:ignore snapsym derived from cfg.Sets at construction
	setMask geom.Addr
	//simlint:ignore snapsym derived from cfg.BlockBytes at construction
	sectors  int // sectors per block
	lruClock uint64
	mshrs    map[geom.Addr]*MSHR
	//simlint:ignore snapsym derived from cfg.MSHRs at construction
	mshrLimit int
	Stats     stats.CacheStats
}

// New builds a cache from cfg.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nSets := cfg.SizeBytes / (cfg.BlockSize * cfg.Ways)
	sets := make([][]line, nSets)
	for i := range sets {
		sets[i] = make([]line, cfg.Ways)
	}
	return &Cache{
		cfg:       cfg,
		sets:      sets,
		setMask:   geom.Addr(nSets - 1),
		sectors:   cfg.BlockSize / geom.SectorSize,
		mshrs:     make(map[geom.Addr]*MSHR),
		mshrLimit: cfg.MSHRs,
	}, nil
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

func (c *Cache) setOf(block geom.Addr) []line {
	idx := (block / geom.Addr(c.cfg.BlockSize)) & c.setMask
	return c.sets[idx]
}

func (c *Cache) find(block geom.Addr) *line {
	set := c.setOf(block)
	for i := range set {
		if set[i].valid != 0 && set[i].tag == block {
			return &set[i]
		}
	}
	return nil
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
// registered). On MissMerged the returned MSHR is the existing one to
// attach a waiter to. onDone (nullable) is registered on the MSHR.
func (c *Cache) Lookup(addr geom.Addr, mask geom.SectorMask, write bool, onDone func()) (Outcome, geom.SectorMask, *MSHR) {
	block := c.blockAddr(addr)
	ln := c.find(block)
	if ln != nil && ln.valid&mask == mask {
		c.lruClock++
		ln.lru = c.lruClock
		if write {
			ln.dirty |= mask
		}
		c.Stats.Hits++
		return Hit, 0, nil
	}
	var present geom.SectorMask
	if ln != nil {
		present = ln.valid
		c.lruClock++
		ln.lru = c.lruClock
	}
	need := mask &^ present

	if m, ok := c.mshrs[block]; ok {
		still := need &^ m.Pending
		if still == 0 {
			if onDone != nil {
				m.AddWaiter(onDone)
			}
			c.Stats.MSHRMerges++
			return MissMerged, 0, m
		}
		// Partially covered: extend the MSHR with the extra sectors; the
		// caller issues a memory request for just those.
		m.Pending |= still
		if onDone != nil {
			m.AddWaiter(onDone)
		}
		c.Stats.Misses++
		return Miss, still, m
	}
	if len(c.mshrs) >= c.mshrLimit {
		return MissNoMSHR, need, nil
	}
	m := &MSHR{Addr: block, Pending: need}
	if onDone != nil {
		m.AddWaiter(onDone)
	}
	c.mshrs[block] = m
	c.Stats.Misses++
	return Miss, need, m
}

// Fill installs all of the MSHR's pending sectors at once
// (allocate-on-fill), returning any eviction needed to make room plus the
// waiters to resume. markDirty makes the filled sectors dirty immediately
// (fill-from-write). Use FillSectors when fill data arrives piecemeal.
func (c *Cache) Fill(m *MSHR, markDirty bool) ([]Eviction, []func()) {
	evs, _, w := c.FillSectors(m, m.Pending, markDirty)
	return evs, w
}

// FillSectors records the arrival of some of an MSHR's sectors. The
// sectors are installed immediately; the MSHR completes — is deallocated
// and its waiters returned — only once every pending sector has arrived,
// so a fill for an MSHR that was extended after this memory request was
// issued cannot prematurely retire the extension. Extra arrivals after
// completion are no-ops.
func (c *Cache) FillSectors(m *MSHR, mask geom.SectorMask, markDirty bool) (evs []Eviction, done bool, waiters []func()) {
	if cur, live := c.mshrs[m.Addr]; !live || cur != m {
		// Stale completion: the MSHR already finished.
		return nil, false, nil
	}
	m.arrived |= mask & m.Pending
	evs = c.install(m.Addr, mask&m.Pending, markDirty)
	if m.arrived != m.Pending {
		return evs, false, nil
	}
	delete(c.mshrs, m.Addr)
	waiters = m.waiters
	m.waiters = nil
	return evs, true, waiters
}

// install merges sectors into an existing line or allocates a victim.
func (c *Cache) install(block geom.Addr, mask geom.SectorMask, dirty bool) []Eviction {
	c.lruClock++
	if ln := c.find(block); ln != nil {
		ln.valid |= mask
		if dirty {
			ln.dirty |= mask
		}
		ln.lru = c.lruClock
		return nil
	}
	set := c.setOf(block)
	victim := &set[0]
	for i := range set {
		if set[i].valid == 0 {
			victim = &set[i]
			break
		}
		if set[i].lru < victim.lru {
			victim = &set[i]
		}
	}
	var evs []Eviction
	if victim.valid != 0 {
		c.Stats.Evictions++
		if victim.dirty != 0 {
			c.Stats.DirtyEvictions++
		}
		evs = append(evs, Eviction{Addr: victim.tag, Dirty: victim.dirty})
	}
	victim.tag = block
	victim.valid = mask
	victim.dirty = 0
	if dirty {
		victim.dirty = mask
	}
	victim.lru = c.lruClock
	return evs
}

// Insert places sectors directly (no MSHR), used for write-allocate paths
// in the metadata engines where the "fill" data is produced on-chip.
func (c *Cache) Insert(addr geom.Addr, mask geom.SectorMask, dirty bool) []Eviction {
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
func (c *Cache) InflightMisses() int { return len(c.mshrs) }

// FreeMSHRs returns the number of unallocated MSHR entries.
func (c *Cache) FreeMSHRs() int { return c.mshrLimit - len(c.mshrs) }

// WalkDirty visits every dirty (block, mask) pair; used to flush at
// simulation end so writeback traffic is fully accounted.
func (c *Cache) WalkDirty(fn func(block geom.Addr, dirty geom.SectorMask)) {
	for _, set := range c.sets {
		for i := range set {
			if set[i].valid != 0 && set[i].dirty != 0 {
				fn(set[i].tag, set[i].dirty)
			}
		}
	}
}
