// Package valcache implements Plutus's value cache and the value-based
// integrity-verification rule built on it (paper §IV-C).
//
// The cache bookkeeps the M-bit (32-bit) values most recently seen moving
// through a memory partition. Because AES-XTS diffuses any ciphertext
// tampering across the whole 16 B cipher block, a tampered sector decrypts
// to effectively uniform values, and the probability that enough of them
// hit this small cache is bounded by the binomial expression of the
// paper's Eq. 1 — below the forgery probability of a conventional MAC. A
// sector whose decrypted values hit sufficiently can therefore be accepted
// as authentic without fetching its MAC.
//
// Entries are 28-bit keys (the 4 least-significant bits of each 32-bit
// value are masked to also capture nearby values) with a 4-bit use
// counter. A quarter of the cache is reserved for pinned values: entries
// promoted on frequent use that are never evicted, which is what lets the
// write path *guarantee* that a dirty sector will still verify at its next
// read (all its values pinned ⇒ they cannot have been replaced meanwhile).
package valcache

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Config describes one partition's value cache.
type Config struct {
	// Entries is the total capacity (paper: 256 per partition = 1 kB).
	Entries int
	// PinnedFrac is the fraction of entries reserved for pinned values
	// (paper: 0.25).
	PinnedFrac float64
	// MaskBits is how many low bits of each 32-bit value are ignored in
	// matching (paper: 4).
	MaskBits int
	// PinThreshold is the use-counter value at which a transient entry is
	// promoted to pinned. Counters are 4 bits, so it must be ≤ 15.
	PinThreshold int
	// MatchThreshold is the minimum number of the four 32-bit values per
	// 128-bit cipher block that must hit for the block to be considered
	// verified (paper: 3, from Eq. 1 with a 256-entry cache).
	MatchThreshold int
}

// DefaultConfig returns the paper's configuration.
func DefaultConfig() Config {
	return Config{Entries: 256, PinnedFrac: 0.25, MaskBits: 4, PinThreshold: 8, MatchThreshold: 3}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Entries < 4:
		return fmt.Errorf("valcache: %d entries is too small", c.Entries)
	case c.PinnedFrac < 0 || c.PinnedFrac > 0.9:
		return fmt.Errorf("valcache: pinned fraction %v out of range", c.PinnedFrac)
	case c.MaskBits < 0 || c.MaskBits > 16:
		return fmt.Errorf("valcache: mask bits %d out of range", c.MaskBits)
	case c.PinThreshold < 1 || c.PinThreshold > 15:
		return fmt.Errorf("valcache: pin threshold %d out of range (4-bit counter)", c.PinThreshold)
	case c.MatchThreshold < 1 || c.MatchThreshold > ValuesPerUnit:
		return fmt.Errorf("valcache: match threshold %d out of range", c.MatchThreshold)
	}
	return nil
}

const (
	// ValueBits is M, the matched value size (32-bit values).
	ValueBits = 32
	// UnitBytes is the value-verification granularity: one 16 B AES-XTS
	// cipher block (tampering diffuses exactly this far).
	UnitBytes = 16
	// ValuesPerUnit is the number of 32-bit values per cipher block.
	ValuesPerUnit = UnitBytes / 4
	// useMax is the saturating 4-bit use counter maximum.
	useMax = 15
)

// nilSlot terminates the intrusive transient LRU list.
const nilSlot = int32(-1)

type entry struct {
	key        uint32
	use        uint8
	pinned     bool
	prev, next int32 // transient LRU list links (unused once pinned)
}

// Cache is one partition's value cache. Entries live in a flat slot
// array sized at capacity, linked by slot index, with a pointer-free
// key→slot map on top: the steady state (probe, evict, insert) touches
// no heap allocation at all, which matters because every 32-bit value of
// every verified or observed sector passes through here.
type Cache struct {
	cfg   Config
	slots []entry
	//simlint:ignore snapsym free-slot stack is derived; resetSlots refills it before a decoding walk replays entries
	free      []int32 // free slot stack
	index     map[uint32]int32
	pinned    int
	pinCap    int
	lruHead   int32 // most recent
	lruTail   int32 // least recent
	transient int

	// Statistics for the Fig. 9 / Fig. 21 studies.
	Probes, Hits, PinnedHits, Inserts, Promotions, Evictions uint64
}

// New builds a value cache.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Cache{
		cfg:     cfg,
		index:   make(map[uint32]int32, cfg.Entries),
		pinCap:  int(float64(cfg.Entries) * cfg.PinnedFrac),
		lruHead: nilSlot,
		lruTail: nilSlot,
	}
	c.resetSlots()
	return c, nil
}

// resetSlots (re)builds the empty slot array and free stack, pushed in
// reverse so slot 0 is handed out first.
func (c *Cache) resetSlots() {
	c.slots = make([]entry, c.cfg.Entries)
	c.free = c.free[:0]
	for i := c.cfg.Entries - 1; i >= 0; i-- {
		c.free = append(c.free, int32(i))
	}
}

// alloc takes a free slot for key k with use count u.
//
//simlint:hotpath
func (c *Cache) alloc(k uint32, u uint8, pinned bool) int32 {
	i := c.free[len(c.free)-1]
	c.free = c.free[:len(c.free)-1]
	c.slots[i] = entry{key: k, use: u, pinned: pinned, prev: nilSlot, next: nilSlot}
	c.index[k] = i
	return i
}

// MustNew is New for static configuration.
func MustNew(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Len returns the number of cached values.
func (c *Cache) Len() int { return len(c.index) }

// PinnedLen returns the number of pinned values.
func (c *Cache) PinnedLen() int { return c.pinned }

// Key reduces a 32-bit value to its match key (upper 32−MaskBits bits).
//
//simlint:hotpath
func (c *Cache) Key(v uint32) uint32 { return v >> uint(c.cfg.MaskBits) }

// --- transient LRU list management ---

//simlint:hotpath
func (c *Cache) listRemove(i int32) {
	e := &c.slots[i]
	if e.prev != nilSlot {
		c.slots[e.prev].next = e.next
	} else {
		c.lruHead = e.next
	}
	if e.next != nilSlot {
		c.slots[e.next].prev = e.prev
	} else {
		c.lruTail = e.prev
	}
	e.prev, e.next = nilSlot, nilSlot
}

//simlint:hotpath
func (c *Cache) listPushFront(i int32) {
	e := &c.slots[i]
	e.prev, e.next = nilSlot, c.lruHead
	if c.lruHead != nilSlot {
		c.slots[c.lruHead].prev = i
	}
	c.lruHead = i
	if c.lruTail == nilSlot {
		c.lruTail = i
	}
}

// touch registers a use of slot i: LRU bump, counter bump, maybe promotion.
//
//simlint:hotpath
func (c *Cache) touch(i int32) {
	e := &c.slots[i]
	if e.use < useMax {
		e.use++
	}
	if e.pinned {
		return
	}
	if int(e.use) >= c.cfg.PinThreshold && c.pinned < c.pinCap {
		e.pinned = true
		c.pinned++
		c.transient--
		c.listRemove(i)
		c.Promotions++
		return
	}
	c.listRemove(i)
	c.listPushFront(i)
}

// Probe looks a value up, counting the use on hit. It reports the hit and
// whether the hit entry is pinned.
//
//simlint:hotpath
func (c *Cache) Probe(v uint32) (hit, pinned bool) {
	c.Probes++
	i, ok := c.index[c.Key(v)]
	if !ok {
		return false, false
	}
	if c.slots[i].pinned {
		c.PinnedHits++
	}
	c.Hits++
	c.touch(i)
	return true, c.slots[i].pinned
}

// Contains reports presence without any side effects (for tests/analysis).
func (c *Cache) Contains(v uint32) bool {
	_, ok := c.index[c.Key(v)]
	return ok
}

// Insert records a value seen on the partition's datapath. Existing
// entries are touched; new entries go to the transient region, evicting
// the LRU transient entry when full.
//
//simlint:hotpath
func (c *Cache) Insert(v uint32) {
	k := c.Key(v)
	if i, ok := c.index[k]; ok {
		c.touch(i)
		return
	}
	c.Inserts++
	transCap := c.cfg.Entries - c.pinned
	if c.transient >= transCap {
		victim := c.lruTail
		if victim == nilSlot {
			// Pinned region consumed everything (PinnedFrac near 1);
			// drop the insert rather than evict a pinned value.
			return
		}
		c.listRemove(victim)
		delete(c.index, c.slots[victim].key)
		c.free = append(c.free, victim)
		c.transient--
		c.Evictions++
	}
	c.listPushFront(c.alloc(k, 1, false))
	c.transient++
}

// Values splits a data buffer into its 32-bit little-endian values.
func Values(data []byte) []uint32 {
	out := make([]uint32, len(data)/4)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(data[i*4:])
	}
	return out
}

// VerifyResult reports the outcome of value-based verification of a data
// unit (a 32 B sector: two 16 B cipher blocks).
type VerifyResult struct {
	// Verified is true when every cipher block met the match threshold.
	Verified bool
	// AllPinned is true when every *hit* backing the verification is a
	// pinned entry (the write-path guarantee condition).
	AllPinned bool
	// Hits is the total number of value-cache hits across the unit.
	Hits int
}

// VerifySector probes the cache for each 32-bit value of a decrypted
// sector and applies the paper's rule: every 128-bit cipher block needs at
// least MatchThreshold of its four values to hit. Probing counts as use
// (reads both verify against and refresh the recently-seen set).
//
//simlint:hotpath
func (c *Cache) VerifySector(data []byte) VerifyResult {
	res := VerifyResult{Verified: true, AllPinned: true}
	if len(data)%UnitBytes != 0 || len(data) == 0 {
		return VerifyResult{}
	}
	for off := 0; off < len(data); off += UnitBytes {
		hits := 0
		for k := 0; k < ValuesPerUnit; k++ {
			v := binary.LittleEndian.Uint32(data[off+k*4:])
			hit, pinned := c.Probe(v)
			if hit {
				hits++
				res.Hits++
				if !pinned {
					res.AllPinned = false
				}
			}
		}
		if hits < c.cfg.MatchThreshold {
			res.Verified = false
			res.AllPinned = false
		}
	}
	return res
}

// ObserveSector inserts every 32-bit value of a sector into the cache
// (done for all traffic, reads after verification and writes on arrival).
func (c *Cache) ObserveSector(data []byte) {
	for off := 0; off+4 <= len(data); off += 4 {
		c.Insert(binary.LittleEndian.Uint32(data[off:]))
	}
}

// WriteGuaranteed reports whether a dirty sector is guaranteed to pass
// value verification at its next read: every cipher block meets the match
// threshold using pinned entries only (paper §IV-C, write flow). Pinned
// entries are never evicted, so the guarantee holds for the lifetime of
// the run.
func (c *Cache) WriteGuaranteed(data []byte) bool {
	if len(data)%UnitBytes != 0 || len(data) == 0 {
		return false
	}
	for off := 0; off < len(data); off += UnitBytes {
		pinnedHits := 0
		for k := 0; k < ValuesPerUnit; k++ {
			v := binary.LittleEndian.Uint32(data[off+k*4:])
			if i, ok := c.index[c.Key(v)]; ok && c.slots[i].pinned {
				pinnedHits++
			}
		}
		if pinnedHits < c.cfg.MatchThreshold {
			return false
		}
	}
	return true
}

// --- Eq. 1: the forgery-probability bound ---

// binomialTerm returns C(n,x) p^x (1-p)^(n-x), the paper's P_x.
func binomialTerm(n, x int, p float64) float64 {
	// C(n,x) for the tiny n used here (≤ 8).
	c := 1.0
	for i := 0; i < x; i++ {
		c = c * float64(n-i) / float64(i+1)
	}
	return c * math.Pow(p, float64(x)) * math.Pow(1-p, float64(n-x))
}

// ForgeryProbability returns the probability that a *tampered* (uniformly
// re-randomized) cipher block of n values passes verification with
// threshold x, given per-value hit probability p = K/2^(ValueBits−mask):
// the upper tail P(X ≥ x) of the binomial.
func ForgeryProbability(n, x int, p float64) float64 {
	var s float64
	for k := x; k <= n; k++ {
		s += binomialTerm(n, k, p)
	}
	return s
}

// HitProbability returns p for a cache of k entries with maskBits masked:
// the chance a uniform value matches some cached key.
func HitProbability(k, maskBits int) float64 {
	return float64(k) / math.Pow(2, float64(ValueBits-maskBits))
}

// MinHitsRequired solves Eq. 1: the smallest threshold x such that a
// tampered cipher block's pass probability is below bound (the paper uses
// Gueron's 1/256 per-verification forgery bound).
func MinHitsRequired(n int, p, bound float64) int {
	for x := 1; x <= n; x++ {
		if ForgeryProbability(n, x, p) < bound {
			return x
		}
	}
	return n + 1 // unachievable
}
