package valcache

import (
	"sort"

	"github.com/plutus-gpu/plutus/internal/checkpoint"
)

// Codec walks the cache's entries and statistics. Pinned entries carry
// no ordering (they are never evicted), so they are walked in ascending
// key order; transient entries are walked in exact LRU order,
// least-recent first, so decoding rebuilds the intrusive list
// identically — future evictions then pick the same victims. Decoding
// replaces every entry and fails with ErrCorrupt on more entries than
// there are slots for, or on a repeated key.
func (c *Cache) Codec(cc *checkpoint.Codec) {
	var pinned, lru []int32 // slots in wire order, when encoding
	if cc.Decoding() {
		c.index = make(map[uint32]int32, c.cfg.Entries)
		c.resetSlots()
		c.lruHead, c.lruTail = nilSlot, nilSlot
	} else {
		for _, i := range c.index {
			if c.slots[i].pinned {
				pinned = append(pinned, i)
			}
		}
		// Collect-then-sort: map iteration order above cannot leak.
		sort.Slice(pinned, func(a, b int) bool { return c.slots[pinned[a]].key < c.slots[pinned[b]].key })
		for i := c.lruTail; i != nilSlot; i = c.slots[i].prev {
			lru = append(lru, i)
		}
	}
	c.pinned = c.walkEntries(cc, pinned, c.pinCap, true)
	c.transient = c.walkEntries(cc, lru, c.cfg.Entries-c.pinned, false)
	cc.U64(&c.Probes)
	cc.U64(&c.Hits)
	cc.U64(&c.PinnedHits)
	cc.U64(&c.Inserts)
	cc.U64(&c.Promotions)
	cc.U64(&c.Evictions)
}

// walkEntries walks a count, then each slot's (key, use count) and
// returns the count. Decoding allocates a slot per entry; a transient
// one is pushed at the LRU head, so the list ends most-recent first.
func (c *Cache) walkEntries(cc *checkpoint.Codec, slots []int32, max int, pinned bool) int {
	n := len(slots)
	cc.Len32(&n, uint64(max), 5)
	for j := 0; j < n && cc.Err() == nil; j++ {
		var e entry
		if !cc.Decoding() {
			e = c.slots[slots[j]]
		}
		cc.U32(&e.key)
		cc.U8(&e.use)
		if !cc.Decoding() || cc.Err() != nil {
			continue
		}
		if _, dup := c.index[e.key]; dup {
			cc.Corrupt("valcache: key %#x appears twice", e.key)
			break
		}
		if i := c.alloc(e.key, e.use, pinned); !pinned {
			c.listPushFront(i)
		}
	}
	return n
}
