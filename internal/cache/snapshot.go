package cache

import (
	"fmt"

	"github.com/plutus-gpu/plutus/internal/checkpoint"
)

// Codec walks the cache's dynamic state — every line's tag,
// sector-valid/dirty masks and LRU stamp, the LRU clock, and the stats
// counters — in fixed set/way order, behind a set/way cross-check.
// Configuration is not walked; the restoring side rebuilds the cache from
// the same Config. The cache must be quiescent: outstanding MSHRs hold
// closures that cannot be serialized, so a walk with in-flight misses
// fails with ErrNotQuiescent.
func (c *Cache) Codec(cc *checkpoint.Codec) {
	if len(c.mshrs) != 0 {
		cc.Fail(fmt.Errorf("cache %q: %d in-flight MSHRs: %w",
			c.cfg.Name, len(c.mshrs), checkpoint.ErrNotQuiescent))
	}
	cc.Want32("cache "+c.cfg.Name+" sets", uint32(len(c.sets)))
	cc.Want32("cache "+c.cfg.Name+" ways", uint32(c.cfg.Ways))
	cc.U64(&c.lruClock)
	for _, set := range c.sets {
		for i := range set {
			checkpoint.Uint64(cc, &set[i].tag)
			checkpoint.Uint8(cc, &set[i].valid)
			checkpoint.Uint8(cc, &set[i].dirty)
			cc.U64(&set[i].lru)
		}
	}
	c.Stats.Codec(cc)
}
