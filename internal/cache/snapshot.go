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
	if n := c.InflightMisses(); n != 0 {
		cc.Fail(fmt.Errorf("cache %q: %d in-flight MSHRs: %w",
			c.cfg.Name, n, checkpoint.ErrNotQuiescent))
	}
	cc.Want32("cache "+c.cfg.Name+" sets", uint32(len(c.lines)/c.cfg.Ways))
	cc.Want32("cache "+c.cfg.Name+" ways", uint32(c.cfg.Ways))
	cc.U64(&c.lruClock)
	for i := range c.lines {
		ln := &c.lines[i]
		checkpoint.Uint64(cc, &ln.tag)
		checkpoint.Uint8(cc, &ln.valid)
		checkpoint.Uint8(cc, &ln.dirty)
		cc.U64(&ln.lru)
	}
	c.Stats.Codec(cc)
}
