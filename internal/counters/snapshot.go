package counters

import "github.com/plutus-gpu/plutus/internal/checkpoint"

// Codec walks the split store's materialized groups in ascending
// group-index order: index, major counter, then every minor in slot
// order, behind a group-width cross-check. sectors is the owner's
// data-sector count, which bounds the group indices a walk decodes.
// Geometry is not walked (the restoring side rebuilds from the same
// SplitConfig). The OnOverflow hook is runtime wiring, not state, and is
// never touched.
func (s *SplitStore) Codec(c *checkpoint.Codec, sectors uint64) {
	g := uint64(s.cfg.GroupSize)
	c.Want32("counters group size", uint32(g))
	s.present.Walk(c, (sectors+g-1)/g, 8+4*int(g), func(gi uint64) {
		major := s.majors.Get(gi)
		c.U64(&major)
		s.majors.Set(gi, major)
		for i := gi * g; i < (gi+1)*g; i++ {
			minor := s.minors.Get(i)
			c.U32(&minor)
			s.minors.Set(i, minor)
		}
	})
}

// Codec walks the compact view's sticky adaptive state: disabled blocks,
// then the saturated sectors grouped by block, both in ascending index
// order, behind a compact-kind cross-check. sectors is the owner's
// data-sector count, which bounds the block and sector indices a walk
// decodes. Counter values themselves are derived from the split store
// and are not duplicated here.
func (v *CompactView) Codec(c *checkpoint.Codec, sectors uint64) {
	c.Want8("compact kind", uint8(v.kind))
	per := uint64(4 * v.kind.CountersPerSector()) // sectors per block
	blocks := (sectors + per - 1) / per
	v.disabled.WalkSet(c, blocks)
	// The wire groups saturated sectors by block: (block, count, sector
	// indices) for each block with a nonzero tally.
	n := v.satBlocks
	c.Len(&n, blocks, 16)
	if !c.Decoding() {
		// Walking the bitmap visits sectors in ascending order, so blocks
		// come out ascending with their sectors grouped.
		cur := ^uint64(0)
		v.satSector.ForEach(func(i uint64) {
			if b := v.BlockOf(i); b != cur {
				cur = b
				cnt := int(v.satCount.Get(b))
				c.U64(&b)
				c.Len(&cnt, per, 8)
			}
			c.U64(&i)
		})
		return
	}
	for ; n > 0 && c.Err() == nil; n-- {
		var b uint64
		var cnt int
		c.Index(&b, blocks)
		c.Len(&cnt, per, 8)
		if cnt > 0 {
			v.satBlocks++
		}
		v.satCount.Set(b, uint32(cnt))
		for ; cnt > 0 && c.Err() == nil; cnt-- {
			var i uint64
			c.Index(&i, sectors)
			v.satSector.Set(i)
		}
	}
}
