package bmt

import "github.com/plutus-gpu/plutus/internal/checkpoint"

// Codec walks the tree's materialized hashes — non-default unit hashes,
// per-level non-default node hashes (both in ascending index order), and
// the root — behind a unit-count and height cross-check. Geometry and
// defaults are derived from Config on the restoring side.
func (t *Tree) Codec(c *checkpoint.Codec) {
	c.Want64("bmt units", t.cfg.Units)
	c.Want32("bmt height", uint32(len(t.counts)))
	checkpoint.Map(c, &t.unitHashes, t.cfg.Units, 8, (*checkpoint.Codec).U64)
	for l := range t.nodeHashes {
		checkpoint.Map(c, &t.nodeHashes[l], t.counts[l], 8, (*checkpoint.Codec).U64)
	}
	c.U64(&t.root)
}
