package dram

import "github.com/plutus-gpu/plutus/internal/checkpoint"

// Codec walks the channel's dynamic state: per-bank timing and open rows
// (in bank-index order, behind a bank-count cross-check), the shared bus
// horizon, and the row-locality counters. Traffic is not walked here —
// the *stats.Traffic the channel accounts into belongs to the
// partition's stats block, which is walked by its owner; restoring must
// keep the existing pointer.
func (c *Channel) Codec(cc *checkpoint.Codec) {
	cc.Want32("dram banks", uint32(len(c.banks)))
	for i := range c.banks {
		checkpoint.Uint64(cc, &c.banks[i].freeAt)
		cc.U64(&c.banks[i].openRow)
		cc.Bool(&c.banks[i].hasRow)
	}
	cc.U64(&c.busFreeQ)
	cc.U64(&c.RowHits)
	cc.U64(&c.RowMisses)
}
