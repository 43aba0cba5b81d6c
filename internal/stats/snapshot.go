package stats

import "github.com/plutus-gpu/plutus/internal/checkpoint"

// Codec walks a Traffic accumulator, classes in declaration order. A
// walk decodes in place, so the receiver pointer is preserved:
// components such as the DRAM channel hold aliases to the partition's
// Traffic, and restoring must never replace the struct.
func (t *Traffic) Codec(c *checkpoint.Codec) {
	for k := Class(0); k < numClasses; k++ {
		c.U64(&t.ReadBytes[k])
		c.U64(&t.WriteBytes[k])
		c.U64(&t.Reads[k])
		c.U64(&t.Writes[k])
	}
}

// Codec walks a CacheStats block.
func (s *CacheStats) Codec(c *checkpoint.Codec) {
	c.U64(&s.Hits)
	c.U64(&s.Misses)
	c.U64(&s.MSHRMerges)
	c.U64(&s.Evictions)
	c.U64(&s.DirtyEvictions)
}

// Codec walks a SecStats block, fields in declaration order.
func (s *SecStats) Codec(c *checkpoint.Codec) {
	c.U64(&s.ValueVerified)
	c.U64(&s.MACVerified)
	c.U64(&s.MACSkippedWrites)
	c.U64(&s.MACWrites)
	c.U64(&s.CompactHits)
	c.U64(&s.CompactOverflow)
	c.U64(&s.CompactDisabled)
	c.U64(&s.BMTNodeVerifies)
	c.U64(&s.TamperDetected)
	c.U64(&s.ReplayDetected)
	c.U64(&s.TamperInjected)
	c.U64(&s.TaintedReads)
	c.U64(&s.DerivedVersions)
	c.U64(&s.DerivedFallbacks)
	c.U64(&s.SharesReconstructed)
	for i := range s.Verdicts {
		c.U64(&s.Verdicts[i])
	}
}

// Codec walks a full Stats record in place (see Traffic.Codec for why in
// place matters).
func (s *Stats) Codec(c *checkpoint.Codec) {
	c.String(&s.Benchmark)
	c.String(&s.Scheme)
	c.U64(&s.Cycles)
	c.U64(&s.Instructions)
	c.U64(&s.MemInsts)
	c.U64(&s.LoadInsts)
	c.U64(&s.StoreInsts)
	s.Traffic.Codec(c)
	s.Sec.Codec(c)
	s.L2.Codec(c)
	s.CounterCache.Codec(c)
	s.MACCache.Codec(c)
	s.BMTCache.Codec(c)
	s.CompactCache.Codec(c)
	s.CompactBMTC.Codec(c)
}
