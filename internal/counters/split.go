// Package counters implements the encryption-counter organizations the
// paper builds on and contributes:
//
//   - Split counters (Yan et al. [33]) in PSSM's sectored layout: each
//     32 B counter sector holds one 64-bit major counter shared by a group
//     of data sectors plus a small minor counter per data sector. The
//     effective encryption counter is major<<minorBits | minor; a minor
//     overflow increments the major and forces re-encryption of every data
//     sector in the group.
//   - Compact mirrored counters (Plutus §IV-D): a second, much smaller
//     per-sector counter layer (2 or 3 bits) usable while the sector has
//     seen few writes, with saturated counters falling back to the split
//     store. The adaptive variant additionally disables a whole compact
//     block once too many of its counters saturate.
//
// The split store is the single source of truth for counter values — the
// compact layer is a *view* derived from it plus sticky disable state, so
// the two can never disagree about the value used for encryption.
package counters

import (
	"fmt"

	"github.com/plutus-gpu/plutus/internal/dense"
)

// SplitConfig fixes the split-counter geometry.
type SplitConfig struct {
	// MinorBits is the width of each per-sector minor counter.
	MinorBits int
	// GroupSize is the number of data sectors sharing one major counter
	// (i.e. covered by one 32 B counter sector).
	GroupSize int
}

// DefaultSplitConfig matches the PSSM sectored layout: a 32 B counter
// sector = 8 B major + 32 six-bit minors covering 32 data sectors (1 KiB
// of data); a 128 B counter block covers 4 KiB.
func DefaultSplitConfig() SplitConfig { return SplitConfig{MinorBits: 6, GroupSize: 32} }

// Validate reports configuration errors.
func (c SplitConfig) Validate() error {
	if c.MinorBits < 1 || c.MinorBits > 16 {
		return fmt.Errorf("counters: minor width %d out of range", c.MinorBits)
	}
	if c.GroupSize < 1 {
		return fmt.Errorf("counters: group size %d out of range", c.GroupSize)
	}
	return nil
}

// SplitStore holds the logical split-counter state for one partition's
// data sectors, indexed by partition-local data-sector index. Counter
// values live in dense paged arrays (majors by group, minors by sector):
// counter reads sit on every encrypt/decrypt and every unit hash, and the
// previous map-of-groups layout made each one a hash probe.
type SplitStore struct {
	cfg SplitConfig
	//simlint:ignore snapsym derived from cfg.MinorBits at construction
	minorMax uint32
	majors   dense.U64    // by group index
	minors   dense.U32    // by data-sector index
	present  dense.Bitmap // materialized groups (Groups() and snapshots)

	// OnOverflow, if set, is called when a minor overflow increments a
	// group's major counter. sectors lists every data-sector index in the
	// group; the secure-memory engine re-encrypts them (the standard
	// split-counter overflow cost).
	//simlint:ignore snapsym runtime wiring (a function), reattached by the engine on resume
	OnOverflow func(groupIdx uint64, sectors []uint64)

	//simlint:ignore snapsym per-call scratch, dead between calls
	overflowScratch []uint64 // reused OnOverflow argument buffer
}

// NewSplitStore builds an empty store (all counters zero).
func NewSplitStore(cfg SplitConfig) (*SplitStore, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &SplitStore{
		cfg:      cfg,
		minorMax: 1<<cfg.MinorBits - 1,
	}, nil
}

// MustSplitStore is NewSplitStore for static configuration.
func MustSplitStore(cfg SplitConfig) *SplitStore {
	s, err := NewSplitStore(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Config returns the store's geometry.
func (s *SplitStore) Config() SplitConfig { return s.cfg }

// GroupOf returns the group (counter-sector) index covering data sector i.
//
//simlint:hotpath
func (s *SplitStore) GroupOf(i uint64) uint64 { return i / uint64(s.cfg.GroupSize) }

// Value returns the effective encryption counter of data sector i.
//
//simlint:hotpath
func (s *SplitStore) Value(i uint64) uint64 {
	return s.majors.Get(s.GroupOf(i))<<uint(s.cfg.MinorBits) | uint64(s.minors.Get(i))
}

// Major returns group gi's major counter.
//
//simlint:hotpath
func (s *SplitStore) Major(gi uint64) uint64 { return s.majors.Get(gi) }

// Minor returns data sector i's minor counter.
//
//simlint:hotpath
func (s *SplitStore) Minor(i uint64) uint32 { return s.minors.Get(i) }

// Increment bumps sector i's counter for a writeback and returns the new
// effective value. If the minor overflows, the group's major is
// incremented, every minor resets to zero, OnOverflow fires, and
// overflowed is true.
func (s *SplitStore) Increment(i uint64) (value uint64, overflowed bool) {
	gi := s.GroupOf(i)
	s.present.Set(gi)
	major := s.majors.Get(gi)
	if m := s.minors.Get(i); m < s.minorMax {
		s.minors.Set(i, m+1)
		return major<<uint(s.cfg.MinorBits) | uint64(m+1), false
	}
	// Minor overflow: bump major, reset all minors, re-encrypt the group.
	major++
	s.majors.Set(gi, major)
	base := gi * uint64(s.cfg.GroupSize)
	for k := 0; k < s.cfg.GroupSize; k++ {
		s.minors.Set(base+uint64(k), 0)
	}
	if s.OnOverflow != nil {
		sectors := s.overflowScratch[:0]
		for k := 0; k < s.cfg.GroupSize; k++ {
			sectors = append(sectors, base+uint64(k))
		}
		s.overflowScratch = sectors
		s.OnOverflow(gi, sectors)
	}
	return major << uint(s.cfg.MinorBits), true
}

// Touched reports whether sector i's counter has ever been incremented.
//
//simlint:hotpath
func (s *SplitStore) Touched(i uint64) bool { return s.Value(i) != 0 }

// Groups returns the number of materialized counter groups (for tests).
func (s *SplitStore) Groups() int { return s.present.Count() }
