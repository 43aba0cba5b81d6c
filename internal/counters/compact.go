package counters

import (
	"fmt"

	"github.com/plutus-gpu/plutus/internal/dense"
)

// CompactKind selects which compact mirrored-counter design is active
// (paper §IV-D studies three).
type CompactKind int

const (
	// CompactOff disables the compact layer entirely.
	CompactOff CompactKind = iota
	// Compact2Bit uses 2-bit counters, 128 per 32 B compact sector
	// (4× compaction; saturates on the third write).
	Compact2Bit
	// Compact3Bit uses 3-bit counters, 64 per 32 B compact sector
	// (2× compaction).
	Compact3Bit
	// Compact3BitAdaptive is Compact3Bit plus a per-block saturation
	// count and an enable-bit layer that diverts heavily-written blocks
	// straight to the original counters, avoiding double accesses.
	Compact3BitAdaptive
)

// String names the design for reports.
func (k CompactKind) String() string {
	switch k {
	case CompactOff:
		return "off"
	case Compact2Bit:
		return "2bit"
	case Compact3Bit:
		return "3bit"
	case Compact3BitAdaptive:
		return "3bit-adaptive"
	default:
		return fmt.Sprintf("compact(%d)", int(k))
	}
}

// Width returns the counter width in bits (0 for CompactOff).
func (k CompactKind) Width() int {
	switch k {
	case Compact2Bit:
		return 2
	case Compact3Bit, Compact3BitAdaptive:
		return 3
	default:
		return 0
	}
}

// CountersPerSector returns how many data sectors one 32 B compact sector
// covers: 32 B = 256 bits of counters (the adaptive design reserves some
// bits for the saturation count; the paper keeps 64 counters per sector
// for both 3-bit variants).
func (k CompactKind) CountersPerSector() int {
	switch k {
	case Compact2Bit:
		return 128
	case Compact3Bit, Compact3BitAdaptive:
		return 64
	default:
		return 0
	}
}

// DefaultDisableThreshold is the adaptive design's saturated-counter count
// at which a compact block is disabled: the paper uses 8, half of the
// ~25 %-of-counters-accessed observation from prior work [22].
const DefaultDisableThreshold = 8

// Outcome classifies how a counter access is served under the compact
// scheme (paper Fig. 13's three flows).
type Outcome int

const (
	// ServedCompact: the compact counter is valid; only the compact
	// sector (plus its small tree) is needed.
	ServedCompact Outcome = iota
	// ServedOverflowed: the compact counter is saturated; the access pays
	// for the compact sector *and* the original counter sector.
	ServedOverflowed
	// ServedDisabled: the enable bit diverts the access directly to the
	// original counters; no compact traffic at all.
	ServedDisabled
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case ServedCompact:
		return "compact"
	case ServedOverflowed:
		return "overflowed"
	case ServedDisabled:
		return "disabled"
	default:
		return fmt.Sprintf("outcome(%d)", int(o))
	}
}

// CompactView layers the compact mirrored counters over a SplitStore. The
// compact counter of sector i is derived as min(minor(i), saturation),
// valid only while the sector's major counter is zero — exactly the
// paper's invariant ("when a compact counter is used, its major counter
// is 0"). Sticky per-block disable bits implement the adaptive design.
type CompactView struct {
	kind CompactKind
	//simlint:ignore snapsym construction wiring: the split store snapshots itself separately
	store *SplitStore
	//simlint:ignore snapsym derived from the kind at construction
	threshold int

	// disabled is the enable-bit layer: a set bit means the compact block
	// is permanently bypassed. Indexed by compact-block index (128 B of
	// compact counters).
	disabled dense.Bitmap
	// satSector marks data sectors whose compact counter has saturated;
	// satCount is the per-block tally of such sectors (the adaptive
	// threshold input) and satBlocks counts blocks with a nonzero tally.
	// Together they replace the old per-block map-of-sets, which sat on
	// the write path of every saturated sector.
	satSector dense.Bitmap
	satCount  dense.U32
	satBlocks int
}

// NewCompactView builds the view. threshold is the adaptive disable
// threshold (ignored unless kind is Compact3BitAdaptive); pass 0 for the
// paper default.
func NewCompactView(kind CompactKind, store *SplitStore, threshold int) (*CompactView, error) {
	if kind == CompactOff {
		return nil, fmt.Errorf("counters: cannot build a view for CompactOff")
	}
	if kind.Width() == 0 {
		return nil, fmt.Errorf("counters: unknown compact kind %d", int(kind))
	}
	if threshold <= 0 {
		threshold = DefaultDisableThreshold
	}
	return &CompactView{
		kind:      kind,
		store:     store,
		threshold: threshold,
	}, nil
}

// Kind returns the active design.
func (v *CompactView) Kind() CompactKind { return v.kind }

// saturation is the counter value meaning "overflowed, consult original".
func (v *CompactView) saturation() uint32 { return 1<<uint(v.kind.Width()) - 1 }

// Saturation exposes the overflow marker value (2^width − 1).
func (v *CompactView) Saturation() uint32 { return v.saturation() }

// BlockOf returns the compact-block index (4 compact sectors = 128 B)
// covering data sector i — the granularity of the enable-bit layer.
//
//simlint:hotpath
func (v *CompactView) BlockOf(i uint64) uint64 {
	return i / uint64(4*v.kind.CountersPerSector())
}

// Value returns the compact counter of sector i (saturation-clamped).
//
//simlint:hotpath
func (v *CompactView) Value(i uint64) uint32 {
	sat := v.saturation()
	if v.store.Major(v.store.GroupOf(i)) > 0 {
		// Any major bump invalidates the compact layer for the group.
		return sat
	}
	m := v.store.Minor(i)
	if m > sat {
		return sat
	}
	return m
}

// Disabled reports the enable-bit state of sector i's compact block.
//
//simlint:hotpath
func (v *CompactView) Disabled(i uint64) bool {
	return v.kind == Compact3BitAdaptive && v.disabled.Get(v.BlockOf(i))
}

// SaturatedCount returns how many covered sectors of i's compact block
// have saturated counters (adaptive bookkeeping).
//
//simlint:hotpath
func (v *CompactView) SaturatedCount(i uint64) int {
	return int(v.satCount.Get(v.BlockOf(i)))
}

// Classify resolves how a read of sector i's counter is served, per the
// paper's Fig. 13 flow: enable bit → compact value → original fallback.
// A group whose major counter was ever bumped is also diverted straight
// to the original counters (the paper's per-sector one-bit flag), since
// the whole group "needs to use the split counters instead of compact
// ones" after a minor overflow.
//
//simlint:hotpath
func (v *CompactView) Classify(i uint64) Outcome {
	if v.Disabled(i) || v.store.Major(v.store.GroupOf(i)) > 0 {
		return ServedDisabled
	}
	if v.Value(i) >= v.saturation() {
		return ServedOverflowed
	}
	return ServedCompact
}

// NoteWrite records that sector i's counter was incremented (the split
// store has already been updated) and maintains the adaptive state. It
// returns the outcome that governed the write's counter access and
// whether this write just disabled the block (triggering the one-time
// copy of non-saturated compact counters to the originals).
func (v *CompactView) NoteWrite(i uint64) (Outcome, bool) {
	if v.Disabled(i) || v.store.Major(v.store.GroupOf(i)) > 0 {
		return ServedDisabled, false
	}
	sat := v.saturation()
	nowSat := v.Value(i) >= sat
	out := ServedCompact
	if nowSat {
		out = ServedOverflowed
	}
	if v.kind != Compact3BitAdaptive {
		return out, false
	}
	if nowSat && !v.satSector.Get(i) {
		b := v.BlockOf(i)
		v.satSector.Set(i)
		n := v.satCount.Get(b) + 1
		v.satCount.Set(b, n)
		if n == 1 {
			v.satBlocks++
		}
		if int(n) >= v.threshold {
			v.disableBlock(b)
			return out, true
		}
	}
	return out, false
}

// disableBlock sets block b's enable bit and drops its saturation
// bookkeeping (matching the old map-delete semantics: SaturatedCount
// reads zero for a disabled block).
func (v *CompactView) disableBlock(b uint64) {
	v.disabled.Set(b)
	lo := b * uint64(4*v.kind.CountersPerSector())
	hi := lo + uint64(4*v.kind.CountersPerSector())
	for s := lo; s < hi; s++ {
		v.satSector.Clear(s)
	}
	v.satCount.Set(b, 0)
	v.satBlocks--
}
