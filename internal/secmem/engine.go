package secmem

import (
	"encoding/binary"
	"fmt"

	"github.com/plutus-gpu/plutus/internal/cache"
	"github.com/plutus-gpu/plutus/internal/counters"
	"github.com/plutus-gpu/plutus/internal/crypto/gcipher"
	"github.com/plutus-gpu/plutus/internal/crypto/siphash"
	"github.com/plutus-gpu/plutus/internal/dense"
	"github.com/plutus-gpu/plutus/internal/dram"
	"github.com/plutus-gpu/plutus/internal/geom"
	"github.com/plutus-gpu/plutus/internal/sim"
	"github.com/plutus-gpu/plutus/internal/stats"
	"github.com/plutus-gpu/plutus/internal/valcache"
)

// layout places the partition's metadata regions in its local address
// space, after the data region. Bases only influence DRAM bank/row
// mapping; regions never overlap.
type layout struct {
	dataSectors uint64
	ctrBase     geom.Addr
	ctrBytes    uint64
	macBase     geom.Addr
	macBytes    uint64
	bmtBase     geom.Addr
	cctrBase    geom.Addr
	cctrBytes   uint64
	cbmtBase    geom.Addr
}

// Engine is one partition's secure memory controller. Which of its
// parts exist follows from the configuration's three seams; an absent
// part is nil (or, for the compact counter region, has a nil tree).
type Engine struct {
	cfg Config
	//simlint:ignore snapsym construction wiring, rebuilt by New
	eng *sim.Engine
	//simlint:ignore snapsym construction wiring, rebuilt by New
	ch *dram.Channel
	//simlint:ignore snapsym construction wiring, rebuilt by New
	st *stats.Stats

	//simlint:ignore snapsym stateless cipher, derived from the keys at construction
	enc *gcipher.Engine
	//simlint:ignore snapsym key material is part of the configuration, not mutable state
	macKey siphash.Key
	//simlint:ignore snapsym key material is part of the configuration, not mutable state
	treeKey siphash.Key

	// Version sources: the split counters (every stored source), the
	// compact mirror, mgx's derived versions, ssm's share versions.
	split   *counters.SplitStore
	compact *counters.CompactView
	derived *derivedVersions
	shares  *shareStore

	// ctr is the region over the original split counters; cctr the one
	// over the compact mirror (present only under VersionsCompact).
	ctr, cctr counterRegion

	macCache *cache.Cache
	vcache   *valcache.Cache

	//simlint:ignore snapsym address-space layout is pure geometry derived from the configuration
	lay layout

	// Functional DRAM image, indexed by data-sector index: 32 B
	// ciphertext per sector (plaintext without versions). Presence is
	// explicit — an absent sector is lazily materialized from InitData.
	mem dense.Sectors
	// macs holds the DRAM copy of each data sector's truncated MAC;
	// macsSet tracks which entries were ever written (snapshot walks).
	// Readers rely on the zero default, exactly as the old map did.
	macs    dense.U64
	macsSet dense.Bitmap
	// macStale marks sectors whose DRAM MAC was deliberately not updated
	// because the write carried the value-verification guarantee.
	macStale dense.Bitmap
	// taintData marks data sectors whose DRAM ciphertext an attacker
	// mutated (flips, splices): their decrypted plaintext is compromised
	// until the next writeback overwrites the sector. It is the ground
	// truth the read path classifies verdicts against.
	taintData dense.Bitmap
	// taintMeta marks sectors whose DRAM MAC an attacker corrupted; the
	// data itself is still authentic.
	taintMeta dense.Bitmap
	// bmtTampered marks DRAM-resident tree nodes (by local address) an
	// attacker corrupted: fetching one fails parent verification. It is
	// touched only by attack primitives and the (cold) tree walk, so it
	// stays a map.
	bmtTampered map[geom.Addr]bool
	// regionWritten is the common-counters on-chip write tracker.
	regionWritten dense.Bitmap

	// StreamHint, when non-nil, reports whether a partition-local address
	// lies on a workload-declared regular write stream and, if so, which
	// one (the mgx secmem↔workload contract; see StreamCursorSource).
	//simlint:ignore snapsym workload wiring (a function), reattached by the embedding GPU on resume
	StreamHint func(local geom.Addr) (stream uint64, ok bool)

	// InitData supplies the initial plaintext of a never-written sector
	// (workload-defined memory contents). Nil means zero-filled. The
	// returned slice need only stay valid until the next call: the engine
	// copies it at once.
	//simlint:ignore snapsym workload wiring (a function), reattached by the embedding GPU on resume
	InitData func(local geom.Addr) []byte

	// overflowPlain carries group plaintexts captured just before a
	// counter overflow resets the minors (see bumpCounter).
	//simlint:ignore snapsym dead between drained epochs; snapshots are taken at epoch boundaries
	overflowPlain map[geom.Addr][]byte

	// runPT/runCT/runCtrs are reusable buffers for batched re-encryption
	// of contiguous sector runs on counter overflow.
	//simlint:ignore snapsym per-operation scratch, dead between drained epochs
	runPT, runCT []byte
	//simlint:ignore snapsym per-operation scratch, dead between drained epochs
	runCtrs []uint64

	// mshrWait queues metadata fetches blocked on a full MSHR file.
	mshrWait sim.FuncQueue

	// hashScratch is the reusable serialization buffer for unit hashing
	// (the hottest per-write path).
	//simlint:ignore snapsym per-operation scratch, dead between drained epochs
	hashScratch []byte

	// rec holds the request-record free lists (see Pending).
	//simlint:ignore snapsym request scratch: every record is back on its list when a drained engine is walked
	rec records
}

// releaseMSHRWaiters wakes a bounded batch of metadata fetches parked on
// MSHR exhaustion (each fill frees one entry; waking the whole queue
// would only re-park it). Fill completions call it; so does the last
// woken fetch when no fill is left to complete (parkedFetch.retry).
//
//simlint:hotpath
func (e *Engine) releaseMSHRWaiters() {
	n := e.mshrWait.Len()
	if n > 8 {
		n = 8
	}
	for ; n > 0; n-- {
		e.eng.Schedule(1, e.mshrWait.Pop())
	}
}

// New builds a partition engine on eng, with its DRAM channel ch and
// statistics sink st.
func New(cfg Config, eng *sim.Engine, ch *dram.Channel, st *stats.Stats) (*Engine, error) {
	if err := cfg.Normalize(); err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:           cfg,
		eng:           eng,
		ch:            ch,
		st:            st,
		bmtTampered:   make(map[geom.Addr]bool),
		overflowPlain: make(map[geom.Addr][]byte),
	}
	e.rec.init(e)
	switch cfg.Versions {
	case VersionsNone:
		return e, nil
	case VersionsOnChip:
		// The share datapath has no counters, MACs, trees or metadata
		// caches to build — shares are the whole scheme.
		if err := e.initSSM(); err != nil {
			return nil, err
		}
		return e, nil
	}

	encKey, macKey, treeKey := cfg.keys()
	var err error
	e.enc, err = gcipher.NewEngine(cfg.Encryption, encKey)
	if err != nil {
		return nil, err
	}
	e.macKey, e.treeKey = macKey, treeKey

	e.split = counters.MustSplitStore(counters.DefaultSplitConfig())
	e.split.OnOverflow = e.onCounterOverflow
	e.lay = computeLayout(cfg)

	e.ctr = counterRegion{
		base: e.lay.ctrBase, treeBase: e.lay.bmtBase, ctrClass: stats.Counter, treeClass: stats.BMT,
		perSector: uint64(e.split.Config().GroupSize), hash: e.hashCounterUnit,
	}
	e.ctr.build(&cfg, treeKey, e.lay.ctrBytes, "ctr", "bmt")
	e.macCache = cfg.metaCache("mac", geom.BlockSize)

	switch cfg.Versions {
	case VersionsDerived:
		e.derived = &derivedVersions{}
	case VersionsCompact:
		e.compact, err = counters.NewCompactView(cfg.Compact, e.split, cfg.CompactThreshold)
		if err != nil {
			return nil, err
		}
		e.cctr = counterRegion{
			base: e.lay.cctrBase, treeBase: e.lay.cbmtBase, ctrClass: stats.CompactCounter, treeClass: stats.CompactBMT,
			perSector: uint64(cfg.Compact.CountersPerSector()), hash: e.hashCompactUnit,
		}
		e.cctr.build(&cfg, treeKey, e.lay.cctrBytes, "cctr", "cbmt")
	}

	if cfg.Check == CheckValue {
		e.vcache, err = valcache.New(cfg.Value)
		if err != nil {
			return nil, err
		}
	}
	return e, nil
}

// MustNew is New for static configuration.
func MustNew(cfg Config, eng *sim.Engine, ch *dram.Channel, st *stats.Stats) *Engine {
	e, err := New(cfg, eng, ch, st)
	if err != nil {
		panic(err)
	}
	return e
}

func computeLayout(cfg Config) layout {
	var l layout
	l.dataSectors = cfg.ProtectedBytes / geom.SectorSize
	groupSize := uint64(counters.DefaultSplitConfig().GroupSize)
	groups := (l.dataSectors + groupSize - 1) / groupSize
	l.ctrBytes = groups * geom.SectorSize
	l.ctrBase = geom.Addr(cfg.ProtectedBytes)

	macsPerSector := uint64(geom.SectorSize / cfg.MACBytes)
	macSectors := (l.dataSectors + macsPerSector - 1) / macsPerSector
	l.macBytes = macSectors * geom.SectorSize
	l.macBase = l.ctrBase + geom.Addr(l.ctrBytes)

	l.bmtBase = l.macBase + geom.Addr(l.macBytes)

	// The compact region sits after a generous BMT window (the tree's
	// exact size depends on its config; 2× the counter region is a safe
	// upper bound for any arity ≥ 2).
	bmtWindow := geom.Addr(2 * l.ctrBytes)
	if cfg.Versions == VersionsCompact {
		per := uint64(cfg.Compact.CountersPerSector())
		csecs := (l.dataSectors + per - 1) / per
		l.cctrBytes = csecs * geom.SectorSize
		l.cctrBase = l.bmtBase + bmtWindow
		l.cbmtBase = l.cctrBase + geom.Addr(l.cctrBytes)
	}
	return l
}

// Config returns the engine's (normalized) configuration.
func (e *Engine) Config() Config { return e.cfg }

// FinishStats copies each present metadata cache's counters into the
// stats record; call once at the end of a run.
func (e *Engine) FinishStats() {
	for _, c := range [...]struct {
		mc  *cache.Cache
		dst *stats.CacheStats
	}{
		{e.ctr.cache, &e.st.CounterCache}, {e.macCache, &e.st.MACCache}, {e.ctr.treeCache, &e.st.BMTCache},
		{e.cctr.cache, &e.st.CompactCache}, {e.cctr.treeCache, &e.st.CompactBMTC},
	} {
		if c.mc != nil {
			*c.dst = c.mc.Stats
		}
	}
}

// --- index and address helpers ---

//simlint:hotpath
func (e *Engine) sectorIdx(local geom.Addr) uint64 {
	return uint64(local) / geom.SectorSize
}

// macAddrOf returns the local address of the 32 B MAC sector holding data
// sector i's MAC.
//
//simlint:hotpath
func (e *Engine) macAddrOf(i uint64) geom.Addr {
	perSector := uint64(geom.SectorSize / e.cfg.MACBytes)
	return e.lay.macBase + geom.Addr(i/perSector*geom.SectorSize)
}

//simlint:hotpath
func (e *Engine) regionOf(local geom.Addr) uint64 {
	return uint64(local) / uint64(e.cfg.CommonRegionBytes)
}

// --- functional counter-unit hashing (the two regions' hash functions) ---

// hashCounterUnit hashes original-counter unit u's serialized contents
// as they exist in the ORIGINAL (in-memory) copy.
//
// With compact mirrored counters active, a sector's writes live entirely
// in the compact layer until its compact counter saturates or its block
// is disabled — until then the original copy (and hence this hash) shows
// zero, exactly like the stale DRAM copy real hardware would hold.
//
//simlint:hotpath
func (e *Engine) hashCounterUnit(u uint64, fresh bool) uint64 {
	groupSize := e.split.Config().GroupSize
	groupsPerUnit := e.cfg.Granularity.CounterUnitBytes() / geom.SectorSize
	buf := e.hashScratch[:0]
	var tmp [8]byte
	for g := 0; g < groupsPerUnit; g++ {
		gi := u*uint64(groupsPerUnit) + uint64(g)
		var major uint64
		if !fresh {
			major = e.split.Major(gi)
		}
		binary.LittleEndian.PutUint64(tmp[:], major)
		buf = append(buf, tmp[:]...)
		base := gi * uint64(groupSize)
		for k := 0; k < groupSize; k++ {
			var m uint32
			if !fresh {
				m = e.originalMinor(base+uint64(k), major)
			}
			buf = append(buf, byte(m), byte(m>>8))
		}
	}
	e.hashScratch = buf
	return siphash.Sum64(e.treeKey, buf)
}

// originalMinor returns the minor counter as stored in the original
// in-memory copy: the live value once the sector runs on original
// counters (major bumped, compact saturated, or block disabled), zero
// while its writes are still absorbed by the compact layer.
//
//simlint:hotpath
func (e *Engine) originalMinor(i uint64, major uint64) uint32 {
	m := e.split.Minor(i)
	if e.compact == nil || major > 0 {
		return m
	}
	if m >= e.compact.Saturation() || e.compact.Disabled(i) {
		return m
	}
	return 0
}

// hashCompactUnit hashes compact unit u's counter values (the leading
// 0x43 byte domain-separates it from the full-counter hash).
//
//simlint:hotpath
func (e *Engine) hashCompactUnit(u uint64, fresh bool) uint64 {
	per := uint64(e.cfg.Compact.CountersPerSector())
	sectorsPerUnit := uint64(e.cfg.Granularity.CounterUnitBytes()/geom.SectorSize) * per
	buf := append(e.hashScratch[:0], 0x43)
	base := u * sectorsPerUnit
	for k := uint64(0); k < sectorsPerUnit; k++ {
		var v uint32
		if !fresh && base+k < e.lay.dataSectors {
			v = e.compact.Value(base + k)
		}
		buf = append(buf, byte(v))
	}
	e.hashScratch = buf
	return siphash.Sum64(e.treeKey, buf)
}

// --- functional data-image helpers ---

// setMAC stores sector i's truncated MAC in the DRAM image.
func (e *Engine) setMAC(i uint64, mac uint64) {
	e.macs.Set(i, mac)
	e.macsSet.Set(i)
}

// materialize ensures the DRAM image holds sector local, lazily encrypting
// the workload's initial contents under the sector's current counter. The
// returned slice aliases the dense image, so attack primitives mutate the
// stored copy in place.
func (e *Engine) materialize(local geom.Addr) []byte {
	local = geom.SectorAddr(local)
	i := e.sectorIdx(local)
	if e.shares != nil {
		return e.ssmShare0(i)
	}
	if ct, ok := e.mem.Lookup(i); ok {
		return ct
	}
	dst := e.mem.Put(i)
	var pt [geom.SectorSize]byte
	if e.InitData != nil {
		copy(pt[:], e.InitData(local))
	}
	if e.enc == nil {
		copy(dst, pt[:])
		return dst
	}
	ctr := e.counterOf(i)
	if err := e.enc.EncryptInto(dst, pt[:], uint64(local), ctr); err != nil {
		panic(fmt.Sprintf("secmem: encrypt: %v", err))
	}
	e.setMAC(i, siphash.Truncate(siphash.SumTagged(e.macKey, dst, uint64(local), ctr), e.cfg.MACBytes))
	return dst
}

// plaintextOf decrypts the current DRAM image of sector local into dst.
//
//simlint:hotpath
func (e *Engine) plaintextOf(dst *[geom.SectorSize]byte, local geom.Addr) {
	local = geom.SectorAddr(local)
	if e.shares != nil {
		e.ssmReconstruct(dst, e.sectorIdx(local))
		return
	}
	ct := e.materialize(local)
	if e.enc == nil {
		copy(dst[:], ct)
		return
	}
	i := e.sectorIdx(local)
	if err := e.enc.DecryptInto(dst[:], ct, uint64(local), e.counterOf(i)); err != nil {
		panic(fmt.Sprintf("secmem: decrypt: %v", err))
	}
}

// storeCiphertext encrypts plaintext pt for sector local under its current
// counter directly into the DRAM image.
func (e *Engine) storeCiphertext(local geom.Addr, pt []byte) []byte {
	local = geom.SectorAddr(local)
	i := e.sectorIdx(local)
	ctr := e.counterOf(i)
	dst := e.mem.Put(i)
	if err := e.enc.EncryptInto(dst, pt, uint64(local), ctr); err != nil {
		panic(fmt.Sprintf("secmem: encrypt: %v", err))
	}
	return dst
}

// currentMAC computes the MAC of sector local's current ciphertext.
//
//simlint:hotpath
func (e *Engine) currentMAC(local geom.Addr) uint64 {
	local = geom.SectorAddr(local)
	ct := e.materialize(local)
	i := e.sectorIdx(local)
	return siphash.Truncate(siphash.SumTagged(e.macKey, ct, uint64(local), e.counterOf(i)), e.cfg.MACBytes)
}

// onCounterOverflow handles a split-counter minor overflow: every
// materialized sector of the group is re-encrypted under its new counter
// and its MAC refreshed, charging a read and a write per sector.
// The group's plaintexts were captured by bumpCounter before the reset.
//
// Re-encryption is batched over maximal contiguous runs of materialized
// sectors (one EncryptSectors call per run, into reused buffers); the
// per-sector MAC refresh and traffic accounting that follow run in the
// same ascending order as the old per-sector loop, so the simulation is
// bit-identical.
func (e *Engine) onCounterOverflow(gi uint64, sectors []uint64) {
	pts := e.overflowPlain
	for a := 0; a < len(sectors); a++ {
		if _, ok := pts[geom.Addr(sectors[a]*geom.SectorSize)]; !ok {
			continue // never materialized: nothing stored to re-encrypt
		}
		// Extend the contiguous materialized run starting at a.
		src, ctrs := e.runPT[:0], e.runCtrs[:0]
		b := a
		for b < len(sectors) {
			pt, ok := pts[geom.Addr(sectors[b]*geom.SectorSize)]
			if !ok {
				break
			}
			src = append(src, pt...)
			ctrs = append(ctrs, e.counterOf(sectors[b]))
			b++
		}
		if cap(e.runCT) < len(src) {
			e.runCT = make([]byte, len(src))
		}
		ct := e.runCT[:len(src)]
		base := geom.Addr(sectors[a] * geom.SectorSize)
		if err := e.enc.EncryptSectors(ct, src, uint64(base), ctrs); err != nil {
			panic(fmt.Sprintf("secmem: overflow re-encrypt: %v", err))
		}
		for k, off := a, 0; k < b; k, off = k+1, off+geom.SectorSize {
			copy(e.mem.Put(sectors[k]), ct[off:off+geom.SectorSize])
		}
		e.runPT, e.runCT, e.runCtrs = src[:0], ct[:0], ctrs[:0]
		a = b - 1
	}
	for _, s := range sectors {
		local := geom.Addr(s * geom.SectorSize)
		if _, ok := pts[local]; !ok {
			continue
		}
		e.setMAC(s, e.currentMAC(local))
		e.macStale.Clear(s)
		e.ch.Access(local, false, stats.Data, nil)
		e.ch.Access(local, true, stats.Data, nil)
		if e.macCache != nil {
			ma := e.macAddrOf(s)
			ev, _ := e.macCache.Insert(ma, e.macCache.MaskFor(ma), true)
			e.handleEviction(ev, stats.MAC)
		}
	}
}
