package secmem

import (
	"fmt"

	"github.com/plutus-gpu/plutus/internal/cache"
	"github.com/plutus-gpu/plutus/internal/counters"
	"github.com/plutus-gpu/plutus/internal/geom"
	"github.com/plutus-gpu/plutus/internal/sim"
	"github.com/plutus-gpu/plutus/internal/stats"
)

// join is a completion barrier embedded in a request record: then runs
// once every armed step has completed. Arms may be added only before
// seal. Both funcs are bound once when the record is built, so arming
// allocates nothing.
type join struct {
	n        int
	sealed   bool
	then     func()
	arriveFn func() // j.arrive, bound once by bind
}

// bind sets the continuation and binds the arm callback; a record's
// constructor calls it once.
func (j *join) bind(then func()) {
	j.then = then
	j.arriveFn = j.arrive
}

// reset readies a reused record's barrier for a new request.
func (j *join) reset() { j.n, j.sealed = 0, false }

//simlint:hotpath
func (j *join) arm() func() {
	j.n++
	return j.arriveFn
}

//simlint:hotpath
func (j *join) arrive() {
	j.n--
	if j.n == 0 && j.sealed {
		j.then()
	}
}

// seal marks arm registration complete; if everything already finished,
// the continuation runs immediately.
//
//simlint:hotpath
func (j *join) seal() {
	j.sealed = true
	if j.n == 0 {
		j.then()
	}
}

// records holds the engine's request-record free lists. Every record
// lives for one request and returns to its list when the request
// completes, so a drained engine has every record at home (Pending is
// zero) and nothing to snapshot.
type records struct {
	reads   sim.FreeList[readReq]
	writes  sim.FreeList[writeReq]
	fills   sim.FreeList[metaFill]
	parked  sim.FreeList[parkedFetch]
	dirties sim.FreeList[nodeDirty]
}

// init binds each list's constructor.
func (rs *records) init(e *Engine) {
	rs.reads.New = e.newReadReq
	rs.writes.New = e.newWriteReq
	rs.fills.New = e.newMetaFill
	rs.parked.New = e.newParkedFetch
	rs.dirties.New = e.newNodeDirty
}

// ReadResult reports a completed secure read.
type ReadResult struct {
	// Data is the decrypted sector plaintext.
	Data [geom.SectorSize]byte
	// OK is false when integrity or freshness verification failed.
	OK bool
	// ValueVerified is true when the sector was authenticated by the
	// value cache alone.
	ValueVerified bool
}

// Pending returns the number of request records in flight: reads,
// writebacks, and the metadata fills, parked fetches and node updates
// they spawned. A drained engine reports zero.
func (e *Engine) Pending() int {
	rs := &e.rec
	return rs.reads.Out() + rs.writes.Out() + rs.fills.Out() + rs.parked.Out() + rs.dirties.Out()
}

// readReq is one secure read in flight, from Read to its done callback.
type readReq struct {
	join
	e       *Engine
	local   geom.Addr
	done    func(ReadResult)
	freshOK bool // cleared when counter or tree verification fails
	res     ReadResult
	// The MAC path's verdict inputs, fixed at decrypt time.
	stale, mismatch, tainted bool
	// Steps bound once by newReadReq.
	unprotectedFn, decryptFn, macFetchedFn, macCheckedFn func()
}

//go:noinline
func (e *Engine) newReadReq() *readReq {
	r := &readReq{e: e}
	r.bind(r.joined)
	r.unprotectedFn, r.decryptFn = r.unprotected, r.decrypt
	r.macFetchedFn, r.macCheckedFn = r.macFetched, r.macChecked
	return r
}

// Read performs a secure read of the 32 B sector at partition-local
// address local, invoking done with the plaintext when all security
// checks complete.
//
//simlint:hotpath
func (e *Engine) Read(local geom.Addr, done func(ReadResult)) {
	r := e.rec.reads.Get()
	r.reset()
	r.local, r.done, r.freshOK, r.res = geom.SectorAddr(local), done, true, ReadResult{}

	switch e.cfg.Check {
	case CheckNone:
		e.ch.Access(r.local, false, stats.Data, r.unprotectedFn)
		return
	case CheckShares:
		e.ssmRead(r)
		return
	}

	// Demand data fetch.
	e.ch.Access(r.local, false, stats.Data, r.arm())
	// Counter acquisition (may be free, cached, or multiple fetches).
	e.acquireCounter(r.local, &r.join, &r.freshOK)
	r.seal()
}

// unprotected completes a read under CheckNone. No verification exists:
// a read of attacker-mutated data succeeds and returns the corruption —
// the baseline's defining failure.
//
//simlint:hotpath
func (r *readReq) unprotected() {
	e := r.e
	if e.taintData.Get(e.sectorIdx(r.local)) {
		e.st.Sec.TaintedReads++
		e.st.Sec.Verdicts.Record(stats.VerdictSilentCorruption)
	}
	e.plaintextOf(&r.res.Data, r.local)
	r.finish(true)
}

// joined runs once the data (and counters, or every share) have arrived:
// decrypt after the crypto pipeline's latency.
//
//simlint:hotpath
func (r *readReq) joined() { r.e.eng.Schedule(r.e.cfg.AESLatency, r.decryptFn) }

//simlint:hotpath
func (r *readReq) decrypt() {
	if r.e.shares != nil {
		r.e.ssmCompleteRead(r)
		return
	}
	r.e.completeRead(r)
}

// finish settles the verdict, returns the record to its list and hands
// the result to the requester.
//
//simlint:hotpath
func (r *readReq) finish(ok bool) {
	e, done := r.e, r.done
	r.res.OK = ok
	res := r.res
	r.done = nil
	e.rec.reads.Put(r)
	if done != nil {
		done(res)
	}
}

// completeRead runs the post-decrypt verification stage.
//
//simlint:hotpath
func (e *Engine) completeRead(r *readReq) {
	i := e.sectorIdx(r.local)
	e.plaintextOf(&r.res.Data, r.local)
	pt := r.res.Data[:]
	r.tainted = e.taintData.Get(i)
	if r.tainted {
		e.st.Sec.TaintedReads++
	}

	if !r.freshOK {
		// Counter/tree verification already failed: replay detected.
		e.st.Sec.ReplayDetected++
		e.st.Sec.Verdicts.Record(stats.VerdictDetectedByBMT)
		r.finish(false)
		return
	}

	if e.vcache != nil {
		res := e.vcache.VerifySector(pt)
		if res.Verified {
			e.st.Sec.ValueVerified++
			if r.tainted {
				// Mutated ciphertext decrypted to words that still
				// cleared the match threshold: a false accept, the event
				// the paper's Eq. 1 bounds.
				e.st.Sec.Verdicts.Record(stats.VerdictAcceptedByValueCache)
			}
			e.vcache.ObserveSector(pt)
			r.res.ValueVerified = true
			r.finish(true)
			return
		}
	}

	// Fall back to conventional MAC verification. The verification
	// outcome is determined by the sector's state as of decrypt time (a
	// concurrent writeback committing while the MAC block is in flight
	// must not affect this read's result), so snapshot it now; the fetch
	// and MAC-engine latency that follow are purely timing.
	r.stale = e.macStale.Get(i)
	r.mismatch = !r.stale && e.currentMAC(r.local) != e.macs.Get(i)
	ma := e.macAddrOf(i)
	e.fetchMeta(e.macCache, ma, e.macCache.MaskFor(ma), stats.MAC, r.macFetchedFn)
}

//simlint:hotpath
func (r *readReq) macFetched() { r.e.eng.Schedule(r.e.cfg.MACLatency, r.macCheckedFn) }

//simlint:hotpath
func (r *readReq) macChecked() {
	e := r.e
	e.st.Sec.MACVerified++
	ok := !r.stale && !r.mismatch
	if !ok {
		// A stale MAC fails too: a write-guarantee sector should always
		// value-verify, so reaching the MAC path with one means either
		// the guarantee logic is unsound or an attacker interfered.
		e.st.Sec.TamperDetected++
		e.st.Sec.Verdicts.Record(stats.VerdictDetectedByMAC)
	} else if r.tainted {
		// Tainted data sailed through MAC comparison — the failure an
		// integrity-enabled scheme must never produce (the differential
		// oracle asserts this stays zero).
		e.st.Sec.Verdicts.Record(stats.VerdictSilentCorruption)
	}
	if e.vcache != nil {
		e.vcache.ObserveSector(r.res.Data[:])
	}
	r.finish(ok)
}

// writeReq is one secure writeback in flight, from Writeback to its
// data write's completion.
type writeReq struct {
	join
	e       *Engine
	local   geom.Addr
	done    func()
	freshOK bool
	pt      [geom.SectorSize]byte
	// Steps bound once by newWriteReq.
	issueFn, finishFn func()
}

//go:noinline
func (e *Engine) newWriteReq() *writeReq {
	w := &writeReq{e: e}
	w.bind(w.joined)
	w.issueFn, w.finishFn = w.issue, w.finish
	return w
}

// Writeback performs a secure write of a dirty 32 B sector (an L2
// eviction). It copies data before returning. done (nullable) fires when
// the data transaction completes.
//
//simlint:hotpath
func (e *Engine) Writeback(local geom.Addr, data []byte, done func()) {
	local = geom.SectorAddr(local)
	if len(data) != geom.SectorSize {
		panic(fmt.Sprintf("secmem: writeback of %d bytes", len(data)))
	}
	w := e.rec.writes.Get()
	w.reset()
	w.local, w.done, w.freshOK = local, done, true

	if e.cfg.Check == CheckNone {
		copy(e.mem.Put(e.sectorIdx(local)), data)
		e.taintData.Clear(e.sectorIdx(local)) // overwritten: corruption gone
		e.ch.Access(local, true, stats.Data, w.finishFn)
		return
	}
	copy(w.pt[:], data)
	if e.cfg.Check == CheckShares {
		e.ssmWrite(w)
		return
	}

	// The first write to a region ends its common-counter (all-zero) era.
	if e.cfg.Versions == VersionsCommon {
		e.regionWritten.Set(e.regionOf(local))
	}
	// The counter must be on-chip (and verified) before it is bumped.
	e.acquireCounter(local, &w.join, &w.freshOK)
	w.seal()
}

// joined runs once the write's counter is on-chip — or, under the
// share check, once every share write has landed.
//
//simlint:hotpath
func (w *writeReq) joined() {
	e := w.e
	if e.shares != nil {
		w.finish()
		return
	}
	if !w.freshOK {
		// The counter fetched for this write failed freshness
		// verification. The controller raises the alarm; the write
		// itself still commits, rewriting the unit with fresh state (see
		// dirtyCounter), as real hardware would after flagging the
		// violation.
		e.st.Sec.ReplayDetected++
		e.st.Sec.Verdicts.Record(stats.VerdictDetectedByBMT)
	}
	e.commitWrite(w)
}

// issue sends the encrypted write to DRAM: one data transaction, or
// one per share under the share check.
//
//simlint:hotpath
func (w *writeReq) issue() {
	e := w.e
	if e.shares == nil {
		e.ch.Access(w.local, true, stats.Data, w.finishFn)
		return
	}
	i := e.sectorIdx(w.local)
	for r := 0; r < e.cfg.SSMShares; r++ {
		e.ch.Access(e.ssmSlotAddr(r, i), true, stats.Data, w.arm())
	}
	w.seal()
}

//simlint:hotpath
func (w *writeReq) finish() {
	e, done := w.e, w.done
	w.done = nil
	e.rec.writes.Put(w)
	if done != nil {
		done()
	}
}

// commitWrite runs once the counter is available: bump it, update trees
// and MAC, encrypt and write the data.
//
//simlint:hotpath
func (e *Engine) commitWrite(w *writeReq) {
	local, pt := w.local, w.pt[:]
	i := e.sectorIdx(local)

	derived := e.derived.has(i)
	if derived {
		e.derived.bump(i)
	} else {
		e.bumpCounter(local)
	}
	e.storeCiphertext(local, pt)
	// The sector's DRAM copy (and MAC, below) is rewritten wholesale:
	// any earlier mutation of it is gone.
	e.taintData.Clear(i)
	e.taintMeta.Clear(i)

	switch {
	case derived:
		// A derived sector has no stored counter to dirty and no tree
		// unit to refresh — that absence is the scheme's entire saving.
	case e.compact == nil:
		e.dirtyCounter(&e.ctr, i)
	default:
		// While a write is absorbed by the compact layer, the original
		// counters and main BMT stay untouched in memory — that is the
		// whole bandwidth saving. The original copy is written only when
		// a counter saturates (propagation), when the block is disabled,
		// or once the sector runs on original counters.
		out, justDisabled := e.compact.NoteWrite(i)
		sat := e.compact.Saturation()
		justSaturated := e.split.Minor(i) == sat && e.split.Major(e.split.GroupOf(i)) == 0
		if out == counters.ServedCompact || justSaturated {
			// The compact value changed: dirty the compact sector and
			// update the small tree.
			e.dirtyCounter(&e.cctr, i)
		}
		if out != counters.ServedCompact {
			// Saturated or disabled: this write lives in the originals.
			e.dirtyCounter(&e.ctr, i)
		}
		if justDisabled {
			// One-time copy of the block's surviving compact counters to
			// the original store: two original counter sectors written
			// (paper §IV-D; 2× compaction), and the main tree now covers
			// the propagated values.
			ua := e.ctr.unitAddr(e.ctr.unitOf(i))
			e.ch.Access(ua, true, stats.Counter, nil)
			e.ch.Access(ua+geom.SectorSize, true, stats.Counter, nil)
			e.refreshDisabledBlockHashes(i)
		}
	}

	// Value bookkeeping and the deferred-MAC decision.
	skipMAC := false
	if e.vcache != nil {
		e.vcache.ObserveSector(pt)
		skipMAC = e.vcache.WriteGuaranteed(pt)
	}
	if skipMAC {
		e.st.Sec.MACSkippedWrites++
		e.macStale.Set(i)
	} else {
		e.st.Sec.MACWrites++
		e.setMAC(i, e.currentMAC(local))
		e.macStale.Clear(i)
		ma := e.macAddrOf(i)
		ev, _ := e.macCache.Insert(ma, e.macCache.MaskFor(ma), true)
		e.handleEviction(ev, stats.MAC)
	}

	// Encrypt latency then the data write transaction.
	e.eng.Schedule(e.cfg.AESLatency, w.issueFn)
}

// refreshDisabledBlockHashes re-hashes every main-tree unit covering a
// just-disabled compact block: the disable event propagated the block's
// surviving compact counters to the original copy. It runs once per
// block, so its map is a cold allocation.
//
//go:noinline
func (e *Engine) refreshDisabledBlockHashes(i uint64) {
	per := uint64(e.cfg.Compact.CountersPerSector())
	blockSectors := 4 * per // one compact block covers 4 compact sectors
	start := i / blockSectors * blockSectors
	seen := map[uint64]bool{}
	for s := start; s < start+blockSectors && s < e.lay.dataSectors; s += uint64(e.split.Config().GroupSize) {
		u := e.ctr.unitOf(s)
		if !seen[u] {
			seen[u] = true
			e.ctr.replayed.Clear(u) // propagation rewrites the unit
			e.ctr.tree.SetUnitHash(u, e.ctr.unitHash(u))
		}
	}
}

// bumpCounter increments sector local's counter, capturing group
// plaintexts first so a minor overflow can re-encrypt them.
//
//simlint:hotpath
func (e *Engine) bumpCounter(local geom.Addr) {
	i := e.sectorIdx(local)
	if e.split.Minor(i) == uint32(1)<<uint(e.split.Config().MinorBits)-1 {
		e.captureOverflowPlain(i)
	}
	e.split.Increment(i)
}

// captureOverflowPlain records the plaintext of every materialized,
// counter-versioned sector in data sector i's group before a minor
// overflow re-encrypts them (onCounterOverflow). Overflow is rare, so
// its fresh buffers are a cold allocation.
//
//go:noinline
func (e *Engine) captureOverflowPlain(i uint64) {
	clear(e.overflowPlain)
	g := e.split.GroupOf(i)
	base := g * uint64(e.split.Config().GroupSize)
	for k := 0; k < e.split.Config().GroupSize; k++ {
		if e.derived.has(base + uint64(k)) {
			// Derived group-mates don't ride the split counters: the
			// major bump doesn't change their effective version, so they
			// must not be re-encrypted.
			continue
		}
		sa := geom.Addr((base + uint64(k)) * geom.SectorSize)
		if _, ok := e.mem.Lookup(base + uint64(k)); ok {
			pt := new([geom.SectorSize]byte)
			e.plaintextOf(pt, sa)
			e.overflowPlain[sa] = pt[:]
		}
	}
}

// --- counter acquisition ---

// acquireCounter arranges for sector local's encryption counter to be
// on-chip and verified, joining all resulting memory activity onto j.
// freshOK is cleared if counter verification fails (replay detection).
//
//simlint:hotpath
func (e *Engine) acquireCounter(local geom.Addr, j *join, freshOK *bool) {
	i := e.sectorIdx(local)

	// mgx fast path: a derived sector's version is regenerated on-chip
	// from the stream cursor — no counter fetch, no tree walk, nothing
	// to verify. Irregular sectors fall through to the stored path.
	if e.derived != nil {
		if e.classifyDerived(i, local) {
			e.st.Sec.DerivedVersions++
			return
		}
		e.st.Sec.DerivedFallbacks++
	}

	// Common-counters fast path: a never-written region has all-zero
	// counters known on-chip; no counter or tree traffic at all.
	if e.cfg.Versions == VersionsCommon && !e.regionWritten.Get(e.regionOf(local)) {
		return
	}

	if e.compact != nil {
		switch e.compact.Classify(i) {
		case counters.ServedCompact:
			e.st.Sec.CompactHits++
			e.fetchUnit(&e.cctr, i, j, freshOK)
			return
		case counters.ServedOverflowed:
			e.st.Sec.CompactOverflow++
			e.fetchOverflowed(i, j, freshOK)
			return
		default: // counters.ServedDisabled
			e.st.Sec.CompactDisabled++
		}
	}
	e.fetchUnit(&e.ctr, i, j, freshOK)
}

// fetchOverflowed is the serial fetch of a saturated compact counter:
// discover saturation in the compact layer, then go to the original
// counters (the paper's double access). It is rare, so its barriers
// and closures are a cold allocation.
//
//go:noinline
func (e *Engine) fetchOverflowed(i uint64, j *join, freshOK *bool) {
	inner := j.arm()
	cj := &join{}
	cj.bind(func() {
		oj := &join{}
		oj.bind(inner)
		e.fetchUnit(&e.ctr, i, oj, freshOK)
		oj.seal()
	})
	e.fetchUnit(&e.cctr, i, cj, freshOK)
	cj.seal()
}

// fetchMask is the sector mask of one fetch of a size-byte metadata
// item at addr through mc: the whole block for 128 B items, a single
// 32 B sector otherwise.
func fetchMask(mc *cache.Cache, addr geom.Addr, size int) geom.SectorMask {
	if size == geom.BlockSize {
		return geom.AllSectors
	}
	return mc.MaskFor(addr)
}

// fetchMeta fetches (addr, mask) through mc and runs done when the
// requested sectors are present.
//
//simlint:hotpath
func (e *Engine) fetchMeta(mc *cache.Cache, addr geom.Addr, mask geom.SectorMask, cl stats.Class, done func()) {
	out, need, m := mc.Lookup(addr, mask, false, done)
	switch out {
	case cache.Hit:
		e.eng.Schedule(0, done)
	case cache.Miss:
		e.issueMetaFill(mc, m, addr, need, cl)
	case cache.MissNoMSHR:
		// Park until some fill frees an MSHR (models MSHR-full stall
		// without polling).
		p := e.rec.parked.Get()
		p.mc, p.addr, p.mask, p.cl, p.done = mc, addr, mask, cl, done
		e.mshrWait.Push(p.retryFn)
	}
}

// parkedFetch is a metadata fetch parked on a full MSHR file.
type parkedFetch struct {
	e       *Engine
	mc      *cache.Cache
	addr    geom.Addr
	mask    geom.SectorMask
	cl      stats.Class
	done    func()
	retryFn func() // p.retry, bound once by newParkedFetch
}

//go:noinline
func (e *Engine) newParkedFetch() *parkedFetch {
	p := &parkedFetch{e: e}
	p.retryFn = p.retry
	return p
}

// retry re-issues the parked fetch. Only fill completions wake parked
// fetches, so when the last fetch of a woken batch has run, no fill is
// in flight and fetches are still parked, nothing would ever wake them:
// the next batch is woken here instead. With no fill in flight every
// MSHR is free, so that batch makes progress.
//
//simlint:hotpath
func (p *parkedFetch) retry() {
	e, mc, addr, mask, cl, done := p.e, p.mc, p.addr, p.mask, p.cl, p.done
	p.mc, p.done = nil, nil
	e.rec.parked.Put(p)
	e.fetchMeta(mc, addr, mask, cl, done)
	if n := e.mshrWait.Len(); n != 0 && e.rec.parked.Out() == n && e.rec.fills.Out() == 0 {
		e.releaseMSHRWaiters()
	}
}

// metaFill is one 32 B sector of a metadata fill in flight from DRAM.
type metaFill struct {
	e      *Engine
	mc     *cache.Cache
	m      cache.MSHR
	mask   geom.SectorMask
	cl     stats.Class
	landFn func() // f.land, bound once by newMetaFill
}

//go:noinline
func (e *Engine) newMetaFill() *metaFill {
	f := &metaFill{e: e}
	f.landFn = f.land
	return f
}

// issueMetaFill issues DRAM reads for the needed sectors, filling the
// cache as each lands; waiters resume when the MSHR completes.
//
//simlint:hotpath
func (e *Engine) issueMetaFill(mc *cache.Cache, m cache.MSHR, addr geom.Addr, need geom.SectorMask, cl stats.Class) {
	block := addr &^ geom.Addr(geom.BlockSize-1)
	for s := 0; s < geom.SectorsPerBlock; s++ {
		if !need.Has(s) {
			continue
		}
		f := e.rec.fills.Get()
		f.mc, f.m, f.mask, f.cl = mc, m, geom.SectorMask(1<<s), cl
		e.ch.Access(block+geom.Addr(s*geom.SectorSize), false, cl, f.landFn)
	}
}

//simlint:hotpath
func (f *metaFill) land() {
	e, mc, cl := f.e, f.mc, f.cl
	ev, _, ws, done := mc.FillSectors(f.m, f.mask, false)
	f.mc = nil
	e.rec.fills.Put(f)
	e.handleEviction(ev, cl)
	if done {
		mc.Wake(ws)
		e.releaseMSHRWaiters()
	}
}

// handleEviction writes back the dirty sectors of an evicted metadata
// block of traffic class cl and, for a counter region's counter or tree
// blocks under lazy update, propagates the update to the parent tree
// node. A clean or zero eviction is a no-op.
//
//simlint:hotpath
func (e *Engine) handleEviction(ev cache.Eviction, cl stats.Class) {
	if ev.Dirty == 0 {
		return
	}
	for s := 0; s < geom.SectorsPerBlock; s++ {
		if ev.Dirty.Has(s) {
			e.ch.Access(ev.Addr+geom.Addr(s*geom.SectorSize), true, cl, nil)
		}
	}
	for _, r := range [...]*counterRegion{&e.ctr, &e.cctr} {
		switch {
		case r.tree == nil: // absent compact region
		case cl == r.ctrClass:
			e.propagateDirty(r, r.unitOfAddr(ev.Addr))
		case cl == r.treeClass:
			e.propagateNodeDirty(r, ev.Addr)
		}
	}
}

// nodeDirty is a tree-node update waiting for its node's sector to be
// fetched (markNodeDirty's read-modify-write).
type nodeDirty struct {
	e         *Engine
	mc        *cache.Cache
	na        geom.Addr
	mask      geom.SectorMask
	cl        stats.Class
	fetchedFn func() // d.fetched, bound once by newNodeDirty
}

//go:noinline
func (e *Engine) newNodeDirty() *nodeDirty {
	d := &nodeDirty{e: e}
	d.fetchedFn = d.fetched
	return d
}

// markNodeDirty dirties one tree-node sector in its cache. An absent
// sector is fetched through the cache first (read-modify-write), so
// concurrent propagations to the same node merge in the MSHRs instead of
// each paying a DRAM read.
//
//simlint:hotpath
func (e *Engine) markNodeDirty(mc *cache.Cache, na geom.Addr, cl stats.Class) {
	mask := mc.MaskFor(na)
	if mc.MarkDirty(na, mask) {
		return
	}
	d := e.rec.dirties.Get()
	d.mc, d.na, d.mask, d.cl = mc, na, mask, cl
	e.fetchMeta(mc, na, mask, cl, d.fetchedFn)
}

//simlint:hotpath
func (d *nodeDirty) fetched() {
	e, mc, na, mask, cl := d.e, d.mc, d.na, d.mask, d.cl
	d.mc = nil
	e.rec.dirties.Put(d)
	if !mc.MarkDirty(na, mask) {
		// Filled and already evicted again (cache thrash): charge the
		// update write directly rather than loop.
		e.ch.Access(geom.SectorAddr(na), true, cl, nil)
	}
}

// FlushDirtyMetadata writes back all dirty metadata (end-of-run
// accounting so lazy updates are not silently dropped).
func (e *Engine) FlushDirtyMetadata() {
	for _, f := range [...]struct {
		mc *cache.Cache
		cl stats.Class
	}{
		{e.ctr.cache, stats.Counter}, {e.macCache, stats.MAC}, {e.ctr.treeCache, stats.BMT},
		{e.cctr.cache, stats.CompactCounter}, {e.cctr.treeCache, stats.CompactBMT},
	} {
		if f.mc == nil {
			continue
		}
		f.mc.WalkDirty(func(b geom.Addr, d geom.SectorMask) {
			d.Sectors(func(s int) {
				e.ch.Access(b+geom.Addr(s*geom.SectorSize), true, f.cl, nil)
			})
			f.mc.CleanSectors(b, d)
		})
	}
}
