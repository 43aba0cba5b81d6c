package gpusim

import (
	"fmt"

	"github.com/plutus-gpu/plutus/internal/cache"
	"github.com/plutus-gpu/plutus/internal/dram"
	"github.com/plutus-gpu/plutus/internal/geom"
	"github.com/plutus-gpu/plutus/internal/secmem"
	"github.com/plutus-gpu/plutus/internal/sim"
	"github.com/plutus-gpu/plutus/internal/stats"
)

// GPU is one simulated device executing one workload.
//
// The simulation is sharded: all SMs and warps live on one shard, and
// each memory partition is its own shard with a private event engine.
// Requests and responses cross the SM↔partition interconnect as
// cycle-stamped mailbox messages, and the shards advance in lockstep
// windows no wider than the interconnect latency (conservative PDES).
// With Config.Workers > 1 the shards of each window execute on that many
// goroutines; any worker count gives a bit-identical result, because
// message delivery order is canonical and no state crosses shard
// boundaries.
type GPU struct {
	cfg     Config
	cluster *sim.Cluster
	smShard *sim.Shard
	eng     *sim.Engine // SM-side engine (smShard's); warps schedule here
	xbar    sim.Cycle   // effective interconnect latency (≥ 1, the lookahead)
	il      *geom.Interleaver
	wl      Workload
	parts   []*partition
	sms     []*smCtx
	warps   []*warpCtx

	// coalesceBuf is the SM shard's reusable sector-dedup scratch; see
	// coalesce for the aliasing contract.
	coalesceBuf []geom.Addr

	// The SM shard's request-record free lists. Load records return with
	// their response; store records end on a partition and come back
	// between windows (reclaimStores).
	loadCtxs    sim.FreeList[loadCtx]
	sectorLoads sim.FreeList[sectorLoad]
	storeReqs   sim.FreeList[storeReq]

	issued      uint64
	loads       uint64
	stores      uint64
	activeWarps int
	budgetDone  bool

	// protected is the partition-local protected size every issued
	// address must stay below. fault is the first address past it: it
	// stops issue and fails the run.
	protected uint64
	fault     error

	// Checkpoint state (see checkpoint.go). While draining, fetch parks
	// warps instead of issuing; parked records the park order, which is
	// part of the deterministic-replay contract. restoredParked seeds the
	// first window of a resumed run; nextCkpt is the next checkpoint
	// trigger cycle when cfg.CheckpointEvery > 0.
	draining       bool
	parked         []*warpCtx
	restoredParked []int
	nextCkpt       uint64

	// Fault-injection schedule (see tamper.go). tamperApplied is the
	// count of ops already applied; it is part of the snapshot so a
	// resumed run does not re-apply ops its snapshot already contains.
	tamperOps     []TamperOp
	tamperApplied int

	// issueTap, when set, observes every instruction the moment it is
	// issued (after the workload hands it out, before any scheduling) —
	// the hook trace capture records the real issued stream through. Not
	// simulation state: a capturing caller re-registers it after resume.
	issueTap func(warp int, inst Inst)
}

// SetIssueTap registers fn to observe every issued instruction in issue
// order, or removes the tap when fn is nil. The tap sees exactly what
// execute sees — including streams shortened by instruction budgets or
// altered scheduling under tamper plans — so a capture of a run is the
// run. fn must not retain inst.Addrs past the call.
func (g *GPU) SetIssueTap(fn func(warp int, inst Inst)) { g.issueTap = fn }

// partition is one memory-side shard. All fields are owned by the
// partition's goroutine during a window; the SM side may only reach them
// through mailbox messages.
type partition struct {
	//simlint:ignore snapsym construction wiring: the section name carries the id, New rebuilds it
	id int
	//simlint:ignore snapsym construction wiring, rebuilt by New
	gpu *GPU
	//simlint:ignore snapsym construction wiring, rebuilt by New
	shard  *sim.Shard
	eng    *sim.Engine // partition-local engine (shard's)
	l2     *cache.Cache
	l2data l2Data
	sec    *secmem.Engine
	ch     *dram.Channel
	st     *stats.Stats
	l2Free sim.Cycle // L2 bank single-issue ladder
	// mshrWait queues requests blocked on a full L2 MSHR file; they are
	// released when a fill frees an entry (no polling).
	//simlint:ignore snapsym holds closures, empty by the quiescence invariant when snapshots are taken
	mshrWait sim.FuncQueue
	// woken holds the requests released from mshrWait, in release
	// order, until their retry events run.
	//simlint:ignore snapsym holds closures, empty whenever the partition's event queue is
	woken sim.FuncQueue
	// retryFn is p.retry, bound once by New.
	//simlint:ignore snapsym construction wiring, rebuilt by New
	retryFn func()
	// fills is the partition's free list of L2 fill records.
	//simlint:ignore snapsym request scratch: every record is back on its list when a drained partition is walked
	fills sim.FreeList[l2Fill]
	// spent holds the store records this partition finished with in the
	// current window, for the run loop to hand back to the SM shard.
	//simlint:ignore snapsym request scratch, reclaimed after every window
	spent []*storeReq
	// initBuf is InitData's result buffer.
	//simlint:ignore snapsym per-call scratch, dead between calls
	initBuf [geom.SectorSize]byte
	// l2Order is the L2 data walk's sort scratch, reused across
	// snapshots; no snapshot holds it.
	l2Order []l2Sector
}

// releaseMSHRWaiters wakes as many blocked requests as there are free
// MSHR entries (waking more would only re-park them); each retries a
// cycle later. Fill completions call it; so does the last woken request
// when no fill is left to complete (retry).
//
//simlint:hotpath
func (p *partition) releaseMSHRWaiters() {
	n := p.l2.FreeMSHRs()
	if m := p.mshrWait.Len(); n > m {
		n = m
	}
	for ; n > 0; n-- {
		p.woken.Push(p.mshrWait.Pop())
		p.eng.Schedule(1, p.retryFn)
	}
}

// retry re-runs the oldest woken request; retry events run in release
// order, since all are scheduled one cycle out. Only fill completions
// wake parked requests, so when a woken request takes no MSHR (it hits
// or merges), no fill is in flight and no other woken request is
// pending, the requests still parked would wait for some later miss's
// fill, or forever: the next are woken here instead. With no fill in
// flight every MSHR is free, so they make progress.
//
//simlint:hotpath
func (p *partition) retry() {
	p.woken.Pop()()
	if p.mshrWait.Len() != 0 && p.woken.Len() == 0 && p.fills.Out() == 0 {
		p.releaseMSHRWaiters()
	}
}

// l2Data is an L2's plaintext, allocated once at the L2's capacity: one
// BlockSize run per cache line, in line order. A sector's bytes are its
// block's data while the block's line holds the sector valid, and stale
// otherwise; nothing reads an invalid sector.
type l2Data []byte

// sector returns the bytes of address a's sector in line.
//
//simlint:hotpath
func (d l2Data) sector(line int, a geom.Addr) []byte {
	o := line*geom.BlockSize + int(a%geom.BlockSize)&^(geom.SectorSize-1)
	return d[o : o+geom.SectorSize : o+geom.SectorSize]
}

type smCtx struct {
	// slotFree is the next free issue slot, in units of 1/IssueWidth
	// cycle, so multi-issue SMs are modelled without fractional cycles.
	slotFree uint64
}

type warpCtx struct {
	id, sm      int
	active      bool
	outstanding int  // loads in flight
	blocked     bool // stalled on MaxPendingLoads
	// inst is the fetched instruction awaiting its issue slot: a warp has
	// at most one fetch→execute in flight.
	inst Inst
	// g.fetch(w) and g.execute(w), bound once by New.
	fetchFn, executeFn func()
}

// loadCtx tracks one load instruction's outstanding sectors.
type loadCtx struct {
	w         *warpCtx
	remaining int
}

//go:noinline
func (g *GPU) newLoadCtx() *loadCtx { return &loadCtx{} }

// sectorLoad is one load sector's round trip across the interconnect:
// SM → partition L2 (and secure memory on a miss) → SM. It comes from
// the SM shard's free list and returns there when its response arrives;
// the partition only borrows it in between.
type sectorLoad struct {
	g     *GPU
	p     *partition
	lc    *loadCtx
	local geom.Addr
	// Steps bound once by newSectorLoad.
	loadFn, l2LoadFn, respondFn, arriveFn func()
}

//go:noinline
func (g *GPU) newSectorLoad() *sectorLoad {
	s := &sectorLoad{g: g}
	s.loadFn, s.l2LoadFn, s.respondFn, s.arriveFn = s.load, s.l2Load, s.respond, s.arrive
	return s
}

// storeReq is one store sector carried from the SM to its partition. It
// comes from the SM shard's free list and ends on the partition, whose
// spent list the run loop hands back between windows.
type storeReq struct {
	p     *partition
	local geom.Addr
	data  [geom.SectorSize]byte
	// Steps bound once by newStoreReq.
	storeFn, writeFn func()
}

//go:noinline
func (g *GPU) newStoreReq() *storeReq {
	st := &storeReq{}
	st.storeFn, st.writeFn = st.store, st.write
	return st
}

// l2Fill is one L2 miss waiting for its secure read. It is owned by the
// partition that issued it.
type l2Fill struct {
	p      *partition
	m      cache.MSHR
	need   geom.SectorMask
	local  geom.Addr
	readFn func(secmem.ReadResult) // f.read, bound once by newL2Fill
}

//go:noinline
func (p *partition) newL2Fill() *l2Fill {
	f := &l2Fill{p: p}
	f.readFn = f.read
	return f
}

// New builds a GPU running workload wl under cfg.
func New(cfg Config, wl Workload) (*GPU, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	il, err := geom.NewInterleaver(cfg.Partitions)
	if err != nil {
		return nil, err
	}
	g := &GPU{cfg: cfg, il: il, wl: wl}
	g.loadCtxs.New, g.sectorLoads.New, g.storeReqs.New = g.newLoadCtx, g.newSectorLoad, g.newStoreReq
	// The interconnect latency is the PDES lookahead; a zero-latency
	// crossbar is modelled as one cycle so the window stays positive.
	g.xbar = cfg.XbarLatency
	if g.xbar < 1 {
		g.xbar = 1
	}
	// Shard 0 is the SM side; shards 1..Partitions are the partitions.
	g.cluster = sim.NewCluster(1+cfg.Partitions, g.xbar, cfg.Workers)
	g.smShard = g.cluster.Shard(0)
	g.eng = g.smShard.Engine()

	for p := 0; p < cfg.Partitions; p++ {
		shard := g.cluster.Shard(1 + p)
		part := &partition{
			id:    p,
			gpu:   g,
			shard: shard,
			eng:   shard.Engine(),
			st:    &stats.Stats{},
		}
		part.l2 = cache.MustNew(cache.Config{
			Name:      fmt.Sprintf("l2.%d", p),
			SizeBytes: cfg.L2PerPartition,
			BlockSize: geom.BlockSize,
			Ways:      cfg.L2Ways,
			MSHRs:     cfg.L2MSHRs,
		})
		part.l2data = make(l2Data, cfg.L2PerPartition)
		part.ch = dram.MustNew(cfg.DRAM, part.eng, &part.st.Traffic)
		sec := cfg.Sec
		part.sec, err = secmem.New(sec, part.eng, part.ch, part.st)
		if err != nil {
			return nil, err
		}
		part.fills.New = part.newL2Fill
		part.retryFn = part.retry
		part.sec.InitData = part.initData
		p := p
		if src, ok := wl.(secmem.StreamCursorSource); ok {
			part.sec.StreamHint = func(local geom.Addr) (uint64, bool) {
				return src.StreamCursor(il.GlobalAddr(p, local))
			}
		}
		g.parts = append(g.parts, part)
	}
	g.protected = g.parts[0].sec.Config().ProtectedBytes

	g.sms = make([]*smCtx, cfg.SMs)
	for i := range g.sms {
		g.sms[i] = &smCtx{}
	}
	n := wl.Warps()
	g.warps = make([]*warpCtx, n)
	for w := 0; w < n; w++ {
		wc := &warpCtx{id: w, sm: w % cfg.SMs, active: true}
		wc.fetchFn = func() { g.fetch(wc) }
		wc.executeFn = func() { g.execute(wc) }
		g.warps[w] = wc
	}
	g.activeWarps = n
	return g, nil
}

// initData is the partition's secmem.Engine.InitData: the workload's
// initial contents of partition-local sector local, in initBuf.
func (p *partition) initData(local geom.Addr) []byte {
	wl := p.gpu.wl
	global := p.gpu.il.GlobalAddr(p.id, local)
	for k := 0; k < geom.SectorSize/4; k++ {
		v := wl.MemValue(global + geom.Addr(k*4))
		p.initBuf[k*4] = byte(v)
		p.initBuf[k*4+1] = byte(v >> 8)
		p.initBuf[k*4+2] = byte(v >> 16)
		p.initBuf[k*4+3] = byte(v >> 24)
	}
	return p.initBuf[:]
}

// fetch advances warp w to its next instruction.
//
//simlint:hotpath
func (g *GPU) fetch(w *warpCtx) {
	if !w.active || g.fault != nil {
		return
	}
	if g.draining {
		// Epoch drain: park instead of issuing. The workload cursor is
		// untouched, so the parked warp's next instruction is exactly the
		// one it will fetch after the checkpoint (or after resume).
		g.parked = append(g.parked, w)
		return
	}
	if g.budgetDone {
		g.retire(w)
		return
	}
	inst, ok := g.wl.Next(w.id)
	if !ok {
		g.retire(w)
		return
	}
	for _, a := range inst.Addrs {
		if uint64(g.il.LocalAddr(a)) >= g.protected {
			g.addressFault(w, a)
			return
		}
	}
	g.issued++
	if g.issueTap != nil {
		g.issueTap(w.id, inst)
	}
	if g.cfg.MaxInstructions > 0 && g.issued >= g.cfg.MaxInstructions {
		g.budgetDone = true
	}

	// Reserve an issue slot on the warp's SM.
	sm := g.sms[w.sm]
	now := g.eng.Now()
	slotNow := uint64(now) * uint64(g.cfg.IssueWidth)
	if sm.slotFree < slotNow {
		sm.slotFree = slotNow
	}
	t := sim.Cycle(sm.slotFree / uint64(g.cfg.IssueWidth))
	sm.slotFree++

	w.inst = inst
	g.eng.Schedule(t-now, w.executeFn)
}

// addressFault stops issue: warp w addressed a past the protected space.
//
//go:noinline
func (g *GPU) addressFault(w *warpCtx, a geom.Addr) {
	g.fault = fmt.Errorf("gpusim: %s: warp %d address %#x is past the protected space (%d bytes per partition)",
		g.wl.Name(), w.id, uint64(a), g.protected)
}

// execute runs warp w's fetched instruction at its issue slot.
//
//simlint:hotpath
func (g *GPU) execute(w *warpCtx) {
	inst := &w.inst
	switch inst.Kind {
	case Compute:
		c := inst.Cycles
		if c < 1 {
			c = 1
		}
		g.eng.Schedule(sim.Cycle(c), w.fetchFn)
	case Load:
		g.loads++
		sectors := g.coalesce(inst.Addrs)
		if len(sectors) == 0 {
			g.eng.Schedule(1, w.fetchFn)
			return
		}
		w.outstanding++
		lc := g.loadCtxs.Get()
		lc.w, lc.remaining = w, len(sectors)
		for _, s := range sectors {
			g.routeLoad(lc, s)
		}
		// Warps tolerate several loads in flight (intra-warp MLP); they
		// stall only at the MLP limit.
		if w.outstanding < g.cfg.MaxPendingLoads {
			g.eng.Schedule(1, w.fetchFn)
		} else {
			w.blocked = true
		}
	case Store:
		g.stores++
		for _, s := range g.coalesce(inst.Addrs) {
			g.routeStore(w, s)
		}
		// Stores retire immediately (write-back hierarchy absorbs them).
		g.eng.Schedule(1, w.fetchFn)
	}
}

func (g *GPU) retire(w *warpCtx) {
	if w.active {
		w.active = false
		g.activeWarps--
	}
}

// coalesce reduces per-thread addresses to their unique sectors,
// preserving first-touch order. The result aliases a scratch buffer
// owned by the SM shard and is only valid until the next coalesce call;
// callers consume it synchronously (the request records copy sector
// addresses, never the slice). Warps are a few dozen threads wide, so a
// linear dedup scan beats a per-instruction map.
func (g *GPU) coalesce(addrs []geom.Addr) []geom.Addr {
	out := g.coalesceBuf[:0]
	for _, a := range addrs {
		s := geom.SectorAddr(a)
		dup := false
		for _, u := range out {
			if u == s {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, s)
		}
	}
	g.coalesceBuf = out
	return out
}

// routeLoad sends a load sector request across the interconnect: a
// mailbox message to the owning partition's shard, whose response is a
// mailbox message back to the SM shard (the sectorLoad steps).
//
//simlint:hotpath
func (g *GPU) routeLoad(lc *loadCtx, sector geom.Addr) {
	s := g.sectorLoads.Get()
	s.p, s.lc, s.local = g.parts[g.il.Partition(sector)], lc, g.il.LocalAddr(sector)
	g.smShard.Send(s.p.shard, g.xbar, s.loadFn)
}

// load services the sector at its partition's L2 bank, which issues one
// access per cycle.
//
//simlint:hotpath
func (s *sectorLoad) load() {
	p := s.p
	now := p.eng.Now()
	t := now
	if p.l2Free > t {
		t = p.l2Free
	}
	p.l2Free = t + 1
	p.eng.Schedule(t-now, s.l2LoadFn)
}

// l2Load looks the sector up in the L2; it is also the retry of a load
// parked on a full MSHR file.
//
//simlint:hotpath
func (s *sectorLoad) l2Load() {
	p := s.p
	out, need, m := p.l2.Lookup(s.local, geom.MaskFor(s.local), false, s.respondFn)
	switch out {
	case cache.Hit:
		p.eng.Schedule(p.gpu.cfg.L2HitLatency, s.respondFn)
	case cache.Miss:
		f := p.fills.Get()
		f.m, f.need, f.local = m, need, s.local
		p.sec.Read(s.local, f.readFn)
	case cache.MissNoMSHR:
		p.mshrWait.Push(s.l2LoadFn)
	}
}

// respond sends the sector's response back across the interconnect.
//
//simlint:hotpath
func (s *sectorLoad) respond() { s.p.shard.Send(s.g.smShard, s.g.xbar, s.arriveFn) }

// arrive accounts the response on the SM shard, where the record is
// freed; the load's last sector unblocks its warp.
//
//simlint:hotpath
func (s *sectorLoad) arrive() {
	g, lc := s.g, s.lc
	s.p, s.lc = nil, nil
	g.sectorLoads.Put(s)
	lc.remaining--
	if lc.remaining != 0 {
		return
	}
	w := lc.w
	lc.w = nil
	g.loadCtxs.Put(lc)
	w.outstanding--
	if w.blocked {
		w.blocked = false
		g.fetch(w)
	}
}

// read installs a secure read's data and completes the L2 fill. The
// victim the fill displaces is written back from its line before the
// fill's data lands there.
//
//simlint:hotpath
func (f *l2Fill) read(res secmem.ReadResult) {
	p, m, need, sa := f.p, f.m, f.need, geom.SectorAddr(f.local)
	p.fills.Put(f)
	// A store may have raced ahead of this fill; its dirty data is newer
	// than what memory returned.
	fresh := p.l2.DirtyMask(sa)&geom.MaskFor(sa) == 0
	ev, evicted, ws, done := p.l2.FillSectors(m, need, false)
	if evicted {
		p.handleL2Eviction(ev)
	}
	if fresh {
		line, _ := p.l2.Line(sa) // the fill installed sa's sector
		copy(p.l2data.sector(line, sa), res.Data[:])
	}
	if done {
		p.l2.Wake(ws)
		p.releaseMSHRWaiters()
	}
}

// routeStore sends a store across the interconnect, materializing the
// sector's store data from the workload on the SM side (Workload.Next
// and StoreValue are only ever called from the SM shard).
//
//simlint:hotpath
func (g *GPU) routeStore(w *warpCtx, sector geom.Addr) {
	st := g.storeReqs.Get()
	st.p, st.local = g.parts[g.il.Partition(sector)], g.il.LocalAddr(sector)
	for k := 0; k < geom.SectorSize/4; k++ {
		v := g.wl.StoreValue(w.id, sector+geom.Addr(k*4))
		st.data[k*4] = byte(v)
		st.data[k*4+1] = byte(v >> 8)
		st.data[k*4+2] = byte(v >> 16)
		st.data[k*4+3] = byte(v >> 24)
	}
	g.smShard.Send(st.p.shard, g.xbar, st.storeFn)
}

// store services a store sector at its partition's L2 bank.
//
//simlint:hotpath
func (st *storeReq) store() {
	p := st.p
	now := p.eng.Now()
	t := now
	if p.l2Free > t {
		t = p.l2Free
	}
	p.l2Free = t + 1
	p.eng.Schedule(t-now, st.writeFn)
}

// write writes the sector into the L2: write-allocate without fetch
// (coalesced GPU stores cover whole sectors). The record then goes on
// the partition's spent list.
//
//simlint:hotpath
func (st *storeReq) write() {
	p, local := st.p, st.local
	mask := geom.MaskFor(local)
	// Stores must not allocate MSHRs (nothing will ever fill them): hit →
	// mark dirty in place; miss → write-allocate without fetch.
	if p.l2.Probe(local)&mask == mask {
		p.l2.MarkDirty(local, mask)
		p.l2.Stats.Hits++
	} else {
		p.l2.Stats.Misses++
		if ev, evicted := p.l2.Insert(local, mask, true); evicted {
			p.handleL2Eviction(ev)
		}
	}
	line, _ := p.l2.Line(local) // resident: hit, or just inserted
	copy(p.l2data.sector(line, local), st.data[:])
	st.p = nil
	p.spent = append(p.spent, st)
}

// reclaimStores hands every store record the partitions finished with
// back to the SM shard's free list. It runs between windows, when no
// shard executes.
func (g *GPU) reclaimStores() {
	for _, p := range g.parts {
		for i, st := range p.spent {
			g.storeReqs.Put(st)
			p.spent[i] = nil
		}
		p.spent = p.spent[:0]
	}
}

// handleL2Eviction writes back the dirty sectors of an evicted L2 block
// from the line it left. Writeback copies each sector before returning,
// so the incoming block may overwrite the line afterwards.
//
//simlint:hotpath
func (p *partition) handleL2Eviction(ev cache.Eviction) {
	for s := 0; s < geom.SectorsPerBlock; s++ {
		if ev.Dirty.Has(s) {
			sa := ev.Addr + geom.Addr(s*geom.SectorSize)
			p.sec.Writeback(sa, p.l2data.sector(ev.Line, sa), nil)
		}
	}
}

// flushL2 writes back all remaining dirty L2 sectors at end of run.
func (p *partition) flushL2() {
	p.l2.WalkLines(func(line int, block geom.Addr, _, dirty geom.SectorMask) {
		if dirty == 0 {
			return
		}
		dirty.Sectors(func(s int) {
			sa := block + geom.Addr(s*geom.SectorSize)
			p.sec.Writeback(sa, p.l2data.sector(line, sa), nil)
		})
		p.l2.CleanSectors(block, dirty)
	})
}
