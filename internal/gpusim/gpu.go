package gpusim

import (
	"fmt"

	"github.com/plutus-gpu/plutus/internal/cache"
	"github.com/plutus-gpu/plutus/internal/dense"
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

	issued      uint64
	loads       uint64
	stores      uint64
	activeWarps int
	budgetDone  bool

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
	l2data dense.Sectors // by local sector index → plaintext
	sec    *secmem.Engine
	ch     *dram.Channel
	st     *stats.Stats
	l2Free sim.Cycle // L2 bank single-issue ladder
	// mshrWait queues requests blocked on a full L2 MSHR file; they are
	// released when a fill frees an entry (no polling).
	//simlint:ignore snapsym holds closures, empty by the quiescence invariant when snapshots are taken
	mshrWait sim.FuncQueue
}

// releaseMSHRWaiters wakes as many blocked requests as there are free
// MSHR entries (waking more would only re-park them).
func (p *partition) releaseMSHRWaiters() {
	n := p.l2.FreeMSHRs()
	if m := p.mshrWait.Len(); n > m {
		n = m
	}
	for ; n > 0; n-- {
		p.eng.Schedule(1, p.mshrWait.Pop())
	}
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
}

// loadCtx tracks one load instruction's outstanding sectors.
type loadCtx struct {
	remaining int
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
		part.ch = dram.MustNew(cfg.DRAM, part.eng, &part.st.Traffic)
		sec := cfg.Sec
		part.sec, err = secmem.New(sec, part.eng, part.ch, part.st)
		if err != nil {
			return nil, err
		}
		p := p
		part.sec.InitData = func(local geom.Addr) []byte {
			buf := make([]byte, geom.SectorSize)
			global := il.GlobalAddr(p, local)
			for k := 0; k < geom.SectorSize/4; k++ {
				v := wl.MemValue(global + geom.Addr(k*4))
				buf[k*4] = byte(v)
				buf[k*4+1] = byte(v >> 8)
				buf[k*4+2] = byte(v >> 16)
				buf[k*4+3] = byte(v >> 24)
			}
			return buf
		}
		if src, ok := wl.(secmem.StreamCursorSource); ok {
			part.sec.StreamHint = func(local geom.Addr) (uint64, bool) {
				return src.StreamCursor(il.GlobalAddr(p, local))
			}
		}
		g.parts = append(g.parts, part)
	}

	g.sms = make([]*smCtx, cfg.SMs)
	for i := range g.sms {
		g.sms[i] = &smCtx{}
	}
	n := wl.Warps()
	g.warps = make([]*warpCtx, n)
	for w := 0; w < n; w++ {
		g.warps[w] = &warpCtx{id: w, sm: w % cfg.SMs, active: true}
	}
	g.activeWarps = n
	return g, nil
}

// fetch advances warp w to its next instruction.
func (g *GPU) fetch(w *warpCtx) {
	if !w.active {
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

	g.eng.Schedule(t-now, func() { g.execute(w, inst) })
}

// execute runs one instruction at its issue slot.
func (g *GPU) execute(w *warpCtx, inst Inst) {
	switch inst.Kind {
	case Compute:
		c := inst.Cycles
		if c < 1 {
			c = 1
		}
		g.eng.Schedule(sim.Cycle(c), func() { g.fetch(w) })
	case Load:
		g.loads++
		sectors := g.coalesce(inst.Addrs)
		if len(sectors) == 0 {
			g.eng.Schedule(1, func() { g.fetch(w) })
			return
		}
		w.outstanding++
		lc := &loadCtx{remaining: len(sectors)}
		for _, s := range sectors {
			g.routeLoad(w, lc, s)
		}
		// Warps tolerate several loads in flight (intra-warp MLP); they
		// stall only at the MLP limit.
		if w.outstanding < g.cfg.MaxPendingLoads {
			g.eng.Schedule(1, func() { g.fetch(w) })
		} else {
			w.blocked = true
		}
	case Store:
		g.stores++
		for _, s := range g.coalesce(inst.Addrs) {
			g.routeStore(w, s)
		}
		// Stores retire immediately (write-back hierarchy absorbs them).
		g.eng.Schedule(1, func() { g.fetch(w) })
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
// callers consume it synchronously (the interconnect closures capture
// sector values, never the slice). Warps are a few dozen threads wide,
// so a linear dedup scan beats a per-instruction map.
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
// mailbox message back to the SM shard. The closure that updates warp
// state is created here and executes on the SM shard only; the partition
// merely carries it.
func (g *GPU) routeLoad(w *warpCtx, lc *loadCtx, sector geom.Addr) {
	p := g.parts[g.il.Partition(sector)]
	local := g.il.LocalAddr(sector)
	g.smShard.Send(p.shard, g.xbar, func() {
		p.load(local, func() {
			// Response crosses back to the SM.
			p.shard.Send(g.smShard, g.xbar, func() {
				lc.remaining--
				if lc.remaining == 0 {
					w.outstanding--
					if w.blocked {
						w.blocked = false
						g.fetch(w)
					}
				}
			})
		})
	})
}

// routeStore sends a store across the interconnect, materializing the
// sector's store data from the workload on the SM side (Workload.Next
// and StoreValue are only ever called from the SM shard).
func (g *GPU) routeStore(w *warpCtx, sector geom.Addr) {
	p := g.parts[g.il.Partition(sector)]
	local := g.il.LocalAddr(sector)
	data := make([]byte, geom.SectorSize)
	for k := 0; k < geom.SectorSize/4; k++ {
		v := g.wl.StoreValue(w.id, sector+geom.Addr(k*4))
		data[k*4] = byte(v)
		data[k*4+1] = byte(v >> 8)
		data[k*4+2] = byte(v >> 16)
		data[k*4+3] = byte(v >> 24)
	}
	g.smShard.Send(p.shard, g.xbar, func() { p.store(local, data) })
}

// load services a load sector at the partition's L2.
func (p *partition) load(local geom.Addr, respond func()) {
	now := p.eng.Now()
	t := now
	if p.l2Free > t {
		t = p.l2Free
	}
	p.l2Free = t + 1
	p.eng.Schedule(t-now, func() { p.l2Load(local, respond) })
}

func (p *partition) l2Load(local geom.Addr, respond func()) {
	g := p.gpu
	mask := geom.MaskFor(local)
	out, need, m := p.l2.Lookup(local, mask, false, nil)
	switch out {
	case cache.Hit:
		p.eng.Schedule(g.cfg.L2HitLatency, respond)
	case cache.MissMerged:
		m.AddWaiter(respond)
	case cache.Miss:
		m.AddWaiter(respond)
		p.sec.Read(local, func(res secmem.ReadResult) {
			sa := geom.SectorAddr(local)
			// A store may have raced ahead of this fill; its dirty data
			// is newer than what memory returned.
			if p.l2.DirtyMask(sa)&geom.MaskFor(sa) == 0 {
				copy(p.l2data.Put(uint64(sa)/geom.SectorSize), res.Data)
			}
			evs, done, waiters := p.l2.FillSectors(m, need, false)
			p.handleL2Evictions(evs)
			if done {
				for _, fn := range waiters {
					fn()
				}
				p.releaseMSHRWaiters()
			}
		})
	case cache.MissNoMSHR:
		p.mshrWait.Push(func() { p.l2Load(local, respond) })
	}
}

// store services a store sector: write-allocate without fetch (coalesced
// GPU stores cover whole sectors).
func (p *partition) store(local geom.Addr, data []byte) {
	now := p.eng.Now()
	t := now
	if p.l2Free > t {
		t = p.l2Free
	}
	p.l2Free = t + 1
	p.eng.Schedule(t-now, func() {
		mask := geom.MaskFor(local)
		// Stores must not allocate MSHRs (nothing will ever fill them):
		// hit → mark dirty in place; miss → write-allocate without fetch
		// (coalesced GPU stores cover whole sectors).
		if p.l2.Probe(local)&mask == mask {
			p.l2.MarkDirty(local, mask)
			p.l2.Stats.Hits++
		} else {
			p.l2.Stats.Misses++
			evs := p.l2.Insert(local, mask, true)
			p.handleL2Evictions(evs)
		}
		copy(p.l2data.Put(uint64(geom.SectorAddr(local))/geom.SectorSize), data)
	})
}

// handleL2Evictions writes back dirty sectors of evicted L2 blocks.
func (p *partition) handleL2Evictions(evs []cache.Eviction) {
	for _, ev := range evs {
		for s := 0; s < geom.SectorsPerBlock; s++ {
			sa := ev.Addr + geom.Addr(s*geom.SectorSize)
			si := uint64(sa) / geom.SectorSize
			data, resident := p.l2data.Lookup(si)
			if ev.Dirty.Has(s) {
				if !resident {
					panic(fmt.Sprintf("gpusim: dirty L2 sector %#x has no data", sa))
				}
				// Writeback copies the sector before returning, so handing
				// it a slice aliasing the dense store is safe to delete.
				p.sec.Writeback(sa, data, nil)
			}
			p.l2data.Delete(si)
		}
	}
}

// flushL2 writes back all remaining dirty L2 sectors at end of run.
func (p *partition) flushL2() {
	p.l2.WalkDirty(func(block geom.Addr, dirty geom.SectorMask) {
		dirty.Sectors(func(s int) {
			sa := block + geom.Addr(s*geom.SectorSize)
			if data, ok := p.l2data.Lookup(uint64(sa) / geom.SectorSize); ok {
				p.sec.Writeback(sa, data, nil)
			}
		})
		p.l2.CleanSectors(block, dirty)
	})
}
