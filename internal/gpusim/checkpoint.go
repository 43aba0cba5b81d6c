package gpusim

import (
	"cmp"
	"fmt"
	"slices"

	"github.com/plutus-gpu/plutus/internal/cache"
	"github.com/plutus-gpu/plutus/internal/checkpoint"
	"github.com/plutus-gpu/plutus/internal/geom"
	"github.com/plutus-gpu/plutus/internal/sim"
	"github.com/plutus-gpu/plutus/internal/stats"
)

// CheckpointSink receives each snapshot taken during a checkpointed run,
// with the quiescent cycle it was taken at. A non-nil error aborts the
// run and is returned from RunWithCheckpoints; returning an error that
// wraps checkpoint.ErrPreempted is the sanctioned way to park a run for
// later resumption.
type CheckpointSink func(cycle uint64, snapshot []byte) error

// Snapshot section layout. The file is a checkpoint.File with:
//
//	"meta"      fingerprint string, snapshot cycle, next trigger, partition count
//	"gpu"       SM engine clock, issue counters, SM/warp contexts, parked order, applied-tamper index
//	"workload"  per-warp stream cursor
//	"part<i>"   partition engine clock, L2 ladder, L2 tags+data, secmem, DRAM, stats
//
// All sections are fixed field orders over quiescent state; two snapshots
// of identical simulator state are identical bytes.

// configFingerprint identifies the (configuration, workload) pair a
// snapshot belongs to. Workers is excluded: every worker count executes
// bit-identically by construction, so a snapshot taken at one is valid
// to resume at any other.
func configFingerprint(cfg Config, wl Workload) string {
	fp := cfg
	fp.Workers = 0
	return fmt.Sprintf("%+v|wl=%s|warps=%d", fp, wl.Name(), wl.Warps())
}

// Run executes the workload to completion (or budget exhaustion) and
// returns the merged statistics. Per-shard statistics are merged in
// partition order at the end, so the result is deterministic regardless
// of execution mode. With Config.CheckpointEvery set, epoch drains still
// occur (keeping timing identical to a sink-driven run at the same
// cadence) but no snapshots are built. Run panics on any error
// RunWithCheckpoints would return; callers replaying untrusted streams
// use RunWithCheckpoints(nil).
func (g *GPU) Run() *stats.Stats {
	st, err := g.RunWithCheckpoints(nil)
	if err != nil {
		panic(fmt.Sprintf("gpusim: %v", err))
	}
	return st
}

// RunWithCheckpoints is Run with a checkpoint sink. When
// Config.CheckpointEvery is nonzero, the run drains to quiescence each
// time the clock passes another multiple of that cadence, snapshots the
// complete simulator state, and hands it to sink (if non-nil). If sink
// returns an error the run stops immediately — still quiescent, with the
// just-written snapshot as its resumable state — and that error is
// returned. An instruction addressing memory past the protected space
// stops issue, and the run fails with that error without taking another
// snapshot. A run that ends with a request record still out or a load
// still parked on a full MSHR file fails with ErrNotQuiescent: such a
// request was stranded, and the statistics would leave it out.
func (g *GPU) RunWithCheckpoints(sink CheckpointSink) (*stats.Stats, error) {
	defer g.cluster.Close()
	if g.cfg.CheckpointEvery > 0 && g.nextCkpt == 0 {
		g.nextCkpt = g.cfg.CheckpointEvery
	}
	g.seedWork()

	// 2^34 events is far beyond any legitimate run; treat as livelock.
	var n uint64
	for {
		ran := g.cluster.RunWindow()
		g.reclaimStores()
		if ran == 0 {
			break
		}
		n += ran
		if n >= 1<<34 {
			panic("gpusim: event livelock")
		}
		if g.fault != nil {
			return nil, g.fault
		}
		// Fault injections land here, between windows, so the mutation
		// point is deterministic and precedes any snapshot taken below.
		g.applyDueTamper(false)
		if g.cfg.CheckpointEvery > 0 && uint64(g.cluster.LastEventAt()) >= g.nextCkpt {
			if err := g.takeCheckpoint(sink); err != nil {
				return nil, err
			}
		}
	}

	// Apply any ops the budget never reached: the injected-op ground
	// truth must match the plan, not how far the workload got.
	g.applyDueTamper(true)

	// Final writeback accounting: flush dirty L2, then dirty metadata.
	// Each flush runs on its partition's own shard (and hence in
	// parallel when Config.Workers > 1), with a full drain between the
	// phases.
	for _, p := range g.parts {
		p := p
		p.eng.Schedule(0, func() { p.flushL2() })
	}
	g.cluster.Run(1 << 30)
	for _, p := range g.parts {
		p := p
		p.eng.Schedule(0, func() { p.sec.FlushDirtyMetadata() })
	}
	g.cluster.Run(1 << 30)
	if err := g.requestsError(); err != nil {
		return nil, fmt.Errorf("gpusim: run ended with requests in flight: %w", err)
	}

	out := &stats.Stats{
		Benchmark:    g.wl.Name(),
		Scheme:       g.cfg.Sec.Scheme,
		Cycles:       uint64(g.cluster.LastEventAt()),
		Instructions: g.issued,
		MemInsts:     g.loads + g.stores,
		LoadInsts:    g.loads,
		StoreInsts:   g.stores,
	}
	for _, p := range g.parts {
		p.sec.FinishStats()
		p.st.L2 = p.l2.Stats
		// A partition's record never holds cycles or instruction counts,
		// so Merge adds only its traffic, security and cache counters.
		out.Merge(p.st)
	}
	return out, nil
}

// seedWork schedules the first fetch of every runnable warp: all active
// warps in warp order on a fresh GPU, or the recorded park order on a
// resumed one. The two produce the same event sequence because a
// checkpointed run unparks in park order at the same clock.
func (g *GPU) seedWork() {
	if g.restoredParked != nil {
		for _, id := range g.restoredParked {
			g.eng.Schedule(0, g.warps[id].fetchFn)
		}
		g.restoredParked = nil
		return
	}
	for _, w := range g.warps {
		g.eng.Schedule(0, w.fetchFn)
	}
}

// takeCheckpoint drains to quiescence, snapshots, invokes the sink, and
// resumes the parked warps. On sink error the warps stay parked and the
// error is propagated (the run is abandoned in its resumable state).
func (g *GPU) takeCheckpoint(sink CheckpointSink) error {
	g.draining = true
	for g.cluster.RunWindow() != 0 {
		g.reclaimStores()
	}
	g.draining = false
	if err := g.quiescenceError(); err != nil {
		return err
	}
	// Advance the trigger before snapshotting so a resumed run continues
	// with the same next-checkpoint target as this one.
	last := uint64(g.cluster.LastEventAt())
	for g.nextCkpt <= last {
		g.nextCkpt += g.cfg.CheckpointEvery
	}
	if sink != nil {
		data, err := g.WriteSnapshot()
		if err != nil {
			return err
		}
		if err := sink(last, data); err != nil {
			return err
		}
	}
	for _, w := range g.parked {
		g.eng.Schedule(0, w.fetchFn)
	}
	g.parked = g.parked[:0]
	return nil
}

// quiescenceError verifies the drained-epoch invariants: every active
// warp is parked with no loads in flight, and requestsError holds. Any
// violation is a simulator bug, reported as ErrNotQuiescent.
func (g *GPU) quiescenceError() error {
	parked := make(map[int]bool, len(g.parked))
	for _, w := range g.parked {
		parked[w.id] = true
	}
	for _, w := range g.warps {
		switch {
		case w.active && (w.outstanding != 0 || w.blocked):
			return fmt.Errorf("gpusim: warp %d drained with %d loads in flight (blocked=%v): %w",
				w.id, w.outstanding, w.blocked, checkpoint.ErrNotQuiescent)
		case w.active != parked[w.id]:
			return fmt.Errorf("gpusim: warp %d active=%v but parked=%v: %w",
				w.id, w.active, parked[w.id], checkpoint.ErrNotQuiescent)
		}
	}
	return g.requestsError()
}

// requestsError verifies that every request record is back on its free
// list and that no partition holds in-flight misses, pending
// secure-memory requests, or MSHR waiters. A drained epoch and the end
// of a run both require it; a violation is ErrNotQuiescent.
func (g *GPU) requestsError() error {
	if n := g.loadCtxs.Out() + g.sectorLoads.Out() + g.storeReqs.Out(); n != 0 {
		return fmt.Errorf("gpusim: %d SM request records are not back on their free lists: %w",
			n, checkpoint.ErrNotQuiescent)
	}
	for _, p := range g.parts {
		switch {
		case p.fills.Out() != 0:
			return fmt.Errorf("gpusim: partition %d has %d L2 fill records in flight: %w",
				p.id, p.fills.Out(), checkpoint.ErrNotQuiescent)
		case p.l2.InflightMisses() != 0:
			return fmt.Errorf("gpusim: partition %d has %d in-flight L2 misses: %w",
				p.id, p.l2.InflightMisses(), checkpoint.ErrNotQuiescent)
		case p.sec.Pending() != 0:
			return fmt.Errorf("gpusim: partition %d has %d pending secmem requests: %w",
				p.id, p.sec.Pending(), checkpoint.ErrNotQuiescent)
		case p.mshrWait.Len() != 0:
			return fmt.Errorf("gpusim: partition %d has %d MSHR waiters: %w",
				p.id, p.mshrWait.Len(), checkpoint.ErrNotQuiescent)
		}
	}
	return nil
}

// WriteSnapshot serializes the complete simulator state as a
// self-describing snapshot file. The GPU must be quiescent (drained epoch
// boundary); RunWithCheckpoints arranges that before calling it.
func (g *GPU) WriteSnapshot() ([]byte, error) {
	f := &checkpoint.File{}
	for _, s := range g.sections() {
		data, err := checkpoint.Marshal(s.walk)
		if err != nil {
			return nil, err
		}
		f.Add(s.name, data)
	}
	return f.Encode(), nil
}

// ResumeSnapshot builds a GPU from cfg and wl and restores the state in
// data, a snapshot previously produced by WriteSnapshot under the same
// configuration and workload (execution mode aside — see
// configFingerprint). The returned GPU continues from the snapshot's
// cycle when run; by the deterministic-replay guarantee its remaining
// execution, statistics, and later snapshots are byte-identical to the
// run the snapshot was taken from. On any error the half-restored GPU is
// discarded.
func ResumeSnapshot(cfg Config, wl Workload, data []byte) (*GPU, error) {
	f, err := checkpoint.Decode(data)
	if err != nil {
		return nil, err
	}
	g, err := New(cfg, wl)
	if err != nil {
		return nil, err
	}
	for _, s := range g.sections() {
		payload, ok := f.Section(s.name)
		if !ok {
			return nil, fmt.Errorf("gpusim: snapshot missing section %q: %w", s.name, checkpoint.ErrCorrupt)
		}
		if err := checkpoint.Unmarshal(payload, s.walk); err != nil {
			return nil, fmt.Errorf("gpusim: %s section: %w", s.name, err)
		}
	}
	return g, nil
}

// section is one named walk of the snapshot file.
type section struct {
	name string
	walk func(*checkpoint.Codec)
}

// sections lists the snapshot's sections in file order.
func (g *GPU) sections() []section {
	out := []section{{"meta", g.metaCodec}, {"gpu", g.gpuCodec}, {"workload", g.workloadCodec}}
	for _, p := range g.parts {
		out = append(out, section{fmt.Sprintf("part%d", p.id), p.Codec})
	}
	return out
}

// metaCodec walks the "meta" section. A snapshot taken under another
// configuration or workload fails with ErrMismatch.
func (g *GPU) metaCodec(c *checkpoint.Codec) {
	want := configFingerprint(g.cfg, g.wl)
	fp := want
	c.String(&fp)
	if fp != want {
		c.Fail(fmt.Errorf("gpusim: snapshot is for a different configuration or workload:\n  snapshot: %s\n  current:  %s\n%w",
			fp, want, checkpoint.ErrMismatch))
	}
	cycle := uint64(g.cluster.LastEventAt())
	c.U64(&cycle) // recorded for readers; the engine clocks carry the time
	c.U64(&g.nextCkpt)
	c.Want32("gpusim partitions", uint32(len(g.parts)))
}

// gpuCodec walks the "gpu" section. Decoding fills restoredParked, the
// order seedWork unparks in.
func (g *GPU) gpuCodec(c *checkpoint.Codec) {
	walkClock(c, g.eng)
	c.U64(&g.issued)
	c.U64(&g.loads)
	c.U64(&g.stores)
	checkpoint.Uint64(c, &g.activeWarps)
	c.Bool(&g.budgetDone)
	c.Want32("gpusim SMs", uint32(len(g.sms)))
	for _, sm := range g.sms {
		c.U64(&sm.slotFree)
	}
	c.Want32("gpusim warps", uint32(len(g.warps)))
	for _, w := range g.warps {
		c.Bool(&w.active)
	}
	parked := make([]int, len(g.parked))
	for i, w := range g.parked {
		parked[i] = w.id
	}
	n := len(parked)
	c.Len32(&n, uint64(len(g.warps)), 4)
	if c.Decoding() {
		parked = make([]int, n)
		g.restoredParked = parked
	}
	for i := range parked {
		c.Index32(&parked[i], len(g.warps))
	}
	checkpoint.Uint32(c, &g.tamperApplied)
}

// workloadCodec walks the "workload" section, the per-warp stream
// cursor. Decoding rewinds the workload to it.
func (g *GPU) workloadCodec(c *checkpoint.Codec) {
	cur := g.wl.Cursor()
	n := len(cur)
	c.Len32(&n, uint64(len(cur)), 8)
	cur = cur[:n]
	for i := range cur {
		c.U64(&cur[i])
	}
	if c.Decoding() && c.Err() == nil {
		if err := g.wl.RestoreCursor(cur); err != nil {
			c.Fail(fmt.Errorf("gpusim: %v: %w", err, checkpoint.ErrMismatch))
		}
	}
}

// Codec walks one partition's complete mutable state: engine clock, L2
// issue ladder, L2 tags and data, secure-memory engine, DRAM channel,
// and statistics shard. L2 data addresses are bounded by the partition's
// protected space.
func (p *partition) Codec(c *checkpoint.Codec) {
	walkClock(c, p.eng)
	checkpoint.Uint64(c, &p.l2Free)
	p.l2.Codec(c)
	p.l2data.walk(c, p.l2, &p.l2Order, p.sec.Config().ProtectedBytes)
	p.sec.Codec(c)
	p.ch.Codec(c)
	p.st.Codec(c)
}

// l2Sector is one valid L2 sector in the data walk: its partition-local
// address and its line.
type l2Sector struct {
	addr uint64
	line int
}

// walk walks the data of every sector valid in l2 as a count, then
// (byte address, 32 B record) pairs in ascending address order; order is
// the encoding side's sort scratch. Decoding runs after l2's own walk.
// It fails with ErrCorrupt unless the addresses are strictly ascending
// sector addresses below limit, each naming a sector valid in the
// restored l2, and the count is l2's number of valid sectors — so a
// restored sector is valid exactly when it has data, as in a running
// partition.
func (d l2Data) walk(c *checkpoint.Codec, l2 *cache.Cache, order *[]l2Sector, limit uint64) {
	valid := 0
	l2.WalkLines(func(_ int, _ geom.Addr, v, _ geom.SectorMask) { valid += v.Count() })
	n := valid
	c.Len(&n, uint64(valid), 8+4+geom.SectorSize)
	if !c.Decoding() {
		o := (*order)[:0]
		l2.WalkLines(func(line int, block geom.Addr, v, _ geom.SectorMask) {
			v.Sectors(func(s int) {
				o = append(o, l2Sector{uint64(block) + uint64(s*geom.SectorSize), line})
			})
		})
		slices.SortFunc(o, func(a, b l2Sector) int { return cmp.Compare(a.addr, b.addr) })
		for _, e := range o {
			a := e.addr
			c.U64(&a)
			c.Bytes(d.sector(e.line, geom.Addr(a)))
		}
		*order = o
		return
	}
	if n != valid && c.Err() == nil {
		c.Corrupt("gpusim: L2 data holds %d sectors, the L2 has %d valid", n, valid)
	}
	var next uint64 // the lowest address the next record may name
	var discard [geom.SectorSize]byte
	for ; n > 0 && c.Err() == nil; n-- {
		var a uint64
		c.Index(&a, limit)
		dst := discard[:]
		line, ok := l2.Line(geom.Addr(a))
		switch {
		case c.Err() != nil:
		case a%geom.SectorSize != 0 || a < next:
			c.Corrupt("gpusim: L2 data address %#x is not a sector address at or above %#x", a, next)
		case !ok || l2.Probe(geom.Addr(a))&geom.MaskFor(geom.Addr(a)) == 0:
			c.Corrupt("gpusim: L2 data address %#x names no valid L2 sector", a)
		default:
			dst = d.sector(line, geom.Addr(a))
		}
		next = a + geom.SectorSize
		c.Bytes(dst)
	}
}

// walkClock walks an engine's clock; decoding restores it.
func walkClock(c *checkpoint.Codec, eng *sim.Engine) {
	now, last := eng.Clock()
	checkpoint.Uint64(c, &now)
	checkpoint.Uint64(c, &last)
	if c.Decoding() {
		eng.RestoreClock(now, last)
	}
}
