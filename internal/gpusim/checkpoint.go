package gpusim

import (
	"fmt"

	"github.com/plutus-gpu/plutus/internal/checkpoint"
	"github.com/plutus-gpu/plutus/internal/dense"
	"github.com/plutus-gpu/plutus/internal/geom"
	"github.com/plutus-gpu/plutus/internal/sim"
	"github.com/plutus-gpu/plutus/internal/stats"
)

// CheckpointableWorkload is the optional interface a Workload implements
// to participate in checkpoint/restore: the cursor is the complete
// mutable state of a deterministic instruction stream, so capturing it
// (plus the simulator state) captures the whole run.
type CheckpointableWorkload interface {
	Workload
	// Cursor returns a copy of the per-warp stream positions.
	Cursor() []uint64
	// RestoreCursor rewinds the stream to a previously captured cursor.
	RestoreCursor([]uint64) error
}

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
// cadence) but no snapshots are built.
func (g *GPU) Run() *stats.Stats {
	st, err := g.RunWithCheckpoints(nil)
	if err != nil {
		// With a nil sink the only error paths are invariant violations.
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
// returned.
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
		if ran == 0 {
			break
		}
		n += ran
		if n >= 1<<34 {
			panic("gpusim: event livelock")
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
		out.Traffic.Add(&p.st.Traffic)
		out.Sec.Add(&p.st.Sec)
		out.L2.Add(&p.st.L2)
		out.CounterCache.Add(&p.st.CounterCache)
		out.MACCache.Add(&p.st.MACCache)
		out.BMTCache.Add(&p.st.BMTCache)
		out.CompactCache.Add(&p.st.CompactCache)
		out.CompactBMTC.Add(&p.st.CompactBMTC)
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
			w := g.warps[id]
			g.eng.Schedule(0, func() { g.fetch(w) })
		}
		g.restoredParked = nil
		return
	}
	for _, w := range g.warps {
		w := w
		g.eng.Schedule(0, func() { g.fetch(w) })
	}
}

// takeCheckpoint drains to quiescence, snapshots, invokes the sink, and
// resumes the parked warps. On sink error the warps stay parked and the
// error is propagated (the run is abandoned in its resumable state).
func (g *GPU) takeCheckpoint(sink CheckpointSink) error {
	g.draining = true
	for g.cluster.RunWindow() != 0 {
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
		w := w
		g.eng.Schedule(0, func() { g.fetch(w) })
	}
	g.parked = g.parked[:0]
	return nil
}

// quiescenceError verifies the drained-epoch invariants: every active
// warp is parked with no loads in flight, and no partition holds
// in-flight misses, pending secure-memory requests, or MSHR waiters. Any
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
	for _, p := range g.parts {
		switch {
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
	cw, ok := g.wl.(CheckpointableWorkload)
	if !ok {
		return nil, fmt.Errorf("gpusim: workload %s does not support checkpointing", g.wl.Name())
	}
	f := &checkpoint.File{}

	me := checkpoint.NewEncoder()
	me.String(configFingerprint(g.cfg, g.wl))
	me.U64(uint64(g.cluster.LastEventAt()))
	me.U64(g.nextCkpt)
	me.U32(uint32(len(g.parts)))
	f.Add("meta", me.Data())

	ge := checkpoint.NewEncoder()
	now, lastEv := g.eng.Clock()
	ge.U64(uint64(now))
	ge.U64(uint64(lastEv))
	ge.U64(g.issued)
	ge.U64(g.loads)
	ge.U64(g.stores)
	ge.U64(uint64(g.activeWarps))
	ge.Bool(g.budgetDone)
	ge.U32(uint32(len(g.sms)))
	for _, sm := range g.sms {
		ge.U64(sm.slotFree)
	}
	ge.U32(uint32(len(g.warps)))
	for _, w := range g.warps {
		ge.Bool(w.active)
	}
	ge.U32(uint32(len(g.parked)))
	for _, w := range g.parked {
		ge.U32(uint32(w.id))
	}
	ge.U32(uint32(g.tamperApplied))
	f.Add("gpu", ge.Data())

	we := checkpoint.NewEncoder()
	cur := cw.Cursor()
	we.U32(uint32(len(cur)))
	for _, c := range cur {
		we.U64(c)
	}
	f.Add("workload", we.Data())

	for _, p := range g.parts {
		pe := checkpoint.NewEncoder()
		if err := p.Snapshot(pe); err != nil {
			return nil, err
		}
		f.Add(fmt.Sprintf("part%d", p.id), pe.Data())
	}
	return f.Encode(), nil
}

// Snapshot encodes one partition's complete mutable state: engine
// clock, L2 issue ladder, L2 tags and data, secure-memory engine, DRAM
// channel, and statistics shard.
func (p *partition) Snapshot(pe *checkpoint.Encoder) error {
	pnow, plast := p.eng.Clock()
	pe.U64(uint64(pnow))
	pe.U64(uint64(plast))
	pe.U64(uint64(p.l2Free))
	if err := p.l2.Snapshot(pe); err != nil {
		return err
	}
	pe.U64(uint64(p.l2data.Count()))
	p.l2data.ForEach(func(si uint64, rec []byte) {
		pe.U64(si * geom.SectorSize)
		pe.Bytes(rec)
	})
	if err := p.sec.Snapshot(pe); err != nil {
		return err
	}
	if err := p.ch.Snapshot(pe); err != nil {
		return err
	}
	p.st.Snapshot(pe)
	return nil
}

// Restore decodes state written by Snapshot, walking the same fields in
// the same order. The caller discards the GPU wholesale on error, so
// partially restored partition state never escapes.
func (p *partition) Restore(pd *checkpoint.Decoder) error {
	pnow, plast := sim.Cycle(pd.U64()), sim.Cycle(pd.U64())
	p.eng.RestoreClock(pnow, plast)
	p.l2Free = sim.Cycle(pd.U64())
	if err := p.l2.Restore(pd); err != nil {
		return err
	}
	nd := pd.U64()
	var l2data dense.Sectors
	for i := uint64(0); i < nd && pd.Err() == nil; i++ {
		a := geom.Addr(pd.U64())
		rec := pd.Bytes()
		if len(rec) != geom.SectorSize && pd.Err() == nil {
			return fmt.Errorf("gpusim: L2 sector %#x has %d bytes, want %d: %w",
				uint64(a), len(rec), geom.SectorSize, checkpoint.ErrCorrupt)
		}
		if pd.Err() == nil {
			copy(l2data.Put(uint64(a)/geom.SectorSize), rec)
		}
	}
	p.l2data = l2data
	if err := p.sec.Restore(pd); err != nil {
		return err
	}
	if err := p.ch.Restore(pd); err != nil {
		return err
	}
	if err := p.st.Restore(pd); err != nil {
		return err
	}
	return nil
}

// ResumeSnapshot builds a GPU from cfg and wl and restores the state in
// data, a snapshot previously produced by WriteSnapshot under the same
// configuration and workload (execution mode aside — see
// configFingerprint). The returned GPU continues from the snapshot's
// cycle when run; by the deterministic-replay guarantee its remaining
// execution, statistics, and later snapshots are byte-identical to the
// run the snapshot was taken from.
func ResumeSnapshot(cfg Config, wl Workload, data []byte) (*GPU, error) {
	cw, ok := wl.(CheckpointableWorkload)
	if !ok {
		return nil, fmt.Errorf("gpusim: workload %s does not support checkpointing", wl.Name())
	}
	f, err := checkpoint.Decode(data)
	if err != nil {
		return nil, err
	}
	g, err := New(cfg, wl)
	if err != nil {
		return nil, err
	}

	md, err := sectionDecoder(f, "meta")
	if err != nil {
		return nil, err
	}
	fp := md.String()
	cycle := md.U64()
	nextCkpt := md.U64()
	nParts := md.U32()
	if err := md.Finish(); err != nil {
		return nil, fmt.Errorf("gpusim: meta section: %w", err)
	}
	if want := configFingerprint(cfg, wl); fp != want {
		return nil, fmt.Errorf("gpusim: snapshot is for a different configuration or workload:\n  snapshot: %s\n  current:  %s\n%w",
			fp, want, checkpoint.ErrMismatch)
	}
	if int(nParts) != len(g.parts) {
		return nil, fmt.Errorf("gpusim: snapshot has %d partitions, config %d: %w",
			nParts, len(g.parts), checkpoint.ErrMismatch)
	}
	g.nextCkpt = nextCkpt
	_ = cycle // recorded for readers; the engine clocks carry the time

	gd, err := sectionDecoder(f, "gpu")
	if err != nil {
		return nil, err
	}
	smNow, smLast := sim.Cycle(gd.U64()), sim.Cycle(gd.U64())
	g.issued = gd.U64()
	g.loads = gd.U64()
	g.stores = gd.U64()
	g.activeWarps = int(gd.U64())
	g.budgetDone = gd.Bool()
	if n := gd.U32(); int(n) != len(g.sms) {
		if gd.Err() == nil {
			return nil, fmt.Errorf("gpusim: snapshot has %d SMs, config %d: %w", n, len(g.sms), checkpoint.ErrMismatch)
		}
	}
	for _, sm := range g.sms {
		sm.slotFree = gd.U64()
	}
	if n := gd.U32(); int(n) != len(g.warps) {
		if gd.Err() == nil {
			return nil, fmt.Errorf("gpusim: snapshot has %d warps, workload %d: %w", n, len(g.warps), checkpoint.ErrMismatch)
		}
	}
	for _, w := range g.warps {
		w.active = gd.Bool()
		w.outstanding = 0
		w.blocked = false
	}
	nParked := gd.U32()
	parked := make([]int, 0, nParked)
	for i := uint32(0); i < nParked && gd.Err() == nil; i++ {
		id := int(gd.U32())
		if id < 0 || id >= len(g.warps) {
			return nil, fmt.Errorf("gpusim: parked warp id %d out of range: %w", id, checkpoint.ErrCorrupt)
		}
		parked = append(parked, id)
	}
	g.tamperApplied = int(gd.U32())
	if err := gd.Finish(); err != nil {
		return nil, fmt.Errorf("gpusim: gpu section: %w", err)
	}
	g.restoredParked = parked
	g.eng.RestoreClock(smNow, smLast)

	wd, err := sectionDecoder(f, "workload")
	if err != nil {
		return nil, err
	}
	cur := make([]uint64, wd.U32())
	for i := range cur {
		cur[i] = wd.U64()
	}
	if err := wd.Finish(); err != nil {
		return nil, fmt.Errorf("gpusim: workload section: %w", err)
	}
	if err := cw.RestoreCursor(cur); err != nil {
		return nil, fmt.Errorf("gpusim: %v: %w", err, checkpoint.ErrMismatch)
	}

	for _, p := range g.parts {
		pd, err := sectionDecoder(f, fmt.Sprintf("part%d", p.id))
		if err != nil {
			return nil, err
		}
		if err := p.Restore(pd); err != nil {
			return nil, err
		}
		if err := pd.Finish(); err != nil {
			return nil, fmt.Errorf("gpusim: part%d section: %w", p.id, err)
		}
	}
	return g, nil
}

// sectionDecoder returns a decoder over the named section's payload.
func sectionDecoder(f *checkpoint.File, name string) (*checkpoint.Decoder, error) {
	payload, ok := f.Section(name)
	if !ok {
		return nil, fmt.Errorf("gpusim: snapshot missing section %q: %w", name, checkpoint.ErrCorrupt)
	}
	return checkpoint.NewDecoder(payload), nil
}
