package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"time"

	"github.com/plutus-gpu/plutus/internal/bmt"
	"github.com/plutus-gpu/plutus/internal/cache"
	"github.com/plutus-gpu/plutus/internal/checkpoint"
	"github.com/plutus-gpu/plutus/internal/crypto/gcipher"
	"github.com/plutus-gpu/plutus/internal/crypto/siphash"
	"github.com/plutus-gpu/plutus/internal/dram"
	"github.com/plutus-gpu/plutus/internal/geom"
	"github.com/plutus-gpu/plutus/internal/gpusim"
	"github.com/plutus-gpu/plutus/internal/secmem"
	"github.com/plutus-gpu/plutus/internal/sim"
	"github.com/plutus-gpu/plutus/internal/stats"
	"github.com/plutus-gpu/plutus/internal/trace"
	"github.com/plutus-gpu/plutus/internal/valcache"
	"github.com/plutus-gpu/plutus/internal/workload"
)

// microReps is how many times each micro-driver repeats its fixed input;
// the reported figure is the median repetition.
const microReps = 5

// microDrivers time single layers through their public functions on
// fixed inputs derived from the workload seed. Each result is the median
// over microReps repetitions, in nanoseconds per operation.
func microDrivers(seed uint64) map[string]metric {
	in := newMicroInput(seed)
	out := map[string]metric{}
	add := func(name string, ops int, fn func()) {
		var per []float64
		for i := 0; i < microReps; i++ {
			t0 := time.Now()
			fn()
			per = append(per, float64(time.Since(t0).Nanoseconds())/float64(ops))
		}
		out[name] = metric{median(per), "ns"}
	}

	// sim: Schedule then Step through a seeded spread of delays.
	delays := make([]sim.Cycle, 1<<16)
	rng := rand.New(rand.NewPCG(seed, 1))
	for i := range delays {
		delays[i] = sim.Cycle(rng.IntN(600))
	}
	nop := func() {}
	add("sim.ns_per_event", len(delays), func() {
		var eng sim.Engine
		for _, d := range delays {
			eng.Schedule(d, nop)
		}
		for eng.Step() {
		}
	})

	// workload: the bfs instruction generator.
	const insts = 1 << 15
	add("workload.ns_per_inst", insts, func() {
		wl, err := workload.GetSeeded("bfs", seed)
		if err != nil {
			panic(err)
		}
		for n, w := 0, 0; n < insts; w = (w + 1) % wl.Warps() {
			if _, ok := wl.Next(w); ok {
				n++
			}
		}
	})

	// cache: L2 lookups over the bfs sector stream, filling every miss.
	gcfg := gpusim.ScaledConfig(secmem.Plutus(protectedBytes))
	add("cache.ns_per_lookup", len(in.sectors), func() {
		c := cache.MustNew(cache.Config{Name: "l2", SizeBytes: gcfg.L2PerPartition, BlockSize: geom.BlockSize, Ways: gcfg.L2Ways, MSHRs: gcfg.L2MSHRs})
		for _, a := range in.sectors {
			if out, _, m := c.Lookup(a, c.MaskFor(a), false, nil); out == cache.Miss {
				c.Fill(m, false)
			}
		}
	})

	// valcache: verify then observe each value-model sector.
	add("valcache.ns_per_verify", len(in.data), func() {
		vc := valcache.MustNew(valcache.DefaultConfig())
		for _, d := range in.data {
			vc.VerifySector(d)
			vc.ObserveSector(d)
		}
	})

	// crypto: XTS pad plus SipHash MAC per sector, as on the write path.
	var key [32]byte
	binary.LittleEndian.PutUint64(key[:], seed)
	enc := gcipher.MustEngine(gcipher.ModeXTS, key)
	mk := siphash.NewKey([16]byte{1, 2, 3, 4, 5, 6, 7, 8})
	ct := make([]byte, geom.SectorSize)
	var sink uint64
	add("crypto.ns_per_sector", len(in.data), func() {
		for i, d := range in.data {
			if err := enc.EncryptInto(ct, d, uint64(in.sectors[i]), uint64(i)); err != nil {
				panic(err)
			}
			sink += siphash.Truncate(siphash.SumTagged(mk, ct, uint64(in.sectors[i]), uint64(i)), 8)
		}
	})

	// bmt: update a leaf and re-hash its path to the root.
	const units = 1 << 20
	add("bmt.ns_per_path", len(in.sectors), func() {
		t := bmt.MustNew(bmt.Config{Units: units, UnitBytes: 128, NodeBytes: 128, Key: mk}, 0)
		for i, a := range in.sectors {
			u := uint64(a) / 4096 % units
			t.SetUnitHash(u, uint64(i))
			sink += uint64(len(t.Path(u)))
		}
	})

	// dram: channel accesses, draining the event queue every 64.
	add("dram.ns_per_access", len(in.sectors), func() {
		var eng sim.Engine
		var tr stats.Traffic
		ch := dram.MustNew(dram.DefaultConfig(), &eng, &tr)
		for i, a := range in.sectors {
			ch.Access(a%(protectedBytes), i%4 == 0, stats.Data, nop)
			if i%64 == 63 {
				for eng.Step() {
				}
			}
		}
		for eng.Step() {
		}
	})

	// checkpoint: decode a real PLUTSNAP snapshot.
	const decodes = 20
	add("checkpoint.ns_per_kb", decodes*len(in.snapshot)/1024, func() {
		for i := 0; i < decodes; i++ {
			if _, err := checkpoint.Decode(in.snapshot); err != nil {
				panic(err)
			}
		}
	})

	// trace: decode every chunk of a PLTR-v2 trace.
	add("trace.ns_per_record", int(in.records), func() {
		r, err := trace.NewReader(bytes.NewReader(in.trace), int64(len(in.trace)))
		if err != nil {
			panic(err)
		}
		for w := 0; w < r.Warps(); w++ {
			for c := 0; c < r.Chunks(w); c++ {
				if _, err := r.LoadChunk(w, c); err != nil {
					panic(err)
				}
			}
		}
	})
	_ = sink
	return out
}

// microInput is the seed-derived input every micro-driver shares.
type microInput struct {
	sectors  []geom.Addr // bfs sector stream
	data     [][]byte    // value-model bytes of each sector
	snapshot []byte      // a real snapshot of a plutus bfs run
	trace    []byte      // a PLTR-v2 capture of the same run
	records  uint64
}

func newMicroInput(seed uint64) *microInput {
	in := &microInput{}
	wl, err := workload.GetSeeded("bfs", seed)
	if err != nil {
		panic(err)
	}
	for w := 0; len(in.sectors) < 1<<15; w = (w + 1) % wl.Warps() {
		inst, ok := wl.Next(w)
		if !ok {
			continue
		}
		for _, a := range inst.Addrs {
			s := geom.SectorAddr(a)
			d := make([]byte, geom.SectorSize)
			for k := 0; k < geom.SectorSize/4; k++ {
				binary.LittleEndian.PutUint32(d[k*4:], wl.MemValue(s+geom.Addr(k*4)))
			}
			in.sectors = append(in.sectors, s)
			in.data = append(in.data, d)
		}
	}

	cfg := gpusim.ScaledConfig(secmem.Plutus(protectedBytes))
	cfg.Sec.ProtectedBytes = protectedBytes
	cfg.MaxInstructions = 3000
	cfg.CheckpointEvery = 1000
	run, err := workload.GetSeeded("bfs", seed)
	if err != nil {
		panic(err)
	}
	g, err := gpusim.New(cfg, run)
	if err != nil {
		panic(err)
	}
	if _, err := g.RunWithCheckpoints(func(_ uint64, data []byte) error {
		in.snapshot = data
		return nil
	}); err != nil {
		panic(err)
	}
	if in.snapshot == nil {
		panic(fmt.Sprintf("micro-driver run took no snapshot at cadence %d", cfg.CheckpointEvery))
	}

	cfg.CheckpointEvery = 0
	capWl, err := workload.GetSeeded("bfs", seed)
	if err != nil {
		panic(err)
	}
	var buf bytes.Buffer
	if _, err := trace.Capture(cfg, capWl, &buf); err != nil {
		panic(err)
	}
	in.trace = buf.Bytes()
	r, err := trace.NewReader(bytes.NewReader(in.trace), int64(len(in.trace)))
	if err != nil {
		panic(err)
	}
	in.records = r.TotalRecords()
	return in
}
