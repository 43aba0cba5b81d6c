// Ablation benchmarks for the design choices DESIGN.md §5 calls out:
// each sweeps one knob of a Plutus mechanism and reports the headline
// quantity as a metric, so `go test -bench Ablation` quantifies how much
// each parameter of the paper's design actually matters.
package plutus_test

import (
	"encoding/binary"
	"fmt"
	"testing"

	"github.com/plutus-gpu/plutus/internal/counters"
	"github.com/plutus-gpu/plutus/internal/geom"
	"github.com/plutus-gpu/plutus/internal/gpusim"
	"github.com/plutus-gpu/plutus/internal/secmem"
	"github.com/plutus-gpu/plutus/internal/valcache"
	"github.com/plutus-gpu/plutus/internal/workload"
)

// streamReuse measures bfs's value-verified fraction under one value
// cache configuration (simulation-free: streams generated values).
func streamReuse(tb testing.TB, cfg valcache.Config) float64 {
	wl, err := workload.Get("bfs")
	if err != nil {
		tb.Fatal(err)
	}
	vc, err := valcache.New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	buf := make([]byte, geom.SectorSize)
	var total, hits, issued int
	for w := 0; w < wl.Warps() && issued < 3000; w++ {
		for issued < 3000 {
			inst, ok := wl.Next(w)
			if !ok {
				break
			}
			issued++
			if inst.Kind == gpusim.Compute {
				continue
			}
			for _, a := range inst.Addrs {
				s := geom.SectorAddr(a)
				for k := 0; k < 8; k++ {
					binary.LittleEndian.PutUint32(buf[k*4:], wl.MemValue(s+geom.Addr(k*4)))
				}
				total++
				if vc.VerifySector(buf).Verified {
					hits++
				}
				vc.ObserveSector(buf)
			}
		}
	}
	return float64(hits) / float64(total)
}

// BenchmarkAblation_MatchThreshold sweeps the per-block hit threshold x
// (paper: 3 of 4) against both reuse rate and Eq. 1 security margin.
func BenchmarkAblation_MatchThreshold(b *testing.B) {
	p := valcache.HitProbability(256, 4)
	for _, x := range []int{2, 3, 4} {
		b.Run(fmt.Sprintf("x=%d", x), func(b *testing.B) {
			cfg := valcache.DefaultConfig()
			cfg.MatchThreshold = x
			for i := 0; i < b.N; i++ {
				b.ReportMetric(streamReuse(b, cfg), "reuseRate")
				b.ReportMetric(valcache.ForgeryProbability(4, x, p), "forgeryProb")
			}
		})
	}
}

// BenchmarkAblation_MaskBits sweeps the low-bit mask (paper: 4 bits).
func BenchmarkAblation_MaskBits(b *testing.B) {
	for _, m := range []int{0, 4, 8} {
		b.Run(fmt.Sprintf("mask=%d", m), func(b *testing.B) {
			cfg := valcache.DefaultConfig()
			cfg.MaskBits = m
			for i := 0; i < b.N; i++ {
				b.ReportMetric(streamReuse(b, cfg), "reuseRate")
				b.ReportMetric(valcache.ForgeryProbability(4, cfg.MatchThreshold,
					valcache.HitProbability(cfg.Entries, m)), "forgeryProb")
			}
		})
	}
}

// BenchmarkAblation_PinnedFraction sweeps the pinned share of the value
// cache (paper: 25%). More pinning means more write guarantees but fewer
// transient entries for read verification.
func BenchmarkAblation_PinnedFraction(b *testing.B) {
	for _, f := range []float64{0, 0.25, 0.5} {
		b.Run(fmt.Sprintf("pinned=%.0f%%", 100*f), func(b *testing.B) {
			cfg := valcache.DefaultConfig()
			cfg.PinnedFrac = f
			for i := 0; i < b.N; i++ {
				b.ReportMetric(streamReuse(b, cfg), "reuseRate")
			}
		})
	}
}

// BenchmarkAblation_CompactWidth compares the three compact-counter
// designs end to end (paper Fig. 17's knob, write-heavy benchmark).
func BenchmarkAblation_CompactWidth(b *testing.B) {
	kinds := []counters.CompactKind{counters.Compact2Bit, counters.Compact3Bit, counters.Compact3BitAdaptive}
	for _, k := range kinds {
		b.Run(k.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sp := geoSpeedup(b, secmem.PSSM(protected), secmem.PlutusCompact(protected, k))
				b.ReportMetric(sp.Mean, "speedup")
			}
		})
	}
}

// BenchmarkAblation_MACSize compares PSSM's original 4 B truncated MAC
// against the 8 B MAC the paper's baseline adopts: the bandwidth cost of
// doubling the security level.
func BenchmarkAblation_MACSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sp := geoSpeedup(b, secmem.PSSM4B(protected), secmem.PSSM(protected))
		b.ReportMetric(sp.Mean, "ipc8Bvs4B")
	}
}

// BenchmarkAblation_MetadataGranularity covers the intermediate design
// (32 B counters under 128 B tree nodes) that Fig. 16 places between the
// two extremes.
func BenchmarkAblation_MetadataGranularity(b *testing.B) {
	designs := []secmem.Granularity{secmem.GranAll128, secmem.GranCtr32BMT128, secmem.GranAll32}
	for _, g := range designs {
		b.Run(g.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sp := geoSpeedup(b, secmem.Baseline(protected), secmem.PlutusFineGrain(protected, g))
				b.ReportMetric(sp.Mean, "normIPC")
			}
		})
	}
}

// BenchmarkAblation_AdaptiveThreshold sweeps the disable threshold of the
// adaptive compact design (paper: 8 of 64 saturated counters).
func BenchmarkAblation_AdaptiveThreshold(b *testing.B) {
	for _, th := range []int{4, 8, 16} {
		b.Run(fmt.Sprintf("th=%d", th), func(b *testing.B) {
			sc := secmem.PlutusCompact(protected, counters.Compact3BitAdaptive)
			sc.Scheme = fmt.Sprintf("plutus-C3A-th%d", th)
			sc.CompactThreshold = th
			for i := 0; i < b.N; i++ {
				sp := geoSpeedup(b, secmem.PSSM(protected), sc)
				b.ReportMetric(sp.Mean, "speedup")
			}
		})
	}
}

// BenchmarkAblation_LazyVsEagerTree compares the lazy tree-update scheme
// (all evaluated configs) against eager root-to-leaf writes on every
// counter update (paper §II-A3's alternative).
func BenchmarkAblation_LazyVsEagerTree(b *testing.B) {
	eager := secmem.PSSM(protected)
	eager.Scheme = "pssm-eager"
	eager.Freshness = secmem.FreshEagerBMT
	for i := 0; i < b.N; i++ {
		sp := geoSpeedup(b, eager, secmem.PSSM(protected))
		b.ReportMetric(sp.Mean, "lazyOverEager")
	}
}

// BenchmarkAblation_MetaCacheSize sweeps the per-partition metadata-cache
// capacity around the paper's 2 KiB (Table II).
func BenchmarkAblation_MetaCacheSize(b *testing.B) {
	for _, kb := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("%dKiB", kb), func(b *testing.B) {
			sc := secmem.PSSM(protected)
			sc.Scheme = fmt.Sprintf("pssm-mc%d", kb)
			sc.MetaCacheBytes = kb * 1024
			for i := 0; i < b.N; i++ {
				sp := geoSpeedup(b, secmem.Baseline(protected), sc)
				b.ReportMetric(sp.Mean, "normIPC")
			}
		})
	}
}
