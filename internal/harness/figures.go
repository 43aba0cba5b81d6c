package harness

import (
	"fmt"
	"strings"
	"time"

	"github.com/plutus-gpu/plutus/internal/counters"
	"github.com/plutus-gpu/plutus/internal/geom"
	"github.com/plutus-gpu/plutus/internal/gpusim"
	"github.com/plutus-gpu/plutus/internal/secmem"
	"github.com/plutus-gpu/plutus/internal/stats"
	"github.com/plutus-gpu/plutus/internal/valcache"
	"github.com/plutus-gpu/plutus/internal/workload"
)

// Figure identifies one reproducible experiment from the paper.
type Figure struct {
	ID    string
	Title string
	Run   func(r *Runner) (string, error)
}

// Figures lists every table/figure the reproduction regenerates: the
// paper's in paper order, then the scheme frontier and the design-choice
// ablations.
func Figures() []Figure {
	return []Figure{
		{"fig6", "Fig. 6: IPC of PSSM-secured GPU normalized to no security", Fig6},
		{"fig7", "Fig. 7: DRAM traffic breakdown under PSSM (fraction of data traffic)", Fig7},
		{"fig9", "Fig. 9: value-reuse rate of three matching scenarios (2 kB value cache)", Fig9},
		{"fig10", "Fig. 10: memory-request read/write mix", Fig10},
		{"fig15", "Fig. 15: value-based integrity verification vs PSSM (IPC norm. to no security)", Fig15},
		{"fig16", "Fig. 16: metadata-granularity designs (IPC norm. to no security)", Fig16},
		{"fig17", "Fig. 17: compact mirrored-counter designs (IPC norm. to no security)", Fig17},
		{"fig18", "Fig. 18: Plutus overall vs PSSM and PSSM+CommonCounters (IPC norm. to no security)", Fig18},
		{"fig19", "Fig. 19: security-metadata traffic, Plutus vs PSSM", Fig19},
		{"fig20", "Fig. 20: Plutus with integrity-tree traffic eliminated (MGX-style)", Fig20},
		{"fig21", "Fig. 21: sensitivity to value-cache size (value-verified read fraction / IPC)", Fig21},
		{"fig22", "Fig. 22: average power normalized to no security", Fig22},
		{"eq1", "Eq. 1: forgery-probability bound for the value-verification threshold", Eq1Table},
		{"frontier", "Scheme frontier: every registered scheme vs no security", Frontier},
		{"ablation-valcache", "Ablation: value-cache match threshold, mask width and pinned fraction", AblationValueCache},
		{"ablation-metacache", "Ablation: metadata-cache size under PSSM (IPC norm. to no security)", AblationMetaCache},
	}
}

// FigureByID finds a figure by its ID.
func FigureByID(id string) (Figure, error) {
	for _, f := range Figures() {
		if f.ID == id {
			return f, nil
		}
	}
	return Figure{}, fmt.Errorf("harness: unknown figure %q", id)
}

// FigureFile renders figure f's report file as results/<id>.txt holds
// it: the title, the figure's output, and a footer with the runner's
// instruction budget and the wall time the figure took.
func (r *Runner) FigureFile(f Figure, out string, elapsed time.Duration) string {
	return fmt.Sprintf("%s\n\n%s\n(budget: %d instructions/run; generated in %.1fs)\n",
		f.Title, out, r.cfg.MaxInstructions, elapsed.Seconds())
}

func pb(r *Runner) uint64 { return r.cfg.ProtectedBytes }

// Fig6 reproduces the motivation result: security is expensive.
func Fig6(r *Runner) (string, error) {
	return r.ipcTable("IPC normalized to no-security baseline",
		[]secmem.Config{secmem.Baseline(pb(r)), secmem.PSSM(pb(r))})
}

// Fig7 reproduces the traffic breakdown that motivates Plutus.
func Fig7(r *Runner) (string, error) {
	sc := secmem.PSSM(pb(r))
	if err := r.runMatrix([]secmem.Config{sc}); err != nil {
		return "", err
	}
	header := []string{"benchmark", "data", "counter", "mac", "bmt", "meta/data"}
	var rows [][]string
	for _, b := range r.cfg.Benchmarks {
		st, err := r.Run(b, sc)
		if err != nil {
			return "", err
		}
		d := float64(st.Traffic.Bytes(stats.Data))
		rows = append(rows, []string{
			b, "1.00",
			fmt.Sprintf("%.2f", float64(st.Traffic.Bytes(stats.Counter))/d),
			fmt.Sprintf("%.2f", float64(st.Traffic.Bytes(stats.MAC))/d),
			fmt.Sprintf("%.2f", float64(st.Traffic.Bytes(stats.BMT))/d),
			fmt.Sprintf("%.2f", float64(st.Traffic.MetadataBytes())/d),
		})
	}
	return "DRAM bytes by class, relative to demand data (PSSM)\n" + stats.Table(header, rows), nil
}

// valueCache is the paper's value cache with its three matching
// parameters swapped: x of 4 values per 128-bit block must hit, with
// mask low bits of each value ignored.
func valueCache(entries, mask, x int) valcache.Config {
	c := valcache.DefaultConfig()
	c.Entries, c.MaskBits, c.MatchThreshold = entries, mask, x
	return c
}

// reuseColumn is one value-cache configuration of a reuse table.
type reuseColumn struct {
	name string
	cfg  valcache.Config
}

// reuseRows measures every benchmark's value-reuse rate under each
// column's configuration: the table's header and one row per benchmark,
// with each column's rates in benchmark order.
func (r *Runner) reuseRows(cols []reuseColumn) (header []string, rows [][]string, rates [][]float64, err error) {
	header = []string{"benchmark"}
	for _, c := range cols {
		header = append(header, c.name)
	}
	rates = make([][]float64, len(cols))
	for _, bench := range r.cfg.Benchmarks {
		row := []string{bench}
		for i, c := range cols {
			rate, err := valueReuseRate(bench, c.cfg, r.cfg.MaxInstructions)
			if err != nil {
				return nil, nil, nil, err
			}
			rates[i] = append(rates[i], rate)
			row = append(row, fmt.Sprintf("%.1f%%", 100*rate))
		}
		rows = append(rows, row)
	}
	return header, rows, rates, nil
}

// Fig9 reproduces the value-locality study: the fraction of 32 B sector
// accesses whose values would pass each of the three matching scenarios,
// using a 512-entry (2 kB) value cache per partition as in §III-B.
// 8-of-8 is modelled as 4-of-4 per 128-bit half.
func Fig9(r *Runner) (string, error) {
	header, rows, _, err := r.reuseRows([]reuseColumn{
		{"all-8", valueCache(512, 0, 4)},
		{"3-of-4 halves", valueCache(512, 0, 3)},
		{"3-of-4 masked", valueCache(512, 4, 3)},
	})
	if err != nil {
		return "", err
	}
	return "Fraction of sector accesses passing value matching (2 kB/partition cache)\n" +
		stats.Table(header, rows), nil
}

// valueReuseRate streams a benchmark's memory traffic through
// per-partition value caches of configuration cfg and reports the
// fraction of sector accesses that value-verify. Each instruction's
// sectors are counted once, and only loads can verify; every access
// trains the cache.
func valueReuseRate(bench string, cfg valcache.Config, budget uint64) (float64, error) {
	wl, err := workload.Get(bench)
	if err != nil {
		return 0, err
	}
	const parts = 8
	il := geom.MustInterleaver(parts)
	caches := make([]*valcache.Cache, parts)
	for i := range caches {
		caches[i], err = valcache.New(cfg)
		if err != nil {
			return 0, err
		}
	}
	var accesses, reused uint64
	buf := make([]byte, geom.SectorSize)
	var issued uint64
	for w := 0; w < wl.Warps() && issued < budget; w++ {
		for issued < budget {
			inst, ok := wl.Next(w)
			if !ok {
				break
			}
			issued++
			if inst.Kind == gpusim.Compute {
				continue
			}
			seen := map[geom.Addr]bool{}
			for _, a := range inst.Addrs {
				s := geom.SectorAddr(a)
				if seen[s] {
					continue
				}
				seen[s] = true
				vc := caches[il.Partition(s)]
				for k := 0; k < geom.SectorSize/4; k++ {
					v := wl.MemValue(s + geom.Addr(k*4))
					buf[k*4] = byte(v)
					buf[k*4+1] = byte(v >> 8)
					buf[k*4+2] = byte(v >> 16)
					buf[k*4+3] = byte(v >> 24)
				}
				accesses++
				if inst.Kind == gpusim.Load && vc.VerifySector(buf).Verified {
					reused++
				}
				vc.ObserveSector(buf)
			}
		}
	}
	if accesses == 0 {
		return 0, nil
	}
	return float64(reused) / float64(accesses), nil
}

// Fig10 reproduces the read/write request mix.
func Fig10(r *Runner) (string, error) {
	sc := secmem.Baseline(pb(r))
	if err := r.runMatrix([]secmem.Config{sc}); err != nil {
		return "", err
	}
	header := []string{"benchmark", "reads", "writes", "read%"}
	var rows [][]string
	for _, b := range r.cfg.Benchmarks {
		st, err := r.Run(b, sc)
		if err != nil {
			return "", err
		}
		tot := st.LoadInsts + st.StoreInsts
		rows = append(rows, []string{
			b,
			fmt.Sprintf("%d", st.LoadInsts),
			fmt.Sprintf("%d", st.StoreInsts),
			fmt.Sprintf("%.1f%%", 100*float64(st.LoadInsts)/float64(tot)),
		})
	}
	return "Memory instructions by direction\n" + stats.Table(header, rows), nil
}

// Fig15 isolates value-based integrity verification.
func Fig15(r *Runner) (string, error) {
	return r.ipcTable("IPC normalized to no security: PSSM vs PSSM+value-verification",
		[]secmem.Config{secmem.Baseline(pb(r)), secmem.PSSM(pb(r)), secmem.PlutusValueOnly(pb(r))})
}

// Fig16 isolates the three metadata-granularity designs.
func Fig16(r *Runner) (string, error) {
	return r.ipcTable("IPC normalized to no security: metadata-block granularity",
		[]secmem.Config{
			secmem.Baseline(pb(r)),
			secmem.PSSM(pb(r)), // all-128B
			secmem.PlutusFineGrain(pb(r), secmem.GranCtr32BMT128),
			secmem.PlutusFineGrain(pb(r), secmem.GranAll32),
		})
}

// Fig17 isolates the three compact mirrored-counter designs.
func Fig17(r *Runner) (string, error) {
	return r.ipcTable("IPC normalized to no security: compact mirrored counters",
		[]secmem.Config{
			secmem.Baseline(pb(r)),
			secmem.PSSM(pb(r)),
			secmem.PlutusCompact(pb(r), counters.Compact2Bit),
			secmem.PlutusCompact(pb(r), counters.Compact3Bit),
			secmem.PlutusCompact(pb(r), counters.Compact3BitAdaptive),
		})
}

// Fig18 is the headline comparison.
func Fig18(r *Runner) (string, error) {
	table, err := r.ipcTable("IPC normalized to no security: Plutus overall",
		[]secmem.Config{
			secmem.Baseline(pb(r)),
			secmem.PSSM(pb(r)),
			secmem.CommonCtr(pb(r)),
			secmem.Plutus(pb(r)),
		})
	if err != nil {
		return "", err
	}
	sp, err := r.CompareSchemes(secmem.PSSM(pb(r)), secmem.Plutus(pb(r)))
	if err != nil {
		return "", err
	}
	summary := fmt.Sprintf(
		"\nHeadline: Plutus over PSSM: %+.2f%% IPC (max %+.2f%% on %s); paper reports +16.86%% (max +58.38%%).\n",
		100*(sp.Mean-1), 100*(sp.Max-1), sp.MaxBench)
	return table + summary, nil
}

// Fig19 reports the metadata-traffic reduction.
func Fig19(r *Runner) (string, error) {
	a, b := secmem.PSSM(pb(r)), secmem.Plutus(pb(r))
	if err := r.runMatrix([]secmem.Config{a, b}); err != nil {
		return "", err
	}
	header := []string{"benchmark", "pssm meta (KB)", "plutus meta (KB)", "reduction"}
	var rows [][]string
	var reductions []float64
	for _, bench := range r.cfg.Benchmarks {
		sa, err := r.Run(bench, a)
		if err != nil {
			return "", err
		}
		sb, err := r.Run(bench, b)
		if err != nil {
			return "", err
		}
		red := 1 - float64(sb.Traffic.MetadataBytes())/float64(sa.Traffic.MetadataBytes())
		reductions = append(reductions, red)
		rows = append(rows, []string{
			bench,
			fmt.Sprintf("%d", sa.Traffic.MetadataBytes()/1024),
			fmt.Sprintf("%d", sb.Traffic.MetadataBytes()/1024),
			fmt.Sprintf("%.1f%%", 100*red),
		})
	}
	var mean float64
	for _, x := range reductions {
		mean += x
	}
	mean /= float64(len(reductions))
	table := stats.Table(header, rows)
	return fmt.Sprintf("Security-metadata DRAM traffic\n%sMean reduction: %.1f%% (paper: 48.14%%, max 80.30%%)\n", table, 100*mean), nil
}

// Fig20 compares Plutus against Plutus with tree traffic eliminated.
func Fig20(r *Runner) (string, error) {
	return r.ipcTable("IPC normalized to no security: Plutus vs Plutus-without-tree-traffic",
		[]secmem.Config{secmem.Baseline(pb(r)), secmem.Plutus(pb(r)), secmem.PlutusNoTree(pb(r))})
}

// Fig21 sweeps the value-cache size.
func Fig21(r *Runner) (string, error) {
	sizes := []int{64, 128, 256, 512, 1024}
	base := secmem.Baseline(pb(r))
	schemes := []secmem.Config{base}
	for _, n := range sizes {
		sc := secmem.PlutusValueOnly(pb(r))
		sc.Scheme = fmt.Sprintf("vc-%d", n)
		sc.Value.Entries = n
		schemes = append(schemes, sc)
	}
	table, err := r.ipcTable("IPC normalized to no security, by value-cache entries", schemes)
	if err != nil {
		return "", err
	}
	// Also report the value-verified read fraction per size.
	var lines []string
	for i, n := range sizes {
		var vv, mv uint64
		for _, bench := range r.cfg.Benchmarks {
			st, err := r.Run(bench, schemes[i+1])
			if err != nil {
				return "", err
			}
			vv += st.Sec.ValueVerified
			mv += st.Sec.MACVerified
		}
		lines = append(lines, fmt.Sprintf("  %4d entries: %.1f%% of reads value-verified", n, 100*float64(vv)/float64(vv+mv)))
	}
	return table + "\n" + strings.Join(lines, "\n") + "\n", nil
}

// Fig22 reports normalized average power.
func Fig22(r *Runner) (string, error) {
	schemes := []secmem.Config{secmem.Baseline(pb(r)), secmem.PSSM(pb(r)), secmem.Plutus(pb(r))}
	if err := r.runMatrix(schemes); err != nil {
		return "", err
	}
	em := stats.DefaultEnergyModel()
	header := []string{"benchmark", "pssm", "plutus"}
	var rows [][]string
	gms := make([][]float64, 2)
	for _, bench := range r.cfg.Benchmarks {
		base, err := r.Run(bench, schemes[0])
		if err != nil {
			return "", err
		}
		row := []string{bench}
		// Energy per retired instruction: the run-length-independent
		// measure of the security schemes' power cost (normalizing raw
		// power would reward schemes merely for running longer at low
		// activity).
		perInst := func(st *stats.Stats) float64 {
			return em.Energy(st).TotalRaw / float64(st.Instructions)
		}
		for i, sc := range schemes[1:] {
			st, err := r.Run(bench, sc)
			if err != nil {
				return "", err
			}
			n := perInst(st) / perInst(base)
			gms[i] = append(gms[i], n)
			row = append(row, fmt.Sprintf("%.3f", n))
		}
		rows = append(rows, row)
	}
	rows = append(rows, []string{"geomean",
		fmt.Sprintf("%.3f", stats.GeoMean(gms[0])),
		fmt.Sprintf("%.3f", stats.GeoMean(gms[1]))})
	return "Energy per instruction normalized to no security (paper's Fig. 22: PSSM 1.369 → Plutus 1.178 in power)\n" +
		stats.Table(header, rows), nil
}

// verifyPath names the mechanism a scheme uses to decide a read's
// integrity verdict — the column that distinguishes the scheme families
// in the frontier table. It is the scheme's check, qualified by its
// version source and freshness part.
func verifyPath(sc secmem.Config) string {
	switch {
	case sc.Check == secmem.CheckNone:
		return "none"
	case sc.Check == secmem.CheckShares:
		return fmt.Sprintf("reconstruct %d-of-%d", sc.SSMThreshold, sc.SSMShares)
	case sc.Check == secmem.CheckValue:
		return "value-match, mac+bmt fallback"
	case sc.Versions == secmem.VersionsDerived:
		return "mac+bmt, derived versions"
	case sc.Freshness == secmem.FreshBMTNoTraffic:
		return "mac+bmt (tree traffic elided)"
	default:
		return "mac+bmt"
	}
}

// Frontier is the cross-scheme comparison the registry implies: one row
// per registered scheme, normalized to the no-security baseline. It
// iterates secmem.Names() rather than a hand-kept list, so registering
// a scheme is what adds its row — and the pinned results/frontier.txt
// golden forces the new row through review.
func Frontier(r *Runner) (string, error) {
	names := secmem.Names()
	schemes := make([]secmem.Config, 0, len(names))
	for _, name := range names {
		sc, err := secmem.ByName(name, pb(r))
		if err != nil {
			return "", err
		}
		schemes = append(schemes, sc)
	}
	if err := r.runMatrix(schemes); err != nil {
		return "", err
	}
	header := []string{"scheme", "ipc", "dram bytes", "meta/data", "verify path"}
	var rows [][]string
	for si, sc := range schemes {
		var ipc, dram, meta []float64
		for _, b := range r.cfg.Benchmarks {
			base, err := r.Run(b, schemes[0])
			if err != nil {
				return "", err
			}
			st, err := r.Run(b, sc)
			if err != nil {
				return "", err
			}
			ipc = append(ipc, st.IPC()/base.IPC())
			dram = append(dram, float64(st.Traffic.Total())/float64(base.Traffic.Total()))
			meta = append(meta, float64(st.Traffic.MetadataBytes())/float64(st.Traffic.Bytes(stats.Data)))
		}
		var metaMean float64
		for _, x := range meta {
			metaMean += x
		}
		metaMean /= float64(len(meta))
		// Rows carry the registry name (what ByName accepts), not the
		// constructor's display Scheme — the registry↔rows bijection
		// test keys on it.
		rows = append(rows, []string{
			names[si],
			fmt.Sprintf("%.3f", stats.GeoMean(ipc)),
			fmt.Sprintf("%.3f", stats.GeoMean(dram)),
			fmt.Sprintf("%.2f", metaMean),
			verifyPath(sc),
		})
	}
	return "Geomean IPC and DRAM traffic normalized to no security, by registered scheme\n" +
		stats.Table(header, rows), nil
}

// Eq1Table prints the paper's §IV-C security analysis: the forgery
// probability of value-based verification for candidate thresholds, and
// the threshold actually required.
func Eq1Table(r *Runner) (string, error) {
	p := valcache.HitProbability(256, 4)
	header := []string{"threshold x", "P(tampered block passes)", "vs 8B-MAC collision (2^-64)"}
	var rows [][]string
	for x := 1; x <= 4; x++ {
		f := valcache.ForgeryProbability(4, x, p)
		rows = append(rows, []string{
			fmt.Sprintf("%d of 4", x),
			fmt.Sprintf("%.3e", f),
			fmt.Sprintf("%.1fx", f/5.421010862427522e-20),
		})
	}
	min := valcache.MinHitsRequired(4, p, 1.0/256)
	return fmt.Sprintf(
		"Eq. 1 with K=256 entries, 28-bit keys (p=%.3e); minimum x for the 1/256 bound: %d; Plutus uses 3.\n%s",
		p, min, stats.Table(header, rows)), nil
}

// AblationValueCache sweeps the value cache's design parameters one at a
// time around the paper's choice (3-of-4 matching, 4-bit mask, 25 %
// pinned entries, 256 entries per partition): the fraction of sector
// accesses that value-verify, and Eq. 1's bound on a tampered block
// passing for each threshold and mask.
func AblationValueCache(r *Runner) (string, error) {
	pinned := func(frac float64) valcache.Config {
		c := valcache.DefaultConfig()
		c.PinnedFrac = frac
		return c
	}
	header, rows, rates, err := r.reuseRows([]reuseColumn{
		{"default", valcache.DefaultConfig()},
		{"x=2", valueCache(256, 4, 2)},
		{"x=4", valueCache(256, 4, 4)},
		{"mask=0", valueCache(256, 0, 3)},
		{"mask=8", valueCache(256, 8, 3)},
		{"pinned=0%", pinned(0)},
		{"pinned=50%", pinned(0.5)},
	})
	if err != nil {
		return "", err
	}
	mean := []string{"mean"}
	for _, col := range rates {
		var sum float64
		for _, x := range col {
			sum += x
		}
		mean = append(mean, fmt.Sprintf("%.1f%%", 100*sum/float64(len(col))))
	}
	rows = append(rows, mean)

	masks := []int{0, 4, 8}
	eqHeader := []string{"threshold x"}
	for _, m := range masks {
		eqHeader = append(eqHeader, fmt.Sprintf("mask=%d", m))
	}
	var eqRows [][]string
	for x := 2; x <= 4; x++ {
		row := []string{fmt.Sprintf("%d of 4", x)}
		for _, m := range masks {
			row = append(row, fmt.Sprintf("%.3e", valcache.ForgeryProbability(4, x, valcache.HitProbability(256, m))))
		}
		eqRows = append(eqRows, row)
	}
	return "Fraction of sector accesses passing value matching (256-entry cache per partition; " +
		"default: 3-of-4, 4-bit mask, 25% pinned)\n" + stats.Table(header, rows) +
		"\nEq. 1: P(tampered 128-bit block passes), K=256 entries\n" + stats.Table(eqHeader, eqRows), nil
}

// AblationMetaCache sweeps the per-partition metadata-cache capacity
// around the paper's 2 KiB (Table II) under PSSM: each of the counter,
// MAC and tree caches at 1, 2, 4 and 8 KiB.
func AblationMetaCache(r *Runner) (string, error) {
	schemes := []secmem.Config{secmem.Baseline(pb(r))}
	for _, kb := range []int{1, 2, 4, 8} {
		sc := secmem.PSSM(pb(r))
		if kb != 2 {
			sc.Scheme = fmt.Sprintf("pssm-mc%d", kb)
			sc.MetaCacheBytes = kb << 10
		}
		schemes = append(schemes, sc)
	}
	return r.ipcTable("IPC normalized to no security, by metadata-cache size (pssm-mcN: N KiB per cache; pssm: 2 KiB)", schemes)
}
