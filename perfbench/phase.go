package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/plutus-gpu/plutus/internal/harness"
	"github.com/plutus-gpu/plutus/internal/stats"
)

// phase accumulates one timed phase. Workloads record into it from
// several goroutines, so every recorder takes mu.
type phase struct {
	mu sync.Mutex

	passes     int
	wall       time.Duration
	allocBytes uint64
	numGC      uint32

	// ops are the latencies of the workload's unit operation (op_mean_ms).
	ops []time.Duration
	// insts are simulated warp-instructions retired over simWall, or
	// over the whole phase when simWall is zero.
	insts   uint64
	simWall time.Duration

	attempted, failed int
	failures          []string

	// digests maps a cell id to the sha256 of its WriteRunJSON bytes.
	digests map[string]string
	// results are the simulated statistics of the first pass, the source
	// of the exact per-layer counts.
	results []*stats.Stats
	// layer are the workload's service and codec counts (layerCounts).
	layer map[string]float64
	// extra are workload-specific figures for the report.
	extra map[string]metric
}

// layerCounts are the per-layer counts only some workloads exercise;
// every traced run reports all of them, zero where a layer is unused.
var layerCounts = map[string]string{
	"checkpoint.snapshots":       "count",
	"checkpoint.snapshot_mb":     "MB",
	"trace.max_resident_records": "count",
	"harness.hit_rate":           "ratio",
	"server.accepted":            "count",
	"server.deduped":             "count",
	"server.rejected":            "count",
	"cluster.store_hits":         "count",
	"cluster.retries":            "count",
	"cluster.steals":             "count",
}

// setLayer records one of layerCounts.
func (ph *phase) setLayer(name string, v float64) {
	if _, ok := layerCounts[name]; !ok {
		panic("perfbench: unknown layer count " + name)
	}
	ph.mu.Lock()
	defer ph.mu.Unlock()
	ph.layer[name] = v
}

func newPhase() *phase {
	return &phase{digests: map[string]string{}, layer: map[string]float64{}, extra: map[string]metric{}}
}

// fail records one failed check or operation.
func (ph *phase) fail(format string, args ...any) {
	ph.mu.Lock()
	defer ph.mu.Unlock()
	ph.failed++
	ph.failures = append(ph.failures, fmt.Sprintf(format, args...))
}

// op records one attempted unit operation and its latency.
func (ph *phase) op(d time.Duration) {
	ph.mu.Lock()
	defer ph.mu.Unlock()
	ph.attempted++
	ph.ops = append(ph.ops, d)
}

// attempt counts operations that have no latency sample.
func (ph *phase) attempt(n int) {
	ph.mu.Lock()
	defer ph.mu.Unlock()
	ph.attempted += n
}

// retired adds simulated warp-instructions.
func (ph *phase) retired(n uint64) {
	ph.mu.Lock()
	defer ph.mu.Unlock()
	ph.insts += n
}

// result keeps a first-pass result for the exact per-layer counts.
func (ph *phase) result(p int, st *stats.Stats) {
	if p != 0 {
		return
	}
	ph.mu.Lock()
	defer ph.mu.Unlock()
	ph.results = append(ph.results, st)
}

// digest renders st through harness.WriteRunJSON, records the digest
// under cell, and fails the cell if an earlier digest for it differs.
func (ph *phase) digest(ctx context.Context, e *env, cell string, st *stats.Stats) []byte {
	var buf bytes.Buffer
	err := e.tr.span(ctx, "harness.WriteRunJSON", cell, func(context.Context) error {
		return harness.WriteRunJSON(&buf, st)
	})
	if err != nil {
		ph.fail("%s: render: %v", cell, err)
		return nil
	}
	ph.record(cell, buf.Bytes())
	return buf.Bytes()
}

// record stores the digest of content under cell.
func (ph *phase) record(cell string, content []byte) {
	sum := sha256.Sum256(content)
	d := hex.EncodeToString(sum[:])
	ph.mu.Lock()
	prev, seen := ph.digests[cell]
	ph.digests[cell] = d
	ph.mu.Unlock()
	if seen && prev != d {
		ph.fail("%s: digest %s differs from an earlier pass (%s)", cell, d[:16], prev[:16])
	}
}

func (ph *phase) kinstsPerSec() float64 {
	w := ph.simWall
	if w == 0 {
		w = ph.wall
	}
	if w == 0 {
		return 0
	}
	return float64(ph.insts) / 1e3 / w.Seconds()
}

// percentile returns the q-quantile of ds by nearest rank.
func percentile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func mean(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum / time.Duration(len(ds))
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }

// layerMetrics are the exact simulated counts of the phase's first-pass
// results: identical on every run of one seed, whatever the host.
func layerMetrics(ph *phase) map[string]metric {
	var all stats.Stats
	ipcInsts := map[string]uint64{}
	ipcCycles := map[string]uint64{}
	for _, st := range ph.results {
		all.Merge(st)
		ipcInsts[st.Scheme] += st.Instructions
		ipcCycles[st.Scheme] += st.Cycles
	}
	var cycles uint64
	for _, c := range ipcCycles {
		cycles += c
	}
	m := map[string]metric{
		"gpusim.sim_cycles":          {float64(cycles), "cycles"},
		"gpusim.warp_insts":          {float64(all.Instructions), "count"},
		"cache.mshr_merges":          {float64(all.L2.MSHRMerges + all.CounterCache.MSHRMerges + all.MACCache.MSHRMerges + all.BMTCache.MSHRMerges), "count"},
		"dram.data_mb":               {float64(all.Traffic.Bytes(stats.Data)) / 1e6, "MB"},
		"dram.meta_mb":               {float64(all.Traffic.MetadataBytes()) / 1e6, "MB"},
		"dram.meta_per_data":         {ratio(all.Traffic.MetadataBytes(), all.Traffic.Bytes(stats.Data)), "ratio"},
		"secmem.value_verified_frac": {ratio(all.Sec.ValueVerified, all.Sec.ValueVerified+all.Sec.MACVerified), "ratio"},
		"secmem.mac_skipped_writes":  {float64(all.Sec.MACSkippedWrites), "count"},
		"secmem.derived_versions":    {float64(all.Sec.DerivedVersions), "count"},
		"counters.compact_hits":      {float64(all.Sec.CompactHits), "count"},
		"counters.compact_overflow":  {float64(all.Sec.CompactOverflow), "count"},
		"bmt.node_verifies":          {float64(all.Sec.BMTNodeVerifies), "count"},
	}
	for name, c := range map[string]stats.CacheStats{"l2": all.L2, "ctr": all.CounterCache, "mac": all.MACCache, "bmt": all.BMTCache} {
		m["cache."+name+"_hit_rate"] = metric{c.HitRate(), "ratio"}
		m["cache."+name+"_hits"] = metric{float64(c.Hits + c.MSHRMerges), "count"}
		m["cache."+name+"_accesses"] = metric{float64(c.Accesses()), "count"}
	}
	for _, scheme := range []string{"nosec", "pssm", "plutus", "mgx"} {
		m["gpusim.ipc."+scheme] = metric{ratio(ipcInsts[scheme], ipcCycles[scheme]), "inst/cycle"}
	}
	for k, unit := range layerCounts {
		m[k] = metric{ph.layer[k], unit}
	}
	return m
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
