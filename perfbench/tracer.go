package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// tracer records a span around every call the benchmark makes into a
// layer, labels the same calls for the CPU profiler, and keeps both in
// memory until the run writes them out. A nil *tracer records nothing,
// so untraced runs pay only a nil check per call.
type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span

	nextID atomic.Int64
	prof   bytes.Buffer

	// next aggregates the replay's Next calls, too many for one span each.
	nextCalls, nextNanos atomic.Int64
}

// span is one call into a layer.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Cell   string `json:"cell,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type spanKey struct{}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// span runs fn as a span named name for cell, labelled for the CPU
// profiler; ctx carries the parent.
func (t *tracer) span(ctx context.Context, name, cell string, fn func(context.Context) error) error {
	return t.record(ctx, name, cell, true, fn)
}

// region is a span of the benchmark's own (set-up, warm-up) without a
// profiler label, which goroutines it starts would otherwise inherit.
func (t *tracer) region(ctx context.Context, name string, fn func(context.Context) error) error {
	return t.record(ctx, name, "", false, fn)
}

func (t *tracer) record(ctx context.Context, name, cell string, label bool, fn func(context.Context) error) error {
	if t == nil {
		return fn(ctx)
	}
	parent, _ := ctx.Value(spanKey{}).(int64)
	id := t.nextID.Add(1)
	ctx = context.WithValue(ctx, spanKey{}, id)
	start := time.Since(t.epoch)
	var err error
	if label {
		pprof.Do(ctx, pprof.Labels("span", name), func(ctx context.Context) { err = fn(ctx) })
	} else {
		err = fn(ctx)
	}
	end := time.Since(t.epoch)
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Cell: cell, Start: int64(start), End: int64(end)})
	t.mu.Unlock()
	return err
}

func (t *tracer) startProfile() {
	if err := pprof.StartCPUProfile(&t.prof); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: cpu profile: %v\n", err)
	}
}

func (t *tracer) stopProfile() { pprof.StopCPUProfile() }

// spanStats summarises the spans of one name.
type spanStats struct {
	Name  string
	Count int
	P50   time.Duration
	Total time.Duration
}

func (t *tracer) summary() []spanStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	by := map[string][]time.Duration{}
	for _, s := range t.spans {
		by[s.Name] = append(by[s.Name], time.Duration(s.End-s.Start))
	}
	var out []spanStats
	for name, ds := range by {
		var total time.Duration
		for _, d := range ds {
			total += d
		}
		out = append(out, spanStats{name, len(ds), percentile(ds, 0.5), total})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// runSpans are the spans that run a simulation.
var runSpans = map[string]bool{"harness.RunSeeded": true, "gpusim.RunWithCheckpoints": true}

// metrics are the span-derived per-layer metrics every workload has.
func (t *tracer) metrics() map[string]metric {
	m := map[string]metric{"spans.count": {0, "count"}, "gpusim.run_s": {0, "s"}, "harness.render_ms": {0, "ms"}}
	for _, s := range t.summary() {
		m["spans.count"] = metric{m["spans.count"].Value + float64(s.Count), "count"}
		switch s.Name {
		case "harness.WriteRunJSON":
			m["harness.render_ms"] = metric{ms(s.P50), "ms"}
		}
		if runSpans[s.Name] {
			m["gpusim.run_s"] = metric{m["gpusim.run_s"].Value + s.Total.Seconds(), "s"}
		}
	}
	return m
}

func (t *tracer) printSummary(w io.Writer) {
	fmt.Fprintf(w, "\nspans (benchmark-side calls into each layer):\n")
	fmt.Fprintf(w, "  %-30s %9s %12s %12s\n", "name", "count", "p50 ms", "total s")
	for _, s := range t.summary() {
		fmt.Fprintf(w, "  %-30s %9d %12.4f %12.3f\n", s.Name, s.Count, ms(s.P50), s.Total.Seconds())
	}
	byScheme := map[string]time.Duration{}
	t.mu.Lock()
	for _, s := range t.spans {
		if parts := strings.Split(s.Cell, "/"); runSpans[s.Name] && len(parts) == 3 {
			byScheme[parts[1]] += time.Duration(s.End - s.Start)
		}
	}
	t.mu.Unlock()
	for _, scheme := range sortedKeys(byScheme) {
		fmt.Fprintf(w, "  gpusim.run_s.%-17s %34.3f\n", scheme, byScheme[scheme].Seconds())
	}
	if n := t.nextCalls.Load(); n > 0 {
		fmt.Fprintf(w, "  %-30s %9d %12.6f %12.3f   (aggregated, ns each: %.1f)\n", "trace.Replay.Next", n,
			float64(t.nextNanos.Load())/float64(n)/1e6, float64(t.nextNanos.Load())/1e9, float64(t.nextNanos.Load())/float64(n))
	}
}

// write stores the spans, the profile summary and the cell digests,
// and next to them the raw CPU profile, under dir.
func (t *tracer) write(dir, wl string, seed uint64, p *profileSummary, digests map[string]string) error {
	base := filepath.Join(dir, "traces", fmt.Sprintf("%s-seed%d", wl, seed))
	if err := os.MkdirAll(filepath.Dir(base), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	blob, err := json.Marshal(map[string]any{"workload": wl, "seed": seed, "spans": t.spans, "profile": p, "digests": digests})
	t.mu.Unlock()
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".spans.json", blob, 0o644); err != nil {
		return err
	}
	return os.WriteFile(base+".cpu.pprof", t.prof.Bytes(), 0o644)
}

// modules are the layers CPU samples are attributed to, named after the
// repository's packages; nethttp is the standard library's net/http.
var modules = []string{
	"sim", "gpusim", "workload", "cache", "dram", "secmem", "counters", "bmt", "valcache", "crypto",
	"dense", "geom", "stats", "checkpoint", "trace", "harness", "server", "cluster", "castore", "nethttp",
}

const repoPrefix = "github.com/plutus-gpu/plutus/internal/"

// moduleOf maps a function name to its module, or "" outside them.
func moduleOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, repoPrefix); ok {
		end := strings.IndexAny(rest, "./")
		if end < 0 {
			return ""
		}
		switch m := rest[:end]; m {
		case "valmodel":
			return "workload"
		default:
			for _, known := range modules {
				if m == known {
					return m
				}
			}
			return ""
		}
	}
	if strings.HasPrefix(fn, "net/http.") {
		return "nethttp"
	}
	return ""
}

// isGC reports whether a runtime frame is garbage-collector work.
func isGC(fn string) bool {
	for _, p := range []string{"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot", "runtime.scanobject", "runtime.sweepone"} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// profileSummary is the CPU profile of the traced phase, attributed to
// modules: each sample goes to the innermost frame inside a module, and
// samples with no such frame to "other", so the shares sum to 1.
type profileSummary struct {
	Samples  int64            `json:"samples"`
	ByModule map[string]int64 `json:"by_module"`
	GC       int64            `json:"gc"`
	BySpan   map[string]int64 `json:"by_span_label"`
}

func (t *tracer) profile() (*profileSummary, error) {
	samples, err := parseProfile(t.prof.Bytes())
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	ps := &profileSummary{ByModule: map[string]int64{}, BySpan: map[string]int64{}}
	for _, s := range samples {
		n := s.count
		ps.Samples += n
		mod, gc := "other", false
		for _, fn := range s.stack {
			if mod == "other" {
				if m := moduleOf(fn); m != "" {
					mod = m
				}
			}
			gc = gc || isGC(fn)
		}
		ps.ByModule[mod] += n
		if gc {
			ps.GC += n
		}
		label := s.labels["span"]
		if label == "" {
			label = "(none)"
		}
		ps.BySpan[label] += n
	}
	return ps, nil
}

func (ps *profileSummary) frac(n int64) float64 {
	if ps.Samples == 0 {
		return 0
	}
	return float64(n) / float64(ps.Samples)
}

func (ps *profileSummary) metrics() map[string]metric {
	m := map[string]metric{
		"profile.samples": {float64(ps.Samples), "count"},
		"runtime.gc_frac": {ps.frac(ps.GC), "frac"},
		"other.self_frac": {ps.frac(ps.ByModule["other"]), "frac"},
	}
	for _, mod := range modules {
		m[mod+".self_frac"] = metric{ps.frac(ps.ByModule[mod]), "frac"}
	}
	return m
}

func (ps *profileSummary) print(w io.Writer) {
	fmt.Fprintf(w, "\nCPU profile of the traced phase: %d samples (innermost repository frame; net/http as nethttp)\n", ps.Samples)
	fmt.Fprintf(w, "  %-12s %9s %8s\n", "module", "samples", "share")
	for _, mod := range append(append([]string(nil), modules...), "other") {
		if n := ps.ByModule[mod]; n > 0 {
			fmt.Fprintf(w, "  %-12s %9d %8.4f\n", mod, n, ps.frac(n))
		}
	}
	fmt.Fprintf(w, "  %-12s %9d %8.4f   (samples with a GC frame anywhere; overlaps the rows above)\n", "runtime.gc", ps.GC, ps.frac(ps.GC))
	fmt.Fprintf(w, "samples by span label:\n")
	labels := make([]string, 0, len(ps.BySpan))
	for l := range ps.BySpan {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	for _, l := range labels {
		fmt.Fprintf(w, "  %-30s %9d %8.4f\n", l, ps.BySpan[l], ps.frac(ps.BySpan[l]))
	}
}

// A minimal reader for the gzipped protobuf the runtime's CPU profiler
// writes (profile.proto); the standard library ships a writer only.

type profSample struct {
	count  int64
	stack  []string // function names, innermost first
	labels map[string]string
}

type rawSample struct {
	locs   []uint64
	values []int64
	labels [][2]int64 // string-table indices (key, value)
}

func parseProfile(data []byte) ([]profSample, error) {
	if len(data) == 0 {
		return nil, nil
	}
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	var (
		samples []rawSample
		locs    = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcs   = map[uint64]int64{}    // function id -> name index
		strs    []string
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s rawSample
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, wire, v, b)
				case 2:
					for _, x := range appendVarints(nil, wire, v, b) {
						s.values = append(s.values, int64(x))
					}
				case 3:
					var k, str int64
					eachField(b, func(num, wire int, v uint64, b []byte) error {
						switch num {
						case 1:
							k = int64(v)
						case 2:
							str = int64(v)
						}
						return nil
					})
					s.labels = append(s.labels, [2]int64{k, str})
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(num, wire int, v uint64, b []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	var out []profSample
	for _, s := range samples {
		ps := profSample{labels: map[string]string{}}
		if len(s.values) > 0 {
			ps.count = s.values[0]
		}
		for _, l := range s.locs {
			for _, f := range locs[l] {
				ps.stack = append(ps.stack, str(funcs[f]))
			}
		}
		for _, kv := range s.labels {
			ps.labels[str(kv[0])] = str(kv[1])
		}
		out = append(out, ps)
	}
	return out, nil
}

// eachField calls fn for every field of one protobuf message: v holds a
// varint or fixed value, b a length-delimited payload.
func eachField(buf []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return fmt.Errorf("bad field key")
		}
		buf = buf[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(buf)
			if n <= 0 {
				return fmt.Errorf("bad varint")
			}
			buf = buf[n:]
		case 1:
			if len(buf) < 8 {
				return fmt.Errorf("short fixed64")
			}
			buf = buf[8:]
		case 2:
			l, n := binary.Uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return fmt.Errorf("bad length")
			}
			b = buf[n : n+int(l)]
			buf = buf[n+int(l):]
		case 5:
			if len(buf) < 4 {
				return fmt.Errorf("short fixed32")
			}
			buf = buf[4:]
		default:
			return fmt.Errorf("wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed or not.
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
