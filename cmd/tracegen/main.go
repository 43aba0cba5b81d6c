// Command tracegen captures a workload's issued instruction stream into
// a PLTR-v2 trace, or inspects an existing trace file.
//
// Capture runs the workload through the real simulator with an issue
// tap, so the trace is the stream an actual run issued — not an
// approximation — and the run's stats double as the replay reference.
// Captured traces replay anywhere a benchmark name is accepted via the
// `trace:<path>` workload namespace:
//
//	tracegen -bench bfs -insts 100000 -o bfs.pltr
//	tracegen -bench scn-dnn-infer -o dnn.pltr
//	tracegen -seed 7 -bench bfs -o bfs-7.pltr
//	tracegen -inspect bfs.pltr
//	plutussim -bench trace:bfs.pltr -scheme plutus
//
// `plutussim -list` lists the workloads, the scenario corpus included.
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/plutus-gpu/plutus/internal/gpusim"
	"github.com/plutus-gpu/plutus/internal/harness"
	"github.com/plutus-gpu/plutus/internal/secmem"
	"github.com/plutus-gpu/plutus/internal/trace"
	"github.com/plutus-gpu/plutus/internal/workload"
)

func main() {
	var (
		bench   = flag.String("bench", "bfs", "workload to capture (suite, scenario, or trace:<path>; see plutussim -list)")
		seed    = flag.Uint64("seed", 0, "workload seed perturbation (0 = canonical instantiation)")
		scheme  = flag.String("scheme", "plutus", "security scheme the capture run executes under")
		insts   = flag.Uint64("insts", 100000, "warp-instruction budget of the capture run")
		out     = flag.String("o", "", "output trace path (default <bench>.pltr)")
		inspect = flag.String("inspect", "", "print header/chunk/index stats of an existing trace and exit")
		report  = flag.Bool("report", false, "print the capture run's stats report after writing the trace")
	)
	flag.Parse()

	if err := run(*bench, *scheme, *out, *inspect, *seed, *insts, *report); err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
}

func run(bench, scheme, out, inspect string, seed, insts uint64, report bool) error {
	if inspect != "" {
		return inspectTrace(inspect)
	}

	wl, err := workload.GetSeeded(bench, seed)
	if err != nil {
		return err
	}
	sc, err := secmem.ByName(scheme, harness.ProtectedBytes)
	if err != nil {
		return err
	}
	cfg := gpusim.ScaledConfig(sc)
	cfg.Sec.ProtectedBytes = harness.ProtectedBytes
	cfg.MaxInstructions = insts

	path := out
	if path == "" {
		path = bench + ".pltr"
	}
	// Stream through a temp file and rename, so a crashed capture never
	// leaves a valid-looking partial trace at the final path.
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	st, err := trace.Capture(cfg, wl, f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	fmt.Printf("captured %d instructions (%d warps, %d cycles) from %s under %s into %s\n",
		st.Instructions, wl.Warps(), st.Cycles, bench, scheme, path)
	if report {
		fmt.Print(harness.Report(st, sc))
	}
	return nil
}

// inspectTrace prints the v2 header, per-warp chunk index, and record
// mix without ever materializing the whole trace.
func inspectTrace(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return err
	}
	r, err := trace.NewReader(f, fi.Size())
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}

	hdr := r.Header()
	var chunks int
	var payload uint64
	minChunk, maxChunk := ^uint32(0), uint32(0)
	for w := 0; w < r.Warps(); w++ {
		for _, ci := range r.Index(w) {
			chunks++
			payload += uint64(ci.PayloadLen)
			if ci.Count < minChunk {
				minChunk = ci.Count
			}
			if ci.Count > maxChunk {
				maxChunk = ci.Count
			}
		}
	}
	var loads, stores, computes, addrs uint64
	for w := 0; w < r.Warps(); w++ {
		for i := 0; i < r.Chunks(w); i++ {
			recs, err := r.LoadChunk(w, i)
			if err != nil {
				return fmt.Errorf("%s: warp %d chunk %d: %w", path, w, i, err)
			}
			for _, rec := range recs {
				switch rec.Kind {
				case gpusim.Load:
					loads++
					addrs += uint64(len(rec.Addrs))
				case gpusim.Store:
					stores++
					addrs += uint64(len(rec.Addrs))
				default:
					computes++
				}
			}
		}
	}

	fmt.Printf("%s: PLTR v2, %d bytes\n", path, fi.Size())
	fmt.Printf("  warps         %d\n", r.Warps())
	fmt.Printf("  records       %d (%d loads, %d stores, %d compute; %d thread addresses)\n",
		r.TotalRecords(), loads, stores, computes, addrs)
	fmt.Printf("  chunks        %d (target %d records/chunk, actual %d-%d)\n",
		chunks, hdr.ChunkRecords, minChunk, maxChunk)
	fmt.Printf("  chunk payload %d bytes (%.1f%% of file)\n",
		payload, 100*float64(payload)/float64(fi.Size()))
	if hdr.HasModel {
		m := hdr.Model
		fmt.Printf("  value model   seed=%#x zero=%.2f pool=%.2f/%d jitter=%v\n",
			m.Seed, m.ZeroFrac, m.PoolFrac, m.PoolSize, m.Jitter)
	} else {
		fmt.Printf("  value model   none (replays with zero model)\n")
	}
	return nil
}
