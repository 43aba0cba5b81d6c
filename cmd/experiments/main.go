// Command experiments regenerates every table and figure of the paper's
// evaluation section, writing one text report per figure into -out and a
// combined summary to stdout.
//
// Usage:
//
//	experiments                       # all figures, default budget
//	experiments -fig fig18            # one figure
//	experiments -insts 60000 -out results
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/plutus-gpu/plutus/internal/harness"
	"github.com/plutus-gpu/plutus/internal/secmem"
	"github.com/plutus-gpu/plutus/internal/workload"
)

func main() {
	var (
		fig     = flag.String("fig", "", "run a single figure (e.g. fig18); empty = all")
		insts   = flag.Uint64("insts", 20000, "warp-instruction budget per run")
		outDir  = flag.String("out", "results", "output directory for per-figure reports")
		benches = flag.String("benchmarks", "", "comma-separated benchmark subset (default all)")
		volta   = flag.Bool("volta", false, "full Volta configuration (much slower)")
		par     = flag.Int("parallel", 0, "concurrent simulations (default GOMAXPROCS); each uses its share of the cores")
		csvOut  = flag.Bool("csv", false, "also write raw per-run measurements to <out>/runs.csv")
	)
	flag.Parse()

	cfg := harness.DefaultConfig()
	cfg.MaxInstructions = *insts
	cfg.FullVolta = *volta
	cfg.Parallelism = *par
	if *benches != "" {
		cfg.Benchmarks = strings.Split(*benches, ",")
	} else {
		cfg.Benchmarks = workload.SuiteNames()
	}
	r := harness.NewRunner(cfg)

	figs := harness.Figures()
	if *fig != "" {
		f, err := harness.FigureByID(*fig)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		figs = []harness.Figure{f}
	}

	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}

	for _, f := range figs {
		start := time.Now()
		fmt.Printf("== %s ==\n", f.Title)
		out, err := f.Run(r)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", f.ID, err)
			os.Exit(1)
		}
		fmt.Println(out)
		path := filepath.Join(*outDir, f.ID+".txt")
		body := r.FigureFile(f, out, time.Since(start))
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
	}

	if *csvOut {
		f, err := os.Create(filepath.Join(*outDir, "runs.csv"))
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		defer f.Close()
		schemes := []secmem.Config{
			secmem.Baseline(0), secmem.PSSM(0), secmem.CommonCtr(0), secmem.Plutus(0),
		}
		if err := r.WriteCSV(f, schemes); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		fmt.Println("wrote", filepath.Join(*outDir, "runs.csv"))
	}
}
