// Command plutussim runs one (benchmark, scheme) simulation and prints a
// full statistics report: IPC, DRAM traffic by class, metadata-cache hit
// rates and security-engine event counts.
//
// With -remote it submits the run to a plutusd daemon instead of
// simulating locally and relays the daemon's result bytes verbatim —
// the output is byte-identical either way.
//
// Usage:
//
//	plutussim -bench bfs -scheme plutus
//	plutussim -bench sgemm -scheme pssm -insts 50000 -volta
//	plutussim -bench bfs -scheme plutus -json
//	plutussim -bench bfs -scheme plutus -remote http://127.0.0.1:8091
//	plutussim -list
//
// With -checkpoint-every N (and -checkpoint-dir) the run snapshots its
// complete state every N cycles; if it is killed, rerunning the same
// command with -resume continues from the last snapshot and produces
// output byte-identical to an uninterrupted run at the same cadence:
//
//	plutussim -bench bfs -scheme plutus -checkpoint-dir /tmp/ckpt -checkpoint-every 100000
//	plutussim -bench bfs -scheme plutus -checkpoint-dir /tmp/ckpt -checkpoint-every 100000 -resume
//
// With -tamper-plan FILE the run arms the adversarial fault injector:
// the plan's attacks mutate DRAM-resident state at the given cycles and
// the report gains tamper/verdict lines showing what each scheme
// detected (see internal/tamper for the plan grammar). Plans are local
// only and cannot be combined with -remote:
//
//	plutussim -bench bfs -scheme plutus -tamper-plan attack.plan
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"text/tabwriter"

	"github.com/plutus-gpu/plutus/internal/harness"
	"github.com/plutus-gpu/plutus/internal/prof"
	"github.com/plutus-gpu/plutus/internal/secmem"
	"github.com/plutus-gpu/plutus/internal/server"
	"github.com/plutus-gpu/plutus/internal/server/client"
	"github.com/plutus-gpu/plutus/internal/tamper"
	"github.com/plutus-gpu/plutus/internal/workload"
)

func main() {
	var (
		bench   = flag.String("bench", "bfs", "benchmark name (see -list)")
		scheme  = flag.String("scheme", "plutus", "security scheme (see -list)")
		insts   = flag.Uint64("insts", harness.DefaultInstructions, "warp-instruction budget")
		seed    = flag.Uint64("seed", 0, "workload seed perturbation (0 = canonical instantiation; distinct seeds are distinct runs)")
		volta   = flag.Bool("volta", false, "full 80-SM/32-partition Volta config (slow)")
		asJSON  = flag.Bool("json", false, "print the canonical JSON record instead of the text report")
		remote  = flag.String("remote", "", "submit to a plutusd daemon at this base URL instead of simulating locally")
		list    = flag.Bool("list", false, "list benchmarks, schemes and the scenario corpus, then exit")
		ckptDir = flag.String("checkpoint-dir", "", "directory for run snapshots (required with -checkpoint-every)")
		ckptN   = flag.Uint64("checkpoint-every", 0, "snapshot the run every N cycles (0 = off; cadence affects timing, so compare runs at equal cadence)")
		resume  = flag.Bool("resume", false, "resume from the snapshot in -checkpoint-dir if one exists")
		tplan   = flag.String("tamper-plan", "", "tamper-injection plan file: mutate DRAM state mid-run and report detection verdicts (see internal/tamper)")
		cpuProf = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memProf = flag.String("memprofile", "", "write a pprof allocation profile of the run to this file")
	)
	flag.Parse()

	stopProf, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, "plutussim:", err)
		os.Exit(1)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "plutussim:", err)
		}
	}()

	if *list {
		fmt.Println("benchmarks:", strings.Join(workload.Names(), " "))
		fmt.Println("schemes:   ", strings.Join(secmem.Names(), " "))
		fmt.Println()
		tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
		fmt.Fprintln(tw, "SCENARIO\tWARPS\tINSTS/WARP\tDESCRIPTION")
		for _, name := range workload.ScenarioNames() {
			s, _ := workload.Describe(name)
			fmt.Fprintf(tw, "%s\t%d\t%d\t%s\n", s.Name, s.Warps, s.InstsPerWarp, s.Desc)
		}
		tw.Flush()
		return
	}

	sc, err := secmem.ByName(*scheme, harness.ProtectedBytes)
	if err != nil {
		fmt.Fprintln(os.Stderr, "plutussim:", err)
		os.Exit(1)
	}

	var plan *tamper.Plan
	if *tplan != "" {
		if *remote != "" {
			fmt.Fprintln(os.Stderr, "plutussim: -tamper-plan cannot be combined with -remote (plans run locally)")
			os.Exit(1)
		}
		text, err := os.ReadFile(*tplan)
		if err != nil {
			fmt.Fprintln(os.Stderr, "plutussim:", err)
			os.Exit(1)
		}
		plan, err = tamper.Parse(string(text))
		if err != nil {
			fmt.Fprintf(os.Stderr, "plutussim: %s: %v\n", *tplan, err)
			os.Exit(1)
		}
	}

	if *remote != "" {
		if err := runRemote(*remote, *bench, *scheme, *insts, *seed, *asJSON); err != nil {
			fmt.Fprintln(os.Stderr, "plutussim:", err)
			os.Exit(1)
		}
		return
	}

	if *ckptN > 0 && *ckptDir == "" {
		fmt.Fprintln(os.Stderr, "plutussim: -checkpoint-every requires -checkpoint-dir")
		os.Exit(1)
	}
	if *resume && *ckptN == 0 {
		fmt.Fprintln(os.Stderr, "plutussim: -resume requires -checkpoint-every (the cadence is part of the run's identity)")
		os.Exit(1)
	}
	// One cell: Parallelism 1 gives its simulation every core.
	r := harness.NewRunner(harness.Config{
		MaxInstructions: *insts,
		Benchmarks:      []string{*bench},
		Parallelism:     1,
		FullVolta:       *volta,
		CheckpointEvery: *ckptN,
		CheckpointDir:   *ckptDir,
		Resume:          *resume,
		TamperPlan:      plan,
	})
	st, err := r.RunSeeded(*bench, sc, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "plutussim:", err)
		os.Exit(1)
	}
	if *asJSON {
		if err := harness.WriteRunJSON(os.Stdout, st); err != nil {
			fmt.Fprintln(os.Stderr, "plutussim:", err)
			os.Exit(1)
		}
		return
	}
	fmt.Print(harness.Report(st, sc))
}

// runRemote submits the run to plutusd, waits for it to settle, and
// relays the daemon-rendered result bytes to stdout unmodified. The
// budget travels in the request so the daemon rejects a mismatch
// instead of returning a run simulated under different settings.
func runRemote(base, bench, scheme string, insts, seed uint64, asJSON bool) error {
	ctx := context.Background()
	c := client.New(base)
	st, err := c.Run(ctx, server.RunRequest{
		Benchmark:       bench,
		Scheme:          scheme,
		Seed:            seed,
		MaxInstructions: insts,
	})
	if err != nil {
		return err
	}
	if st.State != server.StateDone {
		return fmt.Errorf("remote run %s failed: %s", st.ID, st.Error)
	}
	format := "text"
	if asJSON {
		format = "json"
	}
	body, err := c.Result(ctx, st.ID, format)
	if err != nil {
		return err
	}
	_, err = os.Stdout.Write(body)
	return err
}
