// Command simlint statically enforces the simulator's determinism and
// performance invariants. It bundles seven analyzers:
//
//	detrand   — no wall-clock reads or unseeded randomness in
//	            sim-critical packages (simulated time is sim.Cycle)
//	hotalloc  — functions annotated //simlint:hotpath must be
//	            allocation-free per the compiler's escape analysis
//	maporder  — no order-sensitive work inside `range` over a map
//	            (collect keys, sort, then iterate)
//	rawconc   — no raw goroutines or channel operations outside the
//	            allowlist; concurrency goes through the engine
//	snapsym   — Snapshot/Restore method pairs must write and read the
//	            same receiver fields in the same order
//	statskey  — stats table and CSV column keys must be compile-time
//	            constants so output schemas never drift at runtime
//	stickyerr — codec functions must not drop, shadow, overwrite, or
//	            ignore error values; codec errors are sticky
//
// Findings are suppressed line-by-line with
//
//	//simlint:ignore <analyzer> <reason>
//
// where the reason is mandatory; a trailing directive covers its own
// line and an own-line directive covers the next line. When the full
// suite runs, a directive that suppresses nothing is itself an error
// (analyzer "unusedignore").
//
// Usage:
//
//	simlint [-sarif] [packages]    # defaults to ./...
//
// Each finding carries a stable ID (hash of analyzer, root-relative
// path, and message) so annotations keep their identity across
// unrelated edits. -sarif emits a SARIF 2.1.0 log for CI code-scanning
// upload instead of one text line per finding.
//
// Exit status: 0 clean, 1 tool error, 2 findings reported.
package main

import (
	"fmt"
	"os"
	"strings"

	"github.com/plutus-gpu/plutus/internal/lint/loader"
	"github.com/plutus-gpu/plutus/internal/lint/simlint"
)

func main() {
	var sarifOut bool
	var patterns []string
	for _, a := range os.Args[1:] {
		switch a {
		case "-h", "-help", "--help":
			usage()
			return
		case "-sarif", "--sarif":
			sarifOut = true
		default:
			if strings.HasPrefix(a, "-") {
				fmt.Fprintf(os.Stderr, "simlint: unknown flag %s\n", a)
				os.Exit(1)
			}
			patterns = append(patterns, a)
		}
	}
	pkgs, err := loader.Load("", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	diags, err := simlint.RunPackages(pkgs)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	var fs []finding
	if len(pkgs) > 0 {
		fs = render(pkgs[0].Fset, diags)
	} else {
		fs = []finding{}
	}
	if sarifOut {
		if err := emitSARIF(fs); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	} else {
		emitText(fs)
	}
	if len(fs) > 0 {
		os.Exit(2)
	}
}

func usage() {
	fmt.Print(`simlint enforces the simulator's determinism invariants.

Usage:
  simlint [-sarif] [packages]    defaults to ./...

Flags:
  -sarif   emit a SARIF 2.1.0 log for CI code-scanning upload

Analyzers:
`)
	for _, a := range simlint.Analyzers() {
		fmt.Printf("  %-9s  %s\n", a.Name, a.Doc)
	}
	fmt.Print(`
Suppress a finding with a mandatory reason:
  //simlint:ignore <analyzer> <reason>      trailing: covers its line
                                            own line: covers the next line
In full-suite runs a directive that suppresses nothing is itself an
error (unusedignore): remove directives when the code they excused is
fixed.
`)
}
