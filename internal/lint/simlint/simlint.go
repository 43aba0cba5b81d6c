// Package simlint bundles the simulator's determinism analyzers into
// one suite and runs them over loaded packages.
//
// The suite is the single registry consulted by cmd/simlint and by the
// //simlint:ignore directive parser, so an analyzer added here is
// automatically runnable, suppressible, and documented by
// `simlint -help`.
package simlint

import (
	"github.com/plutus-gpu/plutus/internal/lint/analysis"
	"github.com/plutus-gpu/plutus/internal/lint/detrand"
	"github.com/plutus-gpu/plutus/internal/lint/hotalloc"
	"github.com/plutus-gpu/plutus/internal/lint/loader"
	"github.com/plutus-gpu/plutus/internal/lint/maporder"
	"github.com/plutus-gpu/plutus/internal/lint/rawconc"
	"github.com/plutus-gpu/plutus/internal/lint/snapsym"
	"github.com/plutus-gpu/plutus/internal/lint/statskey"
	"github.com/plutus-gpu/plutus/internal/lint/stickyerr"
)

// Analyzers returns the suite in stable (alphabetical) order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		detrand.Analyzer,
		hotalloc.Analyzer,
		maporder.Analyzer,
		rawconc.Analyzer,
		snapsym.Analyzer,
		statskey.Analyzer,
		stickyerr.Analyzer,
	}
}

// Names returns the set of analyzer names, the universe recognised by
// //simlint:ignore directives.
func Names() map[string]bool {
	names := make(map[string]bool)
	for _, a := range Analyzers() {
		names[a.Name] = true
	}
	return names
}

// RunPackage runs every analyzer over one loaded unit and returns the
// surviving diagnostics after //simlint:ignore suppression, sorted by
// position. Because the full suite runs, suppression is checked: a
// directive that suppresses nothing is itself reported (analyzer
// "unusedignore") so stale ignores can't linger after the code they
// excused is fixed or deleted.
func RunPackage(pkg *loader.Package) ([]analysis.Diagnostic, error) {
	var diags []analysis.Diagnostic
	for _, a := range Analyzers() {
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			Report: func(d analysis.Diagnostic) {
				diags = append(diags, d)
			},
		}
		if err := a.Run(pass); err != nil {
			return nil, err
		}
	}
	return analysis.SuppressChecked(pkg.Fset, pkg.Files, Names(), diags), nil
}

// RunPackages runs the suite over every unit in order, concatenating
// surviving diagnostics in unit order.
func RunPackages(pkgs []*loader.Package) ([]analysis.Diagnostic, error) {
	var all []analysis.Diagnostic
	for _, pkg := range pkgs {
		diags, err := RunPackage(pkg)
		if err != nil {
			return nil, err
		}
		all = append(all, diags...)
	}
	return all, nil
}
