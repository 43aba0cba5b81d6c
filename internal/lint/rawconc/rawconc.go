// Package rawconc forbids raw concurrency — go statements and channel
// operations — everywhere in the module except an explicit allowlist
// (see scope.RawConc): internal/sim's mailbox machinery, the harness's
// run fan-out, the plutusd serving tree, and the cluster coordinator
// (leases, steals and heartbeats are network orchestration over
// finished, content-addressed results — note the result store itself,
// internal/castore, stays denied).
//
// PR 1's determinism proof rests on a single discipline: every
// cross-shard interaction is a cycle-stamped message delivered through
// internal/sim's mailboxes at conservative lookahead barriers. A bare
// goroutine or channel anywhere else that can reach simulation state
// reintroduces scheduler-dependent ordering that no seed matrix can
// reliably catch. Model code requests cross-partition work via
// sim.Shard.Send; packages whose concurrency never touches simulation
// state (the daemon's queue and worker pool) are allowed by name, so
// the default for a new package is deny.
package rawconc

import (
	"go/ast"
	"go/token"
	"go/types"

	"github.com/plutus-gpu/plutus/internal/lint/analysis"
	"github.com/plutus-gpu/plutus/internal/lint/scope"
)

// Analyzer implements the check.
var Analyzer = &analysis.Analyzer{
	Name: "rawconc",
	Doc: "forbid go statements and raw channel operations outside the allowlisted packages " +
		"(internal/sim, internal/harness, internal/server, internal/cluster, cmd/plutusd); " +
		"cross-shard traffic must use the cycle-stamped mailbox path (sim.Shard.Send)",
	Run: run,
}

const redirect = "route cross-shard work through sim.Shard.Send / sim.Cluster instead"

func run(pass *analysis.Pass) error {
	if !scope.RawConc(pass.Pkg.Path()) {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				pass.Reportf(n.Pos(), "go statement in determinism-scoped package %s spawns an unscheduled goroutine; %s",
					scope.Norm(pass.Pkg.Path()), redirect)
			case *ast.SendStmt:
				pass.Reportf(n.Pos(), "raw channel send in determinism-scoped package %s; %s",
					scope.Norm(pass.Pkg.Path()), redirect)
			case *ast.UnaryExpr:
				if n.Op == token.ARROW {
					pass.Reportf(n.Pos(), "raw channel receive in determinism-scoped package %s; %s",
						scope.Norm(pass.Pkg.Path()), redirect)
				}
			case *ast.SelectStmt:
				pass.Reportf(n.Pos(), "select statement in determinism-scoped package %s; %s",
					scope.Norm(pass.Pkg.Path()), redirect)
			case *ast.RangeStmt:
				if t := pass.TypesInfo.TypeOf(n.X); t != nil {
					if _, isChan := t.Underlying().(*types.Chan); isChan {
						pass.Reportf(n.Pos(), "range over a channel in determinism-scoped package %s; %s",
							scope.Norm(pass.Pkg.Path()), redirect)
					}
				}
			case *ast.CallExpr:
				if analysis.IsBuiltin(pass.TypesInfo, n.Fun, "make") && len(n.Args) > 0 {
					if t := pass.TypesInfo.TypeOf(n.Args[0]); t != nil {
						if _, isChan := t.Underlying().(*types.Chan); isChan {
							pass.Reportf(n.Pos(), "make(chan) in determinism-scoped package %s; %s",
								scope.Norm(pass.Pkg.Path()), redirect)
						}
					}
				}
			}
			return true
		})
	}
	return nil
}
