// Package stickyerr enforces the codec's sticky-error discipline.
//
// The PLUTSNAP decoder makes errors sticky — after the first failed
// read every subsequent read returns zero — precisely so a decode body
// can run straight through and check Err/Finish once. That contract
// collapses if an error value is dropped on the floor, overwritten
// before anyone looks at it, or shadowed by an inner declaration while
// still unchecked: the decode "succeeds", state is half-restored, and
// the corruption surfaces far away (if at all). The same applies inside
// a Codec walk, whose error-returning calls (a workload's RestoreCursor,
// say) must reach the codec through Fail rather than vanish.
//
// The analyzer applies to codec functions in sim-critical packages —
// functions whose parameters or body touch a checkpoint.Encoder,
// checkpoint.Decoder or checkpoint.Codec — and flags:
//
//   - a call whose error result is dropped (an expression statement,
//     or an error assigned to the blank identifier);
//   - an error variable overwritten by a straight-line later statement
//     in the same block with no intervening check;
//   - a declaration that shadows an error variable which still holds
//     an unchecked value;
//   - an error variable that is assigned but never checked anywhere in
//     the function.
package stickyerr

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"github.com/plutus-gpu/plutus/internal/lint/analysis"
	"github.com/plutus-gpu/plutus/internal/lint/scope"
)

// Analyzer implements the check.
var Analyzer = &analysis.Analyzer{
	Name: "stickyerr",
	Doc: "codec functions must not drop, shadow, or overwrite unchecked errors; " +
		"the sticky-error discipline is check-once-after-the-run, never never-check",
	Run: run,
}

var errType = types.Universe.Lookup("error").Type()

func run(pass *analysis.Pass) error {
	if !scope.StickyErr(pass.Pkg.Path()) {
		return nil
	}
	for _, file := range pass.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if !isCodecFunc(pass, fd) {
				continue
			}
			checkFunc(pass, fd)
		}
	}
	return nil
}

// isCodecFunc reports whether fd's signature or body involves a
// checkpoint.Encoder, checkpoint.Decoder or checkpoint.Codec value.
func isCodecFunc(pass *analysis.Pass, fd *ast.FuncDecl) bool {
	found := false
	ast.Inspect(fd, func(n ast.Node) bool {
		if found {
			return false
		}
		e, ok := n.(ast.Expr)
		if !ok {
			return true
		}
		if tv, ok := pass.TypesInfo.Types[e]; ok && isCodecType(tv.Type) {
			found = true
			return false
		}
		return true
	})
	return found
}

// isCodecType reports whether t is (a pointer to) checkpoint.Encoder,
// checkpoint.Decoder or checkpoint.Codec.
func isCodecType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || scope.Norm(obj.Pkg().Path()) != "internal/checkpoint" {
		return false
	}
	switch obj.Name() {
	case "Encoder", "Decoder", "Codec":
		return true
	}
	return false
}

// funcFacts is the per-function event record the checks consume.
type funcFacts struct {
	pass *analysis.Pass
	// writes[obj] are positions where obj is assigned (sorted).
	writes map[*types.Var][]token.Pos
	// reads[obj] are positions where obj is used outside an assignment
	// LHS (sorted). A bare return in a function with a named error
	// result counts as a read of that result.
	reads map[*types.Var][]token.Pos
	// lhs marks identifiers appearing as assignment targets.
	lhs map[*ast.Ident]bool
	// discarded marks identifiers whose only role is `_ = err` — a
	// compiler-silencing discard, not a check.
	discarded map[*ast.Ident]bool
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	ff := &funcFacts{
		pass:      pass,
		writes:    map[*types.Var][]token.Pos{},
		reads:     map[*types.Var][]token.Pos{},
		lhs:       map[*ast.Ident]bool{},
		discarded: map[*ast.Ident]bool{},
	}
	namedResults := namedErrorResults(pass, fd)

	// Pass 1: assignment targets, dropped results, blank discards.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			ff.recordAssign(n)
		case *ast.ExprStmt:
			if call, ok := n.X.(*ast.CallExpr); ok {
				if hasErrorResult(pass, call) && !infallibleCall(pass, call) {
					pass.Reportf(n.Pos(),
						"error returned by %s is dropped; codec errors are sticky — assign and check it",
						calleeName(call))
				}
			}
		}
		return true
	})

	// Pass 2: reads (uses that are not assignment targets) and bare
	// returns reading named error results.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			if ff.lhs[n] || ff.discarded[n] {
				return true
			}
			if v, ok := pass.TypesInfo.Uses[n].(*types.Var); ok && isErrorVar(v) {
				ff.reads[v] = append(ff.reads[v], n.Pos())
			}
		case *ast.ReturnStmt:
			if len(n.Results) == 0 {
				for _, v := range namedResults {
					ff.reads[v] = append(ff.reads[v], n.Pos())
				}
			}
		}
		return true
	})
	for _, ps := range ff.reads {
		sort.Slice(ps, func(i, j int) bool { return ps[i] < ps[j] })
	}

	// Overwrite check: straight-line writes in the same statement list
	// with no read in between.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BlockStmt:
			ff.checkList(n.List)
		case *ast.CaseClause:
			ff.checkList(n.Body)
		}
		return true
	})

	// Shadow check: a := declaration introducing a new error variable
	// whose name matches another error variable with an unchecked write
	// before this point.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || as.Tok != token.DEFINE {
			return true
		}
		for _, l := range as.Lhs {
			id, ok := l.(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			def, ok := ff.pass.TypesInfo.Defs[id].(*types.Var)
			if !ok || !isErrorVar(def) {
				continue
			}
			for outer := range ff.writes {
				if outer == def || outer.Name() != def.Name() {
					continue
				}
				if w, ok := ff.lastBefore(ff.writes[outer], id.Pos()); ok &&
					!ff.readBetween(outer, w, id.Pos()) {
					pass.Reportf(id.Pos(),
						"%s shadows an error that has not been checked yet (assigned at %s)",
						id.Name, pass.Fset.Position(w))
				}
			}
		}
		return true
	})

	// Never-checked: written somewhere, read nowhere. Named results are
	// exempt (a bare return reads them; a tail `return err` shows as a
	// read anyway).
	isResult := map[*types.Var]bool{}
	for _, v := range namedResults {
		isResult[v] = true
	}
	var never []*types.Var
	for v, ws := range ff.writes {
		if len(ff.reads[v]) == 0 && !isResult[v] && len(ws) > 0 {
			never = append(never, v)
		}
	}
	sort.Slice(never, func(i, j int) bool { return never[i].Pos() < never[j].Pos() })
	for _, v := range never {
		ws := ff.writes[v]
		sort.Slice(ws, func(i, j int) bool { return ws[i] < ws[j] })
		pass.Reportf(ws[0], "error %s is assigned but never checked", v.Name())
	}
}

// recordAssign registers assignment targets: error-typed variables as
// writes, blank identifiers receiving an error result as discards.
func (ff *funcFacts) recordAssign(as *ast.AssignStmt) {
	pass := ff.pass
	for i, l := range as.Lhs {
		id, ok := l.(*ast.Ident)
		if !ok {
			continue
		}
		ff.lhs[id] = true
		if id.Name == "_" {
			if typeAtResult(pass, as, i) == nil {
				continue
			}
			// `_ = err` on an existing variable is a compiler-silencing
			// discard: not reported here, but it does not count as a
			// check either, so the never-checked pass sees through it.
			if len(as.Rhs) == len(as.Lhs) {
				if rid, ok := as.Rhs[i].(*ast.Ident); ok {
					if v, ok := pass.TypesInfo.Uses[rid].(*types.Var); ok && isErrorVar(v) {
						ff.discarded[rid] = true
						continue
					}
				}
			}
			if call, ok := rhsCall(as); ok && infallibleCall(pass, call) {
				continue
			}
			pass.Reportf(id.Pos(),
				"error result discarded with _; codec errors are sticky — assign and check it")
			continue
		}
		var v *types.Var
		if d, ok := pass.TypesInfo.Defs[id].(*types.Var); ok {
			v = d
		} else if u, ok := pass.TypesInfo.Uses[id].(*types.Var); ok {
			v = u
		}
		if v != nil && isErrorVar(v) {
			ff.writes[v] = append(ff.writes[v], id.Pos())
		}
	}
}

// checkList flags straight-line overwrites within one statement list.
func (ff *funcFacts) checkList(list []ast.Stmt) {
	last := map[*types.Var]token.Pos{}
	for _, st := range list {
		as, ok := st.(*ast.AssignStmt)
		if !ok {
			continue
		}
		for _, l := range as.Lhs {
			id, ok := l.(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			var v *types.Var
			if d, ok := ff.pass.TypesInfo.Defs[id].(*types.Var); ok {
				v = d
			} else if u, ok := ff.pass.TypesInfo.Uses[id].(*types.Var); ok {
				v = u
			}
			if v == nil || !isErrorVar(v) {
				continue
			}
			if prev, ok := last[v]; ok && !ff.readBetween(v, prev, id.Pos()) {
				ff.pass.Reportf(id.Pos(),
					"error %s is overwritten before it is checked (previous assignment at %s)",
					v.Name(), ff.pass.Fset.Position(prev))
			}
			last[v] = id.Pos()
		}
	}
}

// readBetween reports whether v is read at a position in (lo, hi).
func (ff *funcFacts) readBetween(v *types.Var, lo, hi token.Pos) bool {
	for _, p := range ff.reads[v] {
		if p > lo && p < hi {
			return true
		}
	}
	return false
}

// lastBefore returns the greatest position in ps below hi.
func (ff *funcFacts) lastBefore(ps []token.Pos, hi token.Pos) (token.Pos, bool) {
	var best token.Pos
	found := false
	for _, p := range ps {
		if p < hi && (!found || p > best) {
			best, found = p, true
		}
	}
	return best, found
}

func isErrorVar(v *types.Var) bool {
	return types.Identical(v.Type(), errType)
}

// namedErrorResults returns fd's named error-typed result variables.
func namedErrorResults(pass *analysis.Pass, fd *ast.FuncDecl) []*types.Var {
	var out []*types.Var
	if fd.Type.Results == nil {
		return nil
	}
	for _, f := range fd.Type.Results.List {
		for _, name := range f.Names {
			if v, ok := pass.TypesInfo.Defs[name].(*types.Var); ok && isErrorVar(v) {
				out = append(out, v)
			}
		}
	}
	return out
}

// hasErrorResult reports whether call returns an error (alone or as the
// last element of a tuple).
func hasErrorResult(pass *analysis.Pass, call *ast.CallExpr) bool {
	tv, ok := pass.TypesInfo.Types[call]
	if !ok || tv.Type == nil {
		return false
	}
	switch t := tv.Type.(type) {
	case *types.Tuple:
		return t.Len() > 0 && types.Identical(t.At(t.Len()-1).Type(), errType)
	default:
		return types.Identical(t, errType)
	}
}

// typeAtResult returns the error type if assignment position i of as
// receives an error value, or nil. Handles both one-to-one assignments
// and a single multi-result call on the RHS.
func typeAtResult(pass *analysis.Pass, as *ast.AssignStmt, i int) types.Type {
	if len(as.Rhs) == len(as.Lhs) {
		if tv, ok := pass.TypesInfo.Types[as.Rhs[i]]; ok && tv.Type != nil &&
			types.Identical(tv.Type, errType) {
			return tv.Type
		}
		return nil
	}
	if len(as.Rhs) == 1 {
		if tv, ok := pass.TypesInfo.Types[as.Rhs[0]]; ok {
			if t, ok := tv.Type.(*types.Tuple); ok && i < t.Len() &&
				types.Identical(t.At(i).Type(), errType) {
				return t.At(i).Type()
			}
		}
	}
	return nil
}

// calleeName renders call's function expression for diagnostics.
func calleeName(call *ast.CallExpr) string {
	return types.ExprString(call.Fun)
}

// rhsCall returns the sole call expression feeding as, if any.
func rhsCall(as *ast.AssignStmt) (*ast.CallExpr, bool) {
	if len(as.Rhs) != 1 {
		return nil, false
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	return call, ok
}

// infallibleCall exempts methods whose error result is documented to
// always be nil — bytes.Buffer and strings.Builder writes, which the
// codec's Encoder is built on. Flagging those would force directives on
// every primitive the Encoder emits, training people to ignore the
// analyzer.
func infallibleCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	s, ok := pass.TypesInfo.Selections[sel]
	if !ok {
		return false
	}
	t := s.Recv()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	pkg, name := named.Obj().Pkg().Path(), named.Obj().Name()
	return (pkg == "bytes" && name == "Buffer") || (pkg == "strings" && name == "Builder")
}
