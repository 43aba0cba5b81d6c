// Package snapsym checks that checkpoint walks cover their state.
//
// Each snapshotted type has one Codec method that walks its fields in
// wire order; the same body encodes and decodes (DESIGN.md §8), so the
// two directions cannot drift apart. What one walk cannot show is a
// field it never visits: state that silently never reaches the snapshot
// and resets to its constructed value on every resume, surfacing only
// as a byte-diff in the SIGKILL-resume CI job far from the offending
// declaration.
//
// For every struct type in a sim-critical package with a method named
// Codec that takes a *checkpoint.Codec, the analyzer reports each field
// of the struct that the method body never references (directly on the
// receiver, closures included). Derived or transient fields that are
// deliberately not captured carry a `//simlint:ignore snapsym <reason>`
// directive on their declaration line, which doubles as in-source
// documentation of the exemption.
//
// The check is intraprocedural by design: a call that walks a whole
// sub-object (e.sec.Codec(c)) counts as a reference to that field, and
// the sub-object's own Codec is checked against its own type. Helpers
// not named Codec are not checked.
package snapsym

import (
	"go/ast"
	"go/types"

	"github.com/plutus-gpu/plutus/internal/lint/analysis"
	"github.com/plutus-gpu/plutus/internal/lint/scope"
)

// Analyzer implements the check.
var Analyzer = &analysis.Analyzer{
	Name: "snapsym",
	Doc: "a Codec(*checkpoint.Codec) method must walk every receiver field; " +
		"uncaptured fields need a //simlint:ignore snapsym reason",
	Run: run,
}

func run(pass *analysis.Pass) error {
	if !scope.SnapSym(pass.Pkg.Path()) {
		return nil
	}
	for _, file := range pass.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Body == nil || fd.Name.Name != "Codec" || !takesCodec(pass, fd) {
				continue
			}
			if named := receiverNamed(pass, fd); named != nil {
				checkCoverage(pass, named, fd)
			}
		}
	}
	return nil
}

// takesCodec reports whether one of fd's parameters is a
// *checkpoint.Codec.
func takesCodec(pass *analysis.Pass, fd *ast.FuncDecl) bool {
	for _, p := range fd.Type.Params.List {
		ptr, ok := pass.TypesInfo.TypeOf(p.Type).(*types.Pointer)
		if !ok {
			continue
		}
		if named, ok := ptr.Elem().(*types.Named); ok {
			obj := named.Obj()
			if obj.Pkg() != nil && scope.Norm(obj.Pkg().Path()) == "internal/checkpoint" && obj.Name() == "Codec" {
				return true
			}
		}
	}
	return false
}

// receiverNamed resolves fd's receiver to its named struct type, or nil.
func receiverNamed(pass *analysis.Pass, fd *ast.FuncDecl) *types.Named {
	if len(fd.Recv.List) != 1 {
		return nil
	}
	t := pass.TypesInfo.TypeOf(fd.Recv.List[0].Type)
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return nil
	}
	if _, ok := named.Underlying().(*types.Struct); !ok {
		return nil
	}
	return named
}

// walked returns the receiver fields fd's body references. Only direct
// selections on the receiver identifier count (x.field, including
// inside closures); method values and promoted fields of embedded
// structs do not.
func walked(pass *analysis.Pass, fd *ast.FuncDecl) map[*types.Var]bool {
	seen := map[*types.Var]bool{}
	names := fd.Recv.List[0].Names
	if len(names) != 1 || names[0].Name == "_" {
		return seen
	}
	recvObj := pass.TypesInfo.Defs[names[0]]
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if id, ok := sel.X.(*ast.Ident); !ok || pass.TypesInfo.Uses[id] != recvObj {
			return true
		}
		if s := pass.TypesInfo.Selections[sel]; s != nil && s.Kind() == types.FieldVal && len(s.Index()) == 1 {
			seen[s.Obj().(*types.Var)] = true
		}
		return true
	})
	return seen
}

// checkCoverage reports every field of named that fd never references,
// at the field's declaration so the exemption directive lives next to
// the field it documents.
func checkCoverage(pass *analysis.Pass, named *types.Named, fd *ast.FuncDecl) {
	seen := walked(pass, fd)
	st := named.Underlying().(*types.Struct)
	for i := 0; i < st.NumFields(); i++ {
		if f := st.Field(i); !seen[f] && declaredHere(pass, f) {
			pass.Reportf(f.Pos(),
				"field %s.%s is not walked by Codec; walk it or mark this declaration //simlint:ignore snapsym <why it is derived or transient>",
				named.Obj().Name(), f.Name())
		}
	}
}

// declaredHere reports whether f's declaration is inside one of the
// pass's files (augmented test units see the same struct twice; the
// position check keeps diagnostics inside the unit being analyzed).
func declaredHere(pass *analysis.Pass, f *types.Var) bool {
	p := f.Pos()
	for _, file := range pass.Files {
		if file.FileStart <= p && p < file.FileEnd {
			return true
		}
	}
	return false
}
