// Package loader discovers and type-checks packages for the standalone
// simlint driver.
//
// Discovery shells out to `go list -json`, the single source of truth
// for which files belong to a package under the active build
// configuration. Each listed package yields up to two analysis units:
// the augmented unit (GoFiles + TestGoFiles, compiled together exactly
// as `go test` compiles them) and the external test unit
// (XTestGoFiles, package foo_test). Type information comes from the
// source importer, so no pre-built export data is required; the
// external test unit is checked against the augmented package so that
// export_test.go-style helpers resolve, with the packages that import
// it re-checked against the same unit, as `go test` rebuilds them.
package loader

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
)

// Package is one type-checked analysis unit.
type Package struct {
	// Path is the import path of the unit. External test units carry
	// the "_test" suffix (e.g. ".../internal/valcache_test").
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// listed mirrors the subset of `go list -json` output we consume.
type listed struct {
	Dir          string
	ImportPath   string
	GoFiles      []string
	TestGoFiles  []string
	XTestGoFiles []string
	Standard     bool
	DepOnly      bool
	ForTest      string
	Error        *listError
}

type listError struct {
	Err string
}

// Load lists patterns in dir (the module root; "" means the current
// directory) and returns one Package per analysis unit, in `go list`
// order with the augmented unit before its external test unit.
//
// Units are type-checked in parallel in two phases: first every
// augmented unit, then every external test unit (which must see its
// augmented package). token.FileSet is internally synchronized; the
// shared source importer is serialized by lockedImporter, so the
// concurrency win is in parsing and in checking the unit bodies
// themselves. The returned order is the deterministic sequential order
// regardless of goroutine scheduling.
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}

	fset := token.NewFileSet()
	// One shared source importer so dependency packages are
	// type-checked at most once across all units.
	src := &lockedImporter{next: importer.ForCompiler(fset, "source", nil)}

	var lps []listed
	for _, lp := range pkgs {
		if lp.Standard || lp.ForTest != "" {
			continue
		}
		if lp.Error != nil {
			return nil, fmt.Errorf("go list %s: %s", lp.ImportPath, lp.Error.Err)
		}
		lps = append(lps, lp)
	}

	// Phase 1: augmented units (GoFiles + TestGoFiles).
	augs := make([]*Package, len(lps))
	errs := make([]error, len(lps))
	eachIndex(len(lps), func(i int) {
		lp := lps[i]
		augs[i], errs[i] = check(fset, src, lp, lp.ImportPath,
			append(append([]string{}, lp.GoFiles...), lp.TestGoFiles...))
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	// Phase 2: external test units, against their augmented packages.
	rebuilt, err := rebuiltForTest(dir, patterns)
	if err != nil {
		return nil, err
	}
	xts := make([]*Package, len(lps))
	eachIndex(len(lps), func(i int) {
		lp := lps[i]
		if len(lp.XTestGoFiles) == 0 {
			return
		}
		// foo_test imports foo. Only when foo has in-package test
		// files does that import resolve to the augmented unit (so
		// export_test.go-style helpers are visible); otherwise the
		// augmented unit is identical to the plain package, and the
		// shared source importer serves it.
		var imp types.Importer = src
		if len(lp.TestGoFiles) > 0 {
			imp = &testImporter{fset: fset, self: lp.ImportPath, pkg: augs[i].Types,
				rebuilt: rebuilt[lp.ImportPath], next: src, done: map[string]*types.Package{}}
		}
		xts[i], errs[i] = check(fset, imp, lp, lp.ImportPath+"_test", lp.XTestGoFiles)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	var units []*Package
	for i := range lps {
		if augs[i] != nil {
			units = append(units, augs[i])
		}
		if xts[i] != nil {
			units = append(units, xts[i])
		}
	}
	return units, nil
}

// eachIndex runs fn(0..n-1) on up to NumCPU goroutines and waits.
func eachIndex(n int, fn func(i int)) {
	sem := make(chan struct{}, runtime.NumCPU())
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			fn(i)
		}(i)
	}
	wg.Wait()
}

// lockedImporter serializes access to a non-concurrency-safe importer
// so parallel unit type-checks can share one dependency cache.
type lockedImporter struct {
	mu   sync.Mutex
	next types.Importer
}

func (l *lockedImporter) Import(path string) (*types.Package, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next.Import(path)
}

func check(fset *token.FileSet, imp types.Importer, lp listed, path string, files []string) (*Package, error) {
	if len(files) == 0 {
		return nil, nil
	}
	var asts []*ast.File
	for _, f := range files {
		af, err := parser.ParseFile(fset, filepath.Join(lp.Dir, f), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		asts = append(asts, af)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(path, fset, asts, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %v", path, err)
	}

	return &Package{Path: path, Fset: fset, Files: asts, Types: tpkg, Info: info}, nil
}

// rebuiltForTest asks `go list -deps -test` which packages `go test`
// recompiles for each test: the external test's dependencies that
// import the package under test (internal/server_test imports
// internal/server/client, which imports internal/server). go list names
// them "bar [foo.test]"; the result maps foo, then bar, to bar's
// listing.
func rebuiltForTest(dir string, patterns []string) (map[string]map[string]listed, error) {
	pkgs, err := goList(dir, append([]string{"-deps", "-test"}, patterns...))
	if err != nil {
		return nil, err
	}
	rebuilt := map[string]map[string]listed{}
	for _, lp := range pkgs {
		if lp.ForTest == "" || !lp.DepOnly {
			continue
		}
		path, _, _ := strings.Cut(lp.ImportPath, " ")
		if rebuilt[lp.ForTest] == nil {
			rebuilt[lp.ForTest] = map[string]listed{}
		}
		rebuilt[lp.ForTest][path] = lp
	}
	return rebuilt, nil
}

// testImporter resolves an external test unit's imports the way `go
// test` builds them when the package under test has in-package test
// files: the package itself is the augmented unit, and each package in
// rebuilt is re-checked from source against that unit, so the test sees
// one copy of each type. Everything else comes from the shared
// importer. One testImporter serves one unit, on one goroutine.
type testImporter struct {
	fset    *token.FileSet
	self    string
	pkg     *types.Package
	rebuilt map[string]listed
	next    types.Importer
	done    map[string]*types.Package
}

func (t *testImporter) Import(path string) (*types.Package, error) {
	if path == t.self {
		return t.pkg, nil
	}
	if p, ok := t.done[path]; ok {
		return p, nil
	}
	lp, ok := t.rebuilt[path]
	if !ok {
		return t.next.Import(path)
	}
	p, err := check(t.fset, t, lp, path, lp.GoFiles)
	if err != nil {
		return nil, err
	}
	t.done[path] = p.Types
	return p.Types, nil
}

func goList(dir string, patterns []string) ([]listed, error) {
	args := append([]string{"list", "-json", "-e"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.String())
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	var pkgs []listed
	for {
		var lp listed
		if err := dec.Decode(&lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decode go list output: %v", err)
		}
		pkgs = append(pkgs, lp)
	}
	return pkgs, nil
}
