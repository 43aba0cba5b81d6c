// Package loader discovers and type-checks packages for simlint.
//
// One `go list -e -json -export -deps -test` call is the single source
// of truth: it names the files of every analysis unit under the active
// build configuration, and it compiles every dependency's export data
// into the build cache, exactly as `go test` builds them. Each package
// yields up to two units: the test variant (GoFiles + TestGoFiles,
// compiled together) and the external test (XTestGoFiles, package
// foo_test). Every unit type-checks only its own files; its imports
// resolve through its ImportMap to the export data of the listing `go
// test` would link, so an external test sees the augmented package
// under test, and so do the packages `go test` recompiles against it.
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
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"

	"github.com/plutus-gpu/plutus/internal/lint/analysis"
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
	Dir        string
	ImportPath string
	GoFiles    []string
	ImportMap  map[string]string
	Export     string
	Standard   bool
	DepOnly    bool
	ForTest    string
	Error      *listError
}

type listError struct {
	Err string
}

// path is the listing's import path without the " [foo.test]" suffix
// `go list -test` gives a package built for a test.
func (lp *listed) path() string {
	p, _, _ := strings.Cut(lp.ImportPath, " ")
	return p
}

// Load lists patterns in dir (the module root; "" means the current
// directory) and returns one Package per analysis unit, ordered by
// import path with each external test unit right after its package.
//
// The units are the listings the patterns matched: a package's test
// variant stands in for the package itself, and the generated test
// mains are left out. They are checked one after another.
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}

	exports := map[string]string{}
	tested := map[string]bool{}  // foo, when anything is built for foo.test
	variant := map[string]bool{} // foo, when "foo [foo.test]" is listed
	for _, lp := range pkgs {
		exports[lp.ImportPath] = lp.Export
		if lp.ForTest != "" {
			tested[lp.ForTest] = true
			variant[lp.ForTest] = variant[lp.ForTest] || lp.path() == lp.ForTest
		}
	}
	var units []listed
	for _, lp := range pkgs {
		if lp.DepOnly || lp.Standard {
			continue
		}
		if variant[lp.ImportPath] {
			continue // its test variant stands in for it
		}
		if p, ok := strings.CutSuffix(lp.ImportPath, ".test"); ok && tested[p] {
			continue // the generated test main
		}
		if lp.Error != nil {
			return nil, fmt.Errorf("go list %s: %s", lp.ImportPath, lp.Error.Err)
		}
		units = append(units, lp)
	}
	// Import-path order, each external test right after its package: a
	// space sorts before every character an import path can hold.
	key := func(lp listed) string {
		if lp.ForTest != "" && lp.path() != lp.ForTest {
			return lp.ForTest + " "
		}
		return lp.path()
	}
	sort.Slice(units, func(i, j int) bool { return key(units[i]) < key(units[j]) })

	fset := token.NewFileSet()
	out := make([]*Package, 0, len(units))
	for _, lp := range units {
		p, err := check(fset, lp, exports)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// check parses one unit's files and type-checks them against the export
// data its ImportMap selects.
func check(fset *token.FileSet, lp listed, exports map[string]string) (*Package, error) {
	var files []*ast.File
	for _, f := range lp.GoFiles {
		af, err := parser.ParseFile(fset, filepath.Join(lp.Dir, f), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, af)
	}
	lookup := func(path string) (io.ReadCloser, error) {
		if canon, ok := lp.ImportMap[path]; ok {
			path = canon
		}
		file := exports[path]
		if file == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
	info := analysis.Info()
	conf := types.Config{Importer: importer.ForCompiler(fset, "gc", lookup)}
	tpkg, err := conf.Check(lp.path(), fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %v", lp.path(), err)
	}
	return &Package{Path: lp.path(), Fset: fset, Files: files, Types: tpkg, Info: info}, nil
}

func goList(dir string, patterns []string) ([]listed, error) {
	cmd := exec.Command("go", append([]string{"list", "-e", "-json", "-export", "-deps", "-test"}, patterns...)...)
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
