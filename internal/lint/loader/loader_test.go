package loader_test

import (
	"go/types"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"github.com/plutus-gpu/plutus/internal/lint/loader"
)

const mod = "github.com/plutus-gpu/plutus/"

// TestLoadUnits pins the units of a package with both kinds of test
// file. internal/server's in-package test joins the package itself;
// its external test is a unit of its own, and it imports
// internal/server/client, which `go test` recompiles against the
// augmented server — so that unit type-checks only if both of its
// routes to server reach one package.
func TestLoadUnits(t *testing.T) {
	pkgs, err := loader.Load(filepath.Join("..", "..", ".."), "./internal/server/...", "./cmd/plutusd")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	got := map[string][]string{}
	byPath := map[string]*loader.Package{}
	for _, p := range pkgs {
		var names []string
		for _, f := range p.Files {
			names = append(names, filepath.Base(p.Fset.File(f.Pos()).Name()))
		}
		sort.Strings(names)
		got[p.Path] = names
		byPath[p.Path] = p
	}
	want := map[string][]string{
		mod + "internal/server":        {"api.go", "job.go", "job_test.go", "metrics.go", "persist.go", "server.go", "snapshots.go"},
		mod + "internal/server_test":   {"metrics_test.go", "persist_test.go", "server_test.go"},
		mod + "internal/server/client": {"client.go", "client_test.go"},
		mod + "cmd/plutusd":            {"main.go"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("units:\n got %v\nwant %v", got, want)
	}

	if byPath[mod+"internal/server"].Types.Scope().Lookup("TestSlowSubscriberGetsTerminalEvent") == nil {
		t.Error("the internal/server unit lacks its in-package test's declarations")
	}
	imports := map[string]*types.Package{}
	for _, imp := range byPath[mod+"internal/server_test"].Types.Imports() {
		imports[imp.Path()] = imp
	}
	server, client := imports[mod+"internal/server"], imports[mod+"internal/server/client"]
	if server == nil || client == nil {
		t.Fatalf("internal/server_test imports %v, want server and client among them", imports)
	}
	submit, _, _ := types.LookupFieldOrMethod(client.Scope().Lookup("Client").Type(), true, client, "Submit")
	req := submit.Type().(*types.Signature).Params().At(1).Type().(*types.Named)
	if req.Obj().Pkg() != server {
		t.Error("internal/server_test sees two copies of internal/server: its own import and client's")
	}
}
