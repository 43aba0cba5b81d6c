package scope

import "testing"

func TestNorm(t *testing.T) {
	cases := map[string]string{
		ModulePath:                             ".",
		ModulePath + "/internal/sim":           "internal/sim",
		ModulePath + "/internal/valcache_test": "internal/valcache",
		"internal/gpusim":                      "internal/gpusim",
		"example.com/other/pkg":                "example.com/other/pkg",
	}
	for in, want := range cases {
		if got := Norm(in); got != want {
			t.Errorf("Norm(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestScopes(t *testing.T) {
	mod := func(p string) string { return ModulePath + "/" + p }
	type row struct {
		path                                string
		simCrit, detRand, rawConc, mapOrder bool
	}
	rows := []row{
		{mod("internal/sim"), true, true, false, true},
		{mod("internal/gpusim"), true, true, true, true},
		{mod("internal/secmem"), true, true, true, true},
		{mod("internal/crypto/siphash"), true, true, true, true},
		{mod("internal/tamper"), true, true, true, true},
		// Hot-path support packages added by the perf overhaul: the dense
		// paged stores back simulation state directly, and the profiling
		// hooks run inside simulating processes.
		{mod("internal/dense"), true, true, true, true},
		{mod("internal/prof"), true, true, true, true},
		// Trace pipeline: the serialized record stream, its replay
		// cursors, and the value models all feed simulation state
		// directly.
		{mod("internal/trace"), true, true, true, true},
		{mod("internal/valmodel"), true, true, true, true},
		{mod("cmd/tracegen"), false, false, true, true},
		{mod("internal/harness"), false, true, false, true},
		{ModulePath, false, true, true, true}, // module root: determinism tests
		// rawconc is module-wide default-deny: commands and examples off
		// the allowlist are in scope even though they are not sim-critical.
		{mod("cmd/benchsmoke"), false, false, true, true},
		{mod("cmd/experiments"), false, false, true, true},
		{mod("examples/quickstart"), false, false, true, true},
		// The plutusd serving tree is allowlisted for rawconc: worker
		// pools and SSE fan-out are its job, and it holds no sim state.
		{mod("internal/server"), false, false, false, true},
		{mod("internal/server/client"), false, false, false, true},
		{mod("cmd/plutusd"), false, false, false, true},
		// The sweep-fabric coordinator is allowlisted for rawconc (leases,
		// steals and heartbeats are network orchestration), but the
		// content-addressed store beside it is NOT — it arbitrates
		// byte-identity and synchronizes with a mutex — and neither is
		// its CLI, which only makes HTTP calls and serves the coordinator.
		{mod("internal/cluster"), false, false, false, true},
		{mod("internal/castore"), false, false, true, true},
		{mod("cmd/plutusctl"), false, false, true, true},
		// The lint tree is sequential: every package in it, the loader and
		// the suite runner included, stays default-deny.
		{mod("internal/lint/detrand"), false, false, true, false},
		{mod("internal/lint/loader"), false, false, true, false},
		{mod("internal/lint/simlint"), false, false, true, false},
	}
	for _, r := range rows {
		if got := SimCritical(r.path); got != r.simCrit {
			t.Errorf("SimCritical(%q) = %v, want %v", r.path, got, r.simCrit)
		}
		if got := DetRand(r.path); got != r.detRand {
			t.Errorf("DetRand(%q) = %v, want %v", r.path, got, r.detRand)
		}
		if got := RawConc(r.path); got != r.rawConc {
			t.Errorf("RawConc(%q) = %v, want %v", r.path, got, r.rawConc)
		}
		if got := MapOrder(r.path); got != r.mapOrder {
			t.Errorf("MapOrder(%q) = %v, want %v", r.path, got, r.mapOrder)
		}
	}
}
