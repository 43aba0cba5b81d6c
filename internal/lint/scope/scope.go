// Package scope classifies this module's packages for the simlint
// analyzers. The determinism contract from PR 1 (parallel partition
// execution is bit-identical to sequential) only holds if simulation
// state never observes wall-clock time, process entropy, map iteration
// order, or scheduler interleavings — so each analyzer applies to the
// set of packages whose code can reach simulation state or run output.
package scope

import "strings"

// ModulePath is this module's import-path prefix.
const ModulePath = "github.com/plutus-gpu/plutus"

// Norm reduces an import path to its module-relative form: the module
// prefix is stripped, as is the "_test" suffix of external test
// packages. The module root itself normalizes to ".".
func Norm(pkgPath string) string {
	p := strings.TrimSuffix(pkgPath, "_test")
	if p == ModulePath {
		return "."
	}
	if rest, ok := strings.CutPrefix(p, ModulePath+"/"); ok {
		return rest
	}
	return p
}

// simCritical lists the module-relative packages whose code holds or
// mutates simulation state. Everything simulated flows through these:
// events, caches, counters, crypto, traffic accounting.
var simCritical = []string{
	"internal/sim",
	"internal/gpusim",
	"internal/secmem",
	"internal/dram",
	"internal/counters",
	"internal/bmt",
	"internal/valcache",
	"internal/cache",
	"internal/workload",
	"internal/trace",
	"internal/valmodel", // value models: every byte a replayed store writes
	"internal/geom",
	"internal/crypto", // covers internal/crypto/...
	"internal/stats",
	"internal/checkpoint", // snapshot codec: serializes sim state byte-stably
	"internal/tamper",     // attack plans: expansion must replay bit-identically
	"internal/dense",      // hot-path paged stores: backs DRAM images, counters, caches
	"internal/prof",       // profiling hooks ride inside simulating processes
}

func under(norm, root string) bool {
	return norm == root || strings.HasPrefix(norm, root+"/")
}

// SimCritical reports whether pkgPath holds simulation state.
func SimCritical(pkgPath string) bool {
	n := Norm(pkgPath)
	for _, root := range simCritical {
		if under(n, root) {
			return true
		}
	}
	return false
}

// DetRand reports whether the detrand analyzer applies: all sim-critical
// packages, plus the harness (its tables and CSVs must be byte-stable
// across runs) and the module root (the determinism test matrix lives
// there). cmd/ and examples/ may read the wall clock — reporting elapsed
// time is their job.
func DetRand(pkgPath string) bool {
	n := Norm(pkgPath)
	return SimCritical(pkgPath) || n == "internal/harness" || n == "."
}

// rawConcAllowed lists the packages that may use raw goroutines and
// channels. internal/sim owns the one sanctioned simulation concurrency
// mechanism (cycle-stamped shard mailboxes); the harness fans out
// independent, internally-deterministic runs; internal/server (with its
// client) and cmd/plutusd are a network service — a worker pool and
// bounded queue are their job, and no simulation state lives there. The
// lint tree is sequential and stays under the default deny, so a
// goroutine can never sneak into result aggregation.
var rawConcAllowed = []string{
	"internal/sim",
	"internal/harness",
	"internal/server",  // covers internal/server/client
	"internal/cluster", // coordinator: leases, steals and heartbeats are network orchestration, not simulation
	"cmd/plutusd",
}

// RawConc reports whether the rawconc analyzer applies: the whole
// module, default-deny, minus rawConcAllowed. A new package that wants
// goroutines must be added to the allowlist deliberately — the default
// for anything that touches simulation results is the mailbox path.
func RawConc(pkgPath string) bool {
	n := Norm(pkgPath)
	for _, root := range rawConcAllowed {
		if under(n, root) {
			return false
		}
	}
	return true
}

// MapOrder reports whether the maporder analyzer applies. Unordered map
// iteration feeding events, stats or output breaks determinism anywhere
// in the module, including cmd/ and examples/; only the lint tree
// itself is exempt (its reports are ordered by the driver's final
// position sort, and exempting it keeps the framework free to iterate
// scratch maps).
func MapOrder(pkgPath string) bool {
	return !under(Norm(pkgPath), "internal/lint")
}

// StatsKey reports whether the statskey analyzer applies; its designated
// call sites (schema-defining strings) are checked module-wide except in
// the lint tree's own fixtures.
func StatsKey(pkgPath string) bool {
	return !under(Norm(pkgPath), "internal/lint")
}

// SnapSym reports whether the snapsym analyzer applies: every
// sim-critical package, since that is where checkpointed state lives
// and the codec method pairs are defined.
func SnapSym(pkgPath string) bool {
	return SimCritical(pkgPath)
}

// StickyErr reports whether the stickyerr analyzer applies. The sticky
// decode-error discipline (run straight through, check Err/Finish once,
// never write after an unchecked error) is a property of codec code,
// all of which lives in sim-critical packages; the analyzer further
// narrows itself to functions that actually touch codec values.
func StickyErr(pkgPath string) bool {
	return SimCritical(pkgPath)
}

// HotAlloc reports whether the hotalloc analyzer applies. The
// //simlint:hotpath annotation is only meaningful on code that can
// appear on the per-event path, but the annotation itself is the
// opt-in — so the analyzer runs wherever annotations could legitimately
// appear and early-outs on unannotated packages. The lint tree is
// excluded to keep its fixtures inert under the real driver.
func HotAlloc(pkgPath string) bool {
	return !under(Norm(pkgPath), "internal/lint")
}
