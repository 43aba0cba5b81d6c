// Package plutus is a Go reproduction of "Plutus: Bandwidth-Efficient
// Memory Security for GPUs" (HPCA 2023): a secure GPU memory system —
// counter-mode/XTS encryption, per-sector MACs, Bonsai Merkle Trees —
// together with the paper's three bandwidth optimizations (value-based
// integrity verification, compact mirrored counters, fine-granularity
// metadata blocks) and the cycle-driven GPU memory-system simulator used
// to evaluate them.
//
// The implementation lives under internal/ (see DESIGN.md for the module
// map); the executables under cmd/ and the programs under examples/ are
// the supported entry points:
//
//	go run ./cmd/plutussim -bench bfs -scheme plutus
//	go run ./cmd/experiments           # regenerate every paper figure
//	go run ./cmd/experiments -fig fig18 -insts 4000 -out /tmp/results
//	go run ./examples/quickstart
//
// Every figure, the paper's and the design-choice ablations alike, runs
// through cmd/experiments and is pinned in results/.
package plutus
