package snapsym_test

import (
	"testing"

	"github.com/plutus-gpu/plutus/internal/lint/analysistest"
	"github.com/plutus-gpu/plutus/internal/lint/snapsym"
)

// TestSimCritical exercises the fixture cases in a sim-critical
// package: fully walked types (with a directive-exempted scratch field,
// a closure reference, and an extra bound parameter) stay clean; fields
// a Codec never walks, including ones only a helper reaches, are
// flagged.
func TestSimCritical(t *testing.T) {
	analysistest.Run(t, snapsym.Analyzer, "internal/secmem")
}

// TestOutOfScope: packages without simulation state are not checked.
func TestOutOfScope(t *testing.T) {
	analysistest.Run(t, snapsym.Analyzer, "internal/harness")
}
