package secmem

import (
	"fmt"
	"reflect"
	"testing"
)

// TestNamesStability freezes the registry's canonical name list. The
// order is API: plutusd's discovery endpoint, plutussim -list, the
// differential tamper oracle and the figure tables all iterate schemes
// in this order, so a rename, removal or reorder must surface as a
// reviewed diff of this literal rather than as silent churn in every
// downstream artifact.
func TestNamesStability(t *testing.T) {
	want := []string{
		"nosec",
		"pssm",
		"pssm-4Bmac",
		"pssm+cc",
		"plutus-V",
		"plutus-G32",
		"plutus-G32-128",
		"plutus-C2",
		"plutus-C3",
		"plutus-C3A",
		"plutus-notree",
		"plutus",
		"mgx",
		"ssm",
	}
	if got := Names(); !reflect.DeepEqual(got, want) {
		t.Errorf("Names() drifted from the frozen canonical list:\n got  %v\n want %v", got, want)
	}
	if got := Names(); !reflect.DeepEqual(got, want) {
		t.Errorf("Names() is not stable across calls: %v", got)
	}
}

// TestNormalizeRejectsIllegalCompositions lists the composition rules
// the seam types cannot express, each of which Normalize must enforce.
func TestNormalizeRejectsIllegalCompositions(t *testing.T) {
	cases := []struct {
		name string
		edit func(*Config)
	}{
		{"value check under CME", func(c *Config) { c.Check = CheckValue }},
		{"shares with a lazy tree", func(c *Config) { *c = SSMConfig(protected); c.Freshness = FreshLazyBMT }},
		{"shares over stored versions", func(c *Config) { c.Check = CheckShares; c.Freshness = FreshNone }},
		{"on-chip versions with a MAC", func(c *Config) { c.Versions = VersionsOnChip; c.Freshness = FreshNone }},
		{"k = 1", func(c *Config) { *c = SSMConfig(protected); c.SSMThreshold = 1 }},
		{"k = n", func(c *Config) { *c = SSMConfig(protected); c.SSMShares = 2 }},
		{"n > 8", func(c *Config) { *c = SSMConfig(protected); c.SSMShares = 9 }},
		{"derived versions with value check", func(c *Config) {
			*c = MGXConfig(protected)
			c.Check = CheckValue
		}},
		{"stored versions without a check", func(c *Config) { c.Check = CheckNone }},
		{"stored versions without a tree", func(c *Config) { c.Freshness = FreshNone }},
		{"a check without versions", func(c *Config) { c.Versions = VersionsNone }},
	}
	for _, tc := range cases {
		cfg := PSSM(protected)
		tc.edit(&cfg)
		if err := cfg.Normalize(); err == nil {
			t.Errorf("%s: Normalize accepted %+v", tc.name, cfg)
		}
	}
}

// TestByNameUnknownError pins the exact shape of the unknown-scheme
// error: operators hit it from the CLI and the daemon API, and it must
// name the full valid set so a typo is self-correcting.
func TestByNameUnknownError(t *testing.T) {
	_, err := ByName("plutus-xxl", 128<<20)
	if err == nil {
		t.Fatal("unknown scheme resolved")
	}
	want := fmt.Sprintf("unknown scheme %q (valid: nosec pssm pssm-4Bmac pssm+cc plutus-V plutus-G32 "+
		"plutus-G32-128 plutus-C2 plutus-C3 plutus-C3A plutus-notree plutus mgx ssm)", "plutus-xxl")
	if err.Error() != want {
		t.Errorf("unknown-scheme error drifted:\n got  %q\n want %q", err.Error(), want)
	}
}
