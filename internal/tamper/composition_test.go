package tamper

import (
	"testing"

	"github.com/plutus-gpu/plutus/internal/secmem"
)

// TestRegistryCompositions pins every registered scheme's composition —
// its (versions, check, freshness) parts — and the metadata-attack
// surface that follows from those parts. A scheme's attackable DRAM
// metadata is never maintained by hand: changing a composition changes
// this matrix, and the diff shows up here.
func TestRegistryCompositions(t *testing.T) {
	type row struct {
		versions  secmem.Versions
		check     secmem.Check
		freshness secmem.Freshness
		// mac, ctr, bmt: whether mac-corrupt, ctr-rollback and
		// bmt-corrupt apply.
		mac, ctr, bmt bool
	}
	stored := func(v secmem.Versions, c secmem.Check, f secmem.Freshness) row {
		return row{v, c, f, true, true, true}
	}
	want := map[string]row{
		"nosec":          {secmem.VersionsNone, secmem.CheckNone, secmem.FreshNone, false, false, false},
		"pssm":           stored(secmem.VersionsStored, secmem.CheckMAC, secmem.FreshLazyBMT),
		"pssm-4Bmac":     stored(secmem.VersionsStored, secmem.CheckMAC, secmem.FreshLazyBMT),
		"pssm+cc":        stored(secmem.VersionsCommon, secmem.CheckMAC, secmem.FreshLazyBMT),
		"plutus-V":       stored(secmem.VersionsStored, secmem.CheckValue, secmem.FreshLazyBMT),
		"plutus-G32":     stored(secmem.VersionsStored, secmem.CheckMAC, secmem.FreshLazyBMT),
		"plutus-G32-128": stored(secmem.VersionsStored, secmem.CheckMAC, secmem.FreshLazyBMT),
		"plutus-C2":      stored(secmem.VersionsCompact, secmem.CheckMAC, secmem.FreshLazyBMT),
		"plutus-C3":      stored(secmem.VersionsCompact, secmem.CheckMAC, secmem.FreshLazyBMT),
		"plutus-C3A":     stored(secmem.VersionsCompact, secmem.CheckMAC, secmem.FreshLazyBMT),
		"plutus-notree":  stored(secmem.VersionsCompact, secmem.CheckValue, secmem.FreshBMTNoTraffic),
		"plutus":         stored(secmem.VersionsCompact, secmem.CheckValue, secmem.FreshLazyBMT),
		"mgx":            stored(secmem.VersionsDerived, secmem.CheckMAC, secmem.FreshLazyBMT),
		"ssm":            {secmem.VersionsOnChip, secmem.CheckShares, secmem.FreshNone, false, false, false},
	}
	names := secmem.Names()
	if len(names) != len(want) {
		t.Fatalf("registry has %d schemes, table pins %d", len(names), len(want))
	}
	for _, name := range names {
		sc, err := secmem.ByName(name, 128<<20)
		if err != nil {
			t.Fatal(err)
		}
		w, ok := want[name]
		if !ok {
			t.Errorf("scheme %q has no pinned composition", name)
			continue
		}
		got := row{sc.Versions, sc.Check, sc.Freshness,
			MACCorrupt.AppliesTo(sc), CtrRollback.AppliesTo(sc), BMTCorrupt.AppliesTo(sc)}
		if got != w {
			t.Errorf("%s: composition/attack surface = %+v, want %+v", name, got, w)
		}
	}
}
