package workload

import (
	"sort"
	"testing"

	"github.com/plutus-gpu/plutus/internal/geom"
	"github.com/plutus-gpu/plutus/internal/gpusim"
	"github.com/plutus-gpu/plutus/internal/valmodel"
)

// The scenario corpus: registry specs with a generator, run by Bench.

func TestNamesAndDescribe(t *testing.T) {
	names := ScenarioNames()
	if len(names) < 4 {
		t.Fatalf("corpus has %d families, want at least 4", len(names))
	}
	if !sort.StringsAreSorted(names) {
		t.Errorf("ScenarioNames() not sorted: %v", names)
	}
	for _, n := range names {
		info, ok := Describe(n)
		if !ok {
			t.Fatalf("Describe(%q) missing", n)
		}
		if info.Name != n || info.Desc == "" || info.Warps < 1 || info.InstsPerWarp < 1 {
			t.Errorf("%s: incomplete info %+v", n, info)
		}
	}
	if _, ok := Describe("scn-nope"); ok {
		t.Error("Describe accepted an unknown name")
	}
	if _, err := GetSeeded("scn-nope", 0); err == nil {
		t.Error("GetSeeded accepted an unknown name")
	}
}

func TestDeterminismAndSeedSeparation(t *testing.T) {
	for _, name := range ScenarioNames() {
		a, err := GetSeeded(name, 0)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := GetSeeded(name, 0)
		c, _ := GetSeeded(name, 1)
		diverged := false
		for k := 0; k < 300; k++ {
			ia, oka := a.Next(2)
			ib, okb := b.Next(2)
			ic, okc := c.Next(2)
			if oka != okb || ia.Kind != ib.Kind || len(ia.Addrs) != len(ib.Addrs) {
				t.Fatalf("%s: same seed diverges at step %d", name, k)
			}
			for j := range ia.Addrs {
				if ia.Addrs[j] != ib.Addrs[j] {
					t.Fatalf("%s: same seed diverges at step %d addr %d", name, k, j)
				}
			}
			if okc != oka || ic.Kind != ia.Kind {
				diverged = true
			} else {
				for j := range ia.Addrs {
					if j < len(ic.Addrs) && ic.Addrs[j] != ia.Addrs[j] {
						diverged = true
					}
				}
			}
		}
		if !diverged {
			t.Errorf("%s: seeds 0 and 1 produced identical streams", name)
		}
	}
}

// Every scenario must stay inside the scaled GPU's protected space
// (128 MiB per partition × 8 partitions), emit all three instruction
// kinds, and retire after exactly InstsPerWarp steps.
func TestStreamShape(t *testing.T) {
	const protectedGlobal = geom.Addr(8 * 128 << 20)
	for _, name := range ScenarioNames() {
		s, err := GetSeeded(name, 0)
		if err != nil {
			t.Fatal(err)
		}
		info, _ := Describe(name)
		var compute, loads, stores, n int
		for w := 0; w < s.Warps(); w++ {
			for {
				inst, ok := s.Next(w)
				if !ok {
					break
				}
				n++
				switch inst.Kind {
				case gpusim.Compute:
					compute++
					if inst.Cycles < 1 {
						t.Fatalf("%s: compute with %d cycles", name, inst.Cycles)
					}
				case gpusim.Load:
					loads++
				case gpusim.Store:
					stores++
				}
				if inst.Kind != gpusim.Compute && len(inst.Addrs) == 0 {
					t.Fatalf("%s: memory instruction without addresses", name)
				}
				for _, a := range inst.Addrs {
					if a >= protectedGlobal {
						t.Fatalf("%s: address %#x beyond protected space", name, uint64(a))
					}
				}
			}
		}
		if want := info.Warps * info.InstsPerWarp; n != want {
			t.Errorf("%s: stream has %d instructions, want %d", name, n, want)
		}
		if compute == 0 || loads == 0 || stores == 0 {
			t.Errorf("%s: degenerate mix (compute %d, loads %d, stores %d)",
				name, compute, loads, stores)
		}
	}
}

func TestCursorRoundTrip(t *testing.T) {
	a, err := GetSeeded("scn-phase", 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 57; i++ {
		a.Next(1)
	}
	cur := a.Cursor()
	b, _ := GetSeeded("scn-phase", 3)
	if err := b.RestoreCursor(cur); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		ia, oka := a.Next(1)
		ib, okb := b.Next(1)
		if oka != okb || ia.Kind != ib.Kind || len(ia.Addrs) != len(ib.Addrs) {
			t.Fatalf("restored stream diverges at step %d", i)
		}
	}
	if err := b.RestoreCursor(make([]uint64, 3)); err == nil {
		t.Error("wrong-length cursor accepted")
	}
}

var _ valmodel.Modeler = (*Bench)(nil)
