package valmodel

import (
	"testing"

	"github.com/plutus-gpu/plutus/internal/checkpoint"
	"github.com/plutus-gpu/plutus/internal/geom"
)

func TestCodecRoundTrip(t *testing.T) {
	models := []Model{
		{},
		{Seed: 42},
		{Seed: 0xdeadbeef, ZeroFrac: 0.25, PoolFrac: 0.4, PoolSize: 64, Jitter: true},
		{Seed: ^uint64(0), ZeroFrac: 1, PoolFrac: 0, PoolSize: 1},
	}
	for _, m := range models {
		data, err := checkpoint.Marshal(m.Codec)
		if err != nil {
			t.Fatal(err)
		}
		var back Model
		if err := checkpoint.Unmarshal(data, back.Codec); err != nil {
			t.Fatalf("%+v: decode: %v", m, err)
		}
		if back != m {
			t.Fatalf("round trip changed model: %+v -> %+v", m, back)
		}
	}
}

func TestDecodeTruncated(t *testing.T) {
	m := Model{Seed: 7}
	data, err := checkpoint.Marshal(m.Codec)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkpoint.Unmarshal(data[:5], m.Codec); err == nil {
		t.Fatal("truncated model decoded without error")
	}
}

func TestValueProfileShape(t *testing.T) {
	m := Model{Seed: 99, ZeroFrac: 0.4, PoolFrac: 0.3, PoolSize: 32, Jitter: true}
	zeros, total := 0, 0
	seen := map[uint32]int{}
	for a := geom.Addr(0); a < 1<<16; a += 4 {
		v := m.MemValue(a)
		total++
		if v == 0 {
			zeros++
		}
		seen[v&^0xf]++
	}
	zf := float64(zeros) / float64(total)
	if zf < m.ZeroFrac-0.05 || zf > m.ZeroFrac+0.05 {
		t.Errorf("zero fraction %.3f, model %.3f", zf, m.ZeroFrac)
	}
	best := 0
	for v, n := range seen {
		if v != 0 && n > best {
			best = n
		}
	}
	if best < total/200 {
		t.Errorf("hot pool not visible: best repeat count %d of %d", best, total)
	}
}

func TestDeterminismAndSeedSeparation(t *testing.T) {
	a := Model{Seed: 1, PoolFrac: 0.5, PoolSize: 16}
	b := Model{Seed: 2, PoolFrac: 0.5, PoolSize: 16}
	if a.MemValue(0x1234) != a.MemValue(0x1234) {
		t.Fatal("MemValue not deterministic")
	}
	diff := 0
	for addr := geom.Addr(0); addr < 4096; addr += 4 {
		if a.MemValue(addr) != b.MemValue(addr) {
			diff++
		}
	}
	if diff < 256 {
		t.Fatalf("seeds barely separate images: %d of 1024 words differ", diff)
	}
	if a.StoreValue(1, 0x100) == a.StoreValue(2, 0x100) {
		t.Fatal("StoreValue should vary by warp")
	}
}
