package secmem

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"github.com/plutus-gpu/plutus/internal/counters"
	"github.com/plutus-gpu/plutus/internal/dram"
	"github.com/plutus-gpu/plutus/internal/geom"
	"github.com/plutus-gpu/plutus/internal/sim"
	"github.com/plutus-gpu/plutus/internal/stats"
)

// testRig bundles an engine with its simulation plumbing.
type testRig struct {
	eng *sim.Engine
	ch  *dram.Channel
	st  *stats.Stats
	e   *Engine
}

func newRig(t *testing.T, cfg Config) *testRig {
	t.Helper()
	r := &testRig{eng: &sim.Engine{}, st: &stats.Stats{}}
	r.ch = dram.MustNew(dram.DefaultConfig(), r.eng, &r.st.Traffic)
	var err error
	r.e, err = New(cfg, r.eng, r.ch, r.st)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// read runs a synchronous read to completion.
func (r *testRig) read(t *testing.T, a geom.Addr) ReadResult {
	t.Helper()
	var res ReadResult
	got := false
	r.e.Read(a, func(x ReadResult) { res = x; got = true })
	r.eng.Drain(1 << 20)
	if !got {
		t.Fatalf("read of %#x never completed", a)
	}
	return res
}

// write runs a synchronous writeback to completion.
func (r *testRig) write(t *testing.T, a geom.Addr, data []byte) {
	t.Helper()
	done := false
	r.e.Writeback(a, data, func() { done = true })
	r.eng.Drain(1 << 20)
	if !done {
		t.Fatalf("write of %#x never completed", a)
	}
}

func sector(vals ...uint32) []byte {
	b := make([]byte, geom.SectorSize)
	for i := 0; i < 8; i++ {
		v := uint32(0)
		if i < len(vals) {
			v = vals[i]
		}
		binary.LittleEndian.PutUint32(b[i*4:], v)
	}
	return b
}

const protected = 1 << 20 // 1 MiB per-partition protected range for tests

func allSchemes() []Config {
	return []Config{
		Baseline(protected),
		PSSM(protected),
		PSSM4B(protected),
		CommonCtr(protected),
		PlutusValueOnly(protected),
		PlutusFineGrain(protected, GranCtr32BMT128),
		PlutusFineGrain(protected, GranAll32),
		PlutusCompact(protected, counters.Compact2Bit),
		PlutusCompact(protected, counters.Compact3Bit),
		PlutusCompact(protected, counters.Compact3BitAdaptive),
		Plutus(protected),
		PlutusNoTree(protected),
		MGXConfig(protected),
		SSMConfig(protected),
	}
}

// Round-trip through every scheme: what you write is what you read.
func TestWriteReadRoundTripAllSchemes(t *testing.T) {
	for _, cfg := range allSchemes() {
		cfg := cfg
		t.Run(cfg.Scheme, func(t *testing.T) {
			r := newRig(t, cfg)
			data := sector(0x11111110, 0x22222220, 0x33333330, 0x44444440,
				0x55555550, 0x66666660, 0x77777770, 0x88888880)
			r.write(t, 0x400, data)
			res := r.read(t, 0x400)
			if !res.OK {
				t.Fatal("benign read failed verification")
			}
			if !bytes.Equal(res.Data[:], data) {
				t.Fatalf("round trip mismatch:\n got %x\nwant %x", res.Data, data)
			}
		})
	}
}

// Reads of never-written memory return the workload's initial contents.
func TestInitialContents(t *testing.T) {
	for _, cfg := range []Config{Baseline(protected), PSSM(protected), Plutus(protected)} {
		cfg := cfg
		t.Run(cfg.Scheme, func(t *testing.T) {
			r := newRig(t, cfg)
			r.e.InitData = func(local geom.Addr) []byte {
				return sector(uint32(local), uint32(local)+1)
			}
			res := r.read(t, 0x800)
			if !res.OK {
				t.Fatal("initial read failed verification")
			}
			want := sector(0x800, 0x801)
			if !bytes.Equal(res.Data[:], want) {
				t.Fatalf("initial contents wrong: %x", res.Data)
			}
		})
	}
}

func TestRepeatedWritesReadBack(t *testing.T) {
	r := newRig(t, Plutus(protected))
	for k := uint32(1); k <= 70; k++ { // crosses the 6-bit minor overflow at 64
		r.write(t, 0x1000, sector(k, k*3, k*5, k*7, k*11, k*13, k*17, k*19))
	}
	res := r.read(t, 0x1000)
	if !res.OK || binary.LittleEndian.Uint32(res.Data[:]) != 70 {
		t.Fatalf("after 70 writes: ok=%v first word=%d", res.OK, binary.LittleEndian.Uint32(res.Data[:]))
	}
}

// Counter overflow re-encrypts the group: neighbors must still read back.
func TestCounterOverflowPreservesNeighbors(t *testing.T) {
	r := newRig(t, PSSM(protected))
	neighbor := sector(0xAAAAAAA0, 0xBBBBBBB0)
	r.write(t, 0x2020, neighbor)
	// Overflow sector 0x2000's minor (64 writes with 6-bit minors).
	for k := 0; k < 65; k++ {
		r.write(t, 0x2000, sector(uint32(k)))
	}
	res := r.read(t, 0x2020)
	if !res.OK || !bytes.Equal(res.Data[:], neighbor) {
		t.Fatalf("neighbor corrupted by overflow re-encryption: ok=%v data=%x", res.OK, res.Data)
	}
}

func TestTamperedDataDetected(t *testing.T) {
	for _, cfg := range []Config{PSSM(protected), Plutus(protected)} {
		cfg := cfg
		t.Run(cfg.Scheme, func(t *testing.T) {
			r := newRig(t, cfg)
			// Distinctive (non-repeating) data so Plutus's value cache
			// cannot legitimately verify the tampered plaintext.
			data := sector(0xdead0001, 0x12345678, 0x9abcdef0, 0x0fedcba9,
				0x87654321, 0x13579bdf, 0x2468ace0, 0xfdb97531)
			r.write(t, 0x3000, data)
			r.e.TamperData(0x3000, 77)
			res := r.read(t, 0x3000)
			if res.OK {
				t.Fatal("tampered data passed verification")
			}
			if r.st.Sec.TamperDetected == 0 {
				t.Fatal("tamper not counted")
			}
		})
	}
}

func TestTamperedMACDetected(t *testing.T) {
	r := newRig(t, PSSM(protected))
	r.write(t, 0x3100, sector(1, 2, 3, 4, 5, 6, 7, 8))
	r.e.TamperMAC(0x3100)
	if res := r.read(t, 0x3100); res.OK {
		t.Fatal("spoofed MAC passed verification")
	}
}

func TestReplayedCounterDetected(t *testing.T) {
	r := newRig(t, PSSM(protected))
	r.write(t, 0x3200, sector(9, 9, 9, 9))
	r.e.ReplayCounter(0x3200)
	res := r.read(t, 0x3200)
	if res.OK {
		t.Fatal("replayed counter passed verification")
	}
	if r.st.Sec.ReplayDetected == 0 {
		t.Fatal("replay not counted")
	}
}

// The no-security scheme generates exactly one transaction per access.
func TestNoSecurityTrafficIsDataOnly(t *testing.T) {
	r := newRig(t, Baseline(protected))
	r.write(t, 0x100, sector(1))
	r.read(t, 0x100)
	if got := r.st.Traffic.MetadataBytes(); got != 0 {
		t.Fatalf("no-security run moved %d metadata bytes", got)
	}
	if got := r.st.Traffic.Transactions(); got != 2 {
		t.Fatalf("transactions = %d, want 2", got)
	}
}

// PSSM cold reads move counter, MAC and BMT metadata.
func TestPSSMColdReadFetchesMetadata(t *testing.T) {
	r := newRig(t, PSSM(protected))
	r.read(t, 0x4000)
	tr := &r.st.Traffic
	if tr.Bytes(stats.Counter) == 0 {
		t.Error("no counter traffic on cold read")
	}
	if tr.Bytes(stats.MAC) == 0 {
		t.Error("no MAC traffic on cold read")
	}
	if tr.Bytes(stats.BMT) == 0 {
		t.Error("no BMT traffic on cold read")
	}
	// GranAll128: the counter fetch is a whole 128 B block = 4 sectors.
	if tr.Reads[stats.Counter] != 4 {
		t.Errorf("counter read txns = %d, want 4 (128 B unit)", tr.Reads[stats.Counter])
	}
}

// Fine-grain metadata fetches one sector per counter unit.
func TestFineGrainCounterFetchIsOneTransaction(t *testing.T) {
	r := newRig(t, PlutusFineGrain(protected, GranAll32))
	r.read(t, 0x4000)
	if got := r.st.Traffic.Reads[stats.Counter]; got != 1 {
		t.Errorf("counter read txns = %d, want 1 (32 B unit)", got)
	}
	// BMT nodes are 32 B too: each walked level costs one transaction.
	if r.st.Traffic.Reads[stats.BMT] == 0 {
		t.Error("expected BMT node fetches")
	}
}

// A metadata-cache hit on a warm read generates no new metadata traffic.
func TestWarmReadHitsMetadataCaches(t *testing.T) {
	r := newRig(t, PSSM(protected))
	r.read(t, 0x5000)
	ctr := r.st.Traffic.Bytes(stats.Counter)
	mac := r.st.Traffic.Bytes(stats.MAC)
	bmtB := r.st.Traffic.Bytes(stats.BMT)
	r.read(t, 0x5020) // same counter group, same MAC sector? (adjacent sector)
	if r.st.Traffic.Bytes(stats.Counter) != ctr {
		t.Error("warm read refetched counters")
	}
	if r.st.Traffic.Bytes(stats.MAC) != mac {
		t.Error("warm read refetched MAC")
	}
	if r.st.Traffic.Bytes(stats.BMT) != bmtB {
		t.Error("warm read refetched BMT nodes")
	}
}

// Value verification eliminates MAC fetches for value-local data.
func TestValueVerificationSkipsMAC(t *testing.T) {
	r := newRig(t, PlutusValueOnly(protected))
	// Prime the value cache with the working values via writes.
	common := sector(0x42424240, 0x42424240, 0x42424240, 0x42424240,
		0x42424240, 0x42424240, 0x42424240, 0x42424240)
	for a := geom.Addr(0); a < 64*geom.SectorSize; a += geom.SectorSize {
		r.write(t, 0x10000+a, common)
	}
	macBefore := r.st.Traffic.Bytes(stats.MAC)
	// Cold-read far addresses holding the same values.
	r.e.InitData = func(local geom.Addr) []byte { return common }
	for a := geom.Addr(0); a < 8*geom.SectorSize; a += geom.SectorSize {
		res := r.read(t, 0x40000+a)
		if !res.OK {
			t.Fatal("benign value-local read failed")
		}
		if !res.ValueVerified {
			t.Fatal("value-local read did not use value verification")
		}
	}
	if got := r.st.Traffic.Bytes(stats.MAC) - macBefore; got != 0 {
		t.Errorf("value-verified reads moved %d MAC bytes", got)
	}
	if r.st.Sec.ValueVerified < 8 {
		t.Errorf("ValueVerified = %d, want ≥ 8", r.st.Sec.ValueVerified)
	}
}

// Unique-valued data falls back to MAC verification and still succeeds.
func TestValueMissFallsBackToMAC(t *testing.T) {
	r := newRig(t, PlutusValueOnly(protected))
	uniq := sector(0x01010101, 0x23232323, 0x45454545, 0x67676767,
		0x89898989, 0xabababab, 0xcdcdcdcd, 0xefefefef)
	r.write(t, 0x6000, uniq)
	// Flood the value cache so the write's values are evicted.
	for k := uint32(0); k < 2048; k++ {
		r.write(t, 0x20000+geom.Addr(k%256)*geom.SectorSize,
			sector(k<<8|5, k<<9|7, k<<10|9, k<<11|11, k<<12|13, k<<13|15, k<<14|17, k<<15|19))
	}
	res := r.read(t, 0x6000)
	if !res.OK {
		t.Fatal("MAC fallback read failed")
	}
	if res.ValueVerified {
		t.Fatal("unique data should not value-verify after cache flood")
	}
	if r.st.Sec.MACVerified == 0 {
		t.Fatal("MAC verification not counted")
	}
}

// Common counters: reads of never-written regions move no counter/BMT
// traffic; the first write to a region ends that.
func TestCommonCountersSkipUntilFirstWrite(t *testing.T) {
	r := newRig(t, CommonCtr(protected))
	r.read(t, 0x7000)
	if r.st.Traffic.Bytes(stats.Counter) != 0 || r.st.Traffic.Bytes(stats.BMT) != 0 {
		t.Fatal("read of clean region moved counter/BMT traffic")
	}
	r.write(t, 0x7000, sector(1))
	ctrAfterWrite := r.st.Traffic.Bytes(stats.Counter)
	if ctrAfterWrite == 0 {
		t.Fatal("write should have fetched counters")
	}
	// A read in the same (now dirty) region uses the normal path; the
	// counter may be cached, but verification ran — the region flag flips.
	res := r.read(t, 0x7040)
	if !res.OK {
		t.Fatal("read after write failed")
	}
}

// Compact counters: lightly-written data is served from the compact
// layer; saturated sectors pay the double access.
func TestCompactCounterFlow(t *testing.T) {
	r := newRig(t, PlutusCompact(protected, counters.Compact3Bit))
	r.write(t, 0x8000, sector(1))
	r.read(t, 0x8000)
	if r.st.Sec.CompactHits == 0 {
		t.Fatal("lightly-written sector not served by compact layer")
	}
	if r.st.Traffic.Bytes(stats.CompactCounter) == 0 {
		t.Fatal("no compact-counter traffic")
	}
	// Saturate: 7 writes reach the 3-bit ceiling.
	for k := 0; k < 8; k++ {
		r.write(t, 0x8000, sector(uint32(k)))
	}
	if r.st.Sec.CompactOverflow == 0 {
		t.Fatal("saturated sector did not record overflow double-access")
	}
	res := r.read(t, 0x8000)
	if !res.OK {
		t.Fatal("read of saturated sector failed")
	}
}

// Adaptive compact counters disable a block after enough saturations and
// then go straight to the originals.
func TestAdaptiveCompactDisables(t *testing.T) {
	cfg := PlutusCompact(protected, counters.Compact3BitAdaptive)
	cfg.CompactThreshold = 2
	r := newRig(t, cfg)
	saturate := func(a geom.Addr) {
		for k := 0; k < 8; k++ {
			r.write(t, a, sector(uint32(k)))
		}
	}
	saturate(0x9000)
	saturate(0x9020)
	r.read(t, 0x9040) // same compact block
	if r.st.Sec.CompactDisabled == 0 {
		t.Fatal("block not disabled after threshold saturations")
	}
}

// NoTreeTraffic (Fig. 20) eliminates BMT traffic entirely.
func TestNoTreeTrafficEliminatesBMT(t *testing.T) {
	r := newRig(t, PlutusNoTree(protected))
	for a := geom.Addr(0); a < 64*geom.SectorSize; a += geom.SectorSize {
		r.write(t, 0x30000+a, sector(uint32(a)))
		r.read(t, 0x30000+a)
	}
	if got := r.st.Traffic.Bytes(stats.BMT) + r.st.Traffic.Bytes(stats.CompactBMT); got != 0 {
		t.Fatalf("NoTreeTraffic run moved %d tree bytes", got)
	}
}

// Plutus moves less metadata than PSSM on a value-local workload.
func TestPlutusReducesMetadataTraffic(t *testing.T) {
	run := func(cfg Config) uint64 {
		r := newRig(t, cfg)
		common := sector(7, 7, 7, 7, 7, 7, 7, 7)
		r.e.InitData = func(geom.Addr) []byte { return common }
		// Scattered cold reads (metadata-cache hostile).
		for k := 0; k < 400; k++ {
			r.read(t, geom.Addr(k*13)%0x8000*geom.SectorSize)
		}
		r.e.FlushDirtyMetadata()
		r.eng.Drain(1 << 22)
		return r.st.Traffic.MetadataBytes()
	}
	pssm := run(PSSM(protected))
	plutus := run(Plutus(protected))
	if plutus >= pssm {
		t.Fatalf("Plutus metadata %d ≥ PSSM %d on value-local workload", plutus, pssm)
	}
}

// MAC-update skipping: pinned-value writes defer the MAC and later reads
// still verify (by value), never consulting the stale MAC.
func TestWriteGuaranteeSkipsMACSafely(t *testing.T) {
	r := newRig(t, Plutus(protected))
	common := sector(0x5150, 0x5150, 0x5150, 0x5150, 0x5150, 0x5150, 0x5150, 0x5150)
	// Drive the common values to pinned status.
	for k := 0; k < 64; k++ {
		r.write(t, geom.Addr(0x50000+k*geom.SectorSize), common)
	}
	if r.st.Sec.MACSkippedWrites == 0 {
		t.Fatal("no MAC updates were skipped despite pinned values")
	}
	res := r.read(t, 0x50000)
	if !res.OK || !res.ValueVerified {
		t.Fatalf("guaranteed write did not value-verify on read: %+v", res)
	}
	if r.st.Sec.TamperDetected != 0 {
		t.Fatal("false tamper alarm")
	}
}

func TestConfigNormalizeRejectsValueVerifyWithCME(t *testing.T) {
	cfg := PSSM(protected)
	cfg.Check = CheckValue
	if err := cfg.Normalize(); err == nil {
		t.Fatal("value verification over CME must be rejected (malleable)")
	}
}

func TestFlushDirtyMetadataAccounts(t *testing.T) {
	r := newRig(t, PSSM(protected))
	r.write(t, 0xA000, sector(3))
	before := r.st.Traffic.WriteBytes[stats.Counter] + r.st.Traffic.WriteBytes[stats.MAC]
	r.e.FlushDirtyMetadata()
	r.eng.Drain(1 << 20)
	after := r.st.Traffic.WriteBytes[stats.Counter] + r.st.Traffic.WriteBytes[stats.MAC]
	if after <= before {
		t.Fatal("flush moved no dirty metadata")
	}
}

// Eager tree updates must write more BMT traffic than lazy updates for
// the same write stream (the reason every evaluated scheme is lazy).
func TestEagerTreeUpdateCostsMoreBMTTraffic(t *testing.T) {
	run := func(eager bool) uint64 {
		cfg := PSSM(protected)
		if eager {
			cfg.Freshness = FreshEagerBMT
			cfg.Scheme = "pssm-eager"
		}
		r := newRig(t, cfg)
		for k := 0; k < 200; k++ {
			r.write(t, geom.Addr(0x1000+(k%50)*0x2000), sector(uint32(k)))
		}
		r.e.FlushDirtyMetadata()
		r.eng.Drain(1 << 22)
		return r.st.Traffic.WriteBytes[stats.BMT]
	}
	lazy, eager := run(false), run(true)
	if eager <= lazy {
		t.Fatalf("eager BMT write bytes %d should exceed lazy %d", eager, lazy)
	}
}

// Round trips must still verify under eager updates.
func TestEagerTreeUpdateRoundTrip(t *testing.T) {
	cfg := PSSM(protected)
	cfg.Freshness = FreshEagerBMT
	cfg.Scheme = "pssm-eager"
	r := newRig(t, cfg)
	data := sector(0xAB, 0xCD, 0xEF, 0x12)
	r.write(t, 0x9000, data)
	res := r.read(t, 0x9000)
	if !res.OK || !bytes.Equal(res.Data[:], data) {
		t.Fatalf("eager round trip failed: ok=%v", res.OK)
	}
	r.e.ReplayCounter(0x9000)
	if res := r.read(t, 0x9000); res.OK {
		t.Fatal("replay passed under eager updates")
	}
}

// TestSchemeRegistry pins the ByName/Names contract plutusd's discovery
// endpoint and plutussim -list rely on: every advertised name resolves,
// normalizes cleanly, and carries the requested protected size; names
// are unique; unknown names fail with the full valid set in the error.
func TestSchemeRegistry(t *testing.T) {
	const protected = 128 << 20
	names := Names()
	if len(names) == 0 {
		t.Fatal("Names() is empty")
	}
	seen := map[string]bool{}
	for _, name := range names {
		if seen[name] {
			t.Errorf("duplicate scheme name %q", name)
		}
		seen[name] = true
		sc, err := ByName(name, protected)
		if err != nil {
			t.Errorf("ByName(%q): %v", name, err)
			continue
		}
		if sc.ProtectedBytes != protected {
			t.Errorf("ByName(%q).ProtectedBytes = %d, want %d", name, sc.ProtectedBytes, protected)
		}
		if err := sc.Normalize(); err != nil {
			t.Errorf("ByName(%q) does not normalize: %v", name, err)
		}
	}
	if !seen["plutus"] || !seen["pssm"] || !seen["nosec"] {
		t.Errorf("canonical schemes missing from Names(): %v", names)
	}
	_, err := ByName("bogus", protected)
	if err == nil {
		t.Fatal("unknown scheme resolved")
	}
	for _, name := range names {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("unknown-scheme error does not list %q: %v", name, err)
		}
	}
}
