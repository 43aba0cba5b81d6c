package tamper

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"github.com/plutus-gpu/plutus/internal/checkpoint"
	"github.com/plutus-gpu/plutus/internal/dram"
	"github.com/plutus-gpu/plutus/internal/geom"
	"github.com/plutus-gpu/plutus/internal/gpusim"
	"github.com/plutus-gpu/plutus/internal/secmem"
	"github.com/plutus-gpu/plutus/internal/sim"
	"github.com/plutus-gpu/plutus/internal/stats"
	"github.com/plutus-gpu/plutus/internal/valcache"
)

// The differential oracle drives every registered scheme over the same
// seeded workload and attack plan, with the plan's cycle field mapped to
// the workload op index (no GPU model: the secmem engine is driven
// directly, one partition, parts=1 interleaving). Ground truth comes
// from a shadow copy of every written sector plus the engines' taint
// tracking, so the oracle can assert, per scheme:
//
//   - untampered runs produce byte-identical plaintext traffic;
//   - reads of untainted sectors always return the shadow contents,
//     even while metadata (MACs, counters, tree nodes) is under attack;
//   - integrity-enabled schemes never record SilentCorruption, the
//     baseline records nothing but;
//   - each attack class is caught by the layer the design assigns it to.

const (
	oracleProtected = 1 << 20 // engine protected capacity
	oracleWorkSet   = 256     // working-set sectors, at [0, 0x2000)
	oracleMixedOps  = 644     // mixed read/write ops after the fill pass
)

type oracleRig struct {
	eng *sim.Engine
	sec *secmem.Engine
	st  *stats.Stats
}

func newOracleRig(t *testing.T, scheme string) *oracleRig {
	t.Helper()
	cfg, err := secmem.ByName(scheme, oracleProtected)
	if err != nil {
		t.Fatalf("ByName(%s): %v", scheme, err)
	}
	r := &oracleRig{eng: &sim.Engine{}, st: &stats.Stats{}}
	ch := dram.MustNew(dram.DefaultConfig(), r.eng, &r.st.Traffic)
	r.sec = secmem.MustNew(cfg, r.eng, ch, r.st)
	if cfg.Versions == secmem.VersionsDerived {
		// The oracle's stand-in for the workload's stream declaration:
		// the lower half of the working set ([0, 0x1000), sectors
		// 0..127) is one regular stream, the upper half is off-stream —
		// so both the derived path and the stored-counter fallback are
		// exercised by every oracle run.
		r.sec.StreamHint = func(local geom.Addr) (uint64, bool) {
			if local < oracleStreamSplit {
				return uint64(local) / geom.BlockSize, true
			}
			return 0, false
		}
	}
	return r
}

// oracleStreamSplit divides the mgx rig's working set into the declared
// stream below and irregular space above.
const oracleStreamSplit = 0x1000

func (r *oracleRig) write(a geom.Addr, data []byte) {
	r.sec.Writeback(a, data, nil)
	r.eng.Drain(1 << 20)
}

func (r *oracleRig) read(a geom.Addr) secmem.ReadResult {
	var res secmem.ReadResult
	r.sec.Read(a, func(x secmem.ReadResult) { res = x })
	r.eng.Drain(1 << 20)
	return res
}

// oracleSector builds a 32 B sector whose words mix a small shared value
// pool (value locality for the value cache) with per-sector uniques.
func oracleSector(r *prng, pool []uint32) []byte {
	b := make([]byte, geom.SectorSize)
	for w := 0; w < 8; w++ {
		v := pool[r.next()%uint64(len(pool))]
		if r.next()%4 == 0 {
			v = uint32(r.next()) // occasional unique word
		}
		binary.LittleEndian.PutUint32(b[w*4:], v)
	}
	return b
}

// runOracle replays the seeded workload against one rig, applying due
// tamper ops between workload steps (op.Cycle = workload op index, as in
// the simulator's epoch-boundary application). It returns the digest of
// every untainted read's plaintext; reads of untainted written sectors
// are checked against the shadow model as they happen.
func runOracle(t *testing.T, rig *oracleRig, seed uint64, ops []gpusim.TamperOp) [32]byte {
	t.Helper()
	return runOraclePaused(t, rig, seed, ops, 0, nil)
}

// runOraclePaused is runOracle with an optional mid-run pause: at
// workload op pauseAt the hook receives the current rig and returns the
// rig the run continues on (the checkpoint/resume tests snapshot the
// first and restore into a fresh one).
func runOraclePaused(t *testing.T, rig *oracleRig, seed uint64, ops []gpusim.TamperOp,
	pauseAt uint64, pause func(*oracleRig) *oracleRig) [32]byte {
	t.Helper()
	r := &prng{state: seed*0x9e3779b97f4a7c15 + 1}
	pool := make([]uint32, 64)
	for i := range pool {
		pool[i] = uint32(r.next())
	}
	shadow := make(map[geom.Addr][]byte)
	h := sha256.New()
	next := 0
	cycle := uint64(0)

	step := func(f func()) {
		if pause != nil && cycle == pauseAt {
			rig = pause(rig)
			pause = nil
		}
		for next < len(ops) && ops[next].Cycle <= cycle {
			op := ops[next]
			// parts=1 interleaving: global and partition-local addresses
			// coincide, so ops apply directly.
			op.Apply(rig.sec, op.Global, op.Src)
			next++
		}
		f()
		cycle++
	}
	doWrite := func(a geom.Addr) {
		data := oracleSector(r, pool)
		shadow[a] = data
		rig.write(a, data)
	}
	doRead := func(a geom.Addr) {
		tainted := rig.sec.DataTainted(a)
		res := rig.read(a)
		if tainted {
			return
		}
		if want, ok := shadow[a]; ok && !bytes.Equal(res.Data[:], want) {
			t.Fatalf("untainted read of %#x returned wrong plaintext (op %d)", uint64(a), cycle)
		}
		h.Write(res.Data[:])
	}

	// Fill pass: write the whole working set so counters, MACs and tree
	// hashes reflect post-boot state before any attack lands.
	for i := 0; i < oracleWorkSet; i++ {
		step(func() { doWrite(geom.Addr(i) * geom.SectorSize) })
	}
	// Mixed phase: 60/40 reads/writes over the working set.
	for i := 0; i < oracleMixedOps; i++ {
		a := geom.Addr(r.next()%oracleWorkSet) * geom.SectorSize
		if r.next()%10 < 6 {
			step(func() { doRead(a) })
		} else {
			step(func() { doWrite(a) })
		}
	}
	// Sweep: read every sector once, so every attacked target is
	// observed after its mutation.
	for i := 0; i < oracleWorkSet; i++ {
		step(func() { doRead(geom.Addr(i) * geom.SectorSize) })
	}
	if next < len(ops) {
		t.Fatalf("plan schedules ops past the workload end (applied %d of %d)", next, len(ops))
	}
	var sum [32]byte
	h.Sum(sum[:0])
	return sum
}

// allKindsPlan attacks the working set with every attack class the
// scheme has a DRAM target for, mid-workload, four targets each. Kinds
// keep their registry-ordered cycles and the data kinds precede the
// metadata kinds, so the data-attack ops expand byte-identically across
// all schemes (the seeded stream's prefix is shared).
func allKindsPlan(t *testing.T, seed uint64, cfg secmem.Config) []gpusim.TamperOp {
	t.Helper()
	text := fmt.Sprintf("seed %d\n", seed)
	for i, k := range Kinds() {
		if !k.AppliesTo(cfg) {
			continue
		}
		text += fmt.Sprintf("at cycle=%d attack=%s range=0x0:0x2000 count=4\n", 300+20*i, k)
	}
	return mustExpand(t, text)
}

func mustExpand(t *testing.T, text string) []gpusim.TamperOp {
	t.Helper()
	p, err := Parse(text)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	ops, err := p.Expand(geom.MustInterleaver(1), oracleProtected)
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	return ops
}

// TestOracleCleanAgreement: with no attack armed, every scheme moves the
// same plaintext — the digests of all read traffic are identical across
// the registry, and no verdicts or taint counters move.
func TestOracleCleanAgreement(t *testing.T) {
	var wantDigest [32]byte
	var wantScheme string
	for _, name := range secmem.Names() {
		rig := newOracleRig(t, name)
		d := runOracle(t, rig, 11, nil)
		if wantScheme == "" {
			wantDigest, wantScheme = d, name
		} else if d != wantDigest {
			t.Errorf("scheme %s plaintext digest diverges from %s", name, wantScheme)
		}
		if n := rig.st.Sec.Verdicts.Total(); n != 0 {
			t.Errorf("scheme %s: %d verdicts on a benign run", name, n)
		}
		if rig.st.Sec.TaintedReads != 0 || rig.st.Sec.TamperInjected != 0 {
			t.Errorf("scheme %s: taint counters moved on a benign run", name)
		}
	}
}

// TestOracleNoSilentCorruption is the headline security assertion: under
// every applicable attack class at once, across three seeds, no
// integrity-enabled scheme ever returns tampered data as verified
// (SilentCorruption stays zero), while the no-security baseline returns
// nothing but. Plans are capability-filtered per scheme, so every
// scheduled op must land — no silent engine-level no-ops.
func TestOracleNoSilentCorruption(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		for _, name := range secmem.Names() {
			rig := newOracleRig(t, name)
			ops := allKindsPlan(t, seed, rig.sec.Config())
			runOracle(t, rig, seed, ops)
			sec := &rig.st.Sec
			if got, want := sec.TamperInjected, uint64(len(ops)); got != want {
				t.Errorf("seed %d %s: injected %d of %d ops", seed, name, got, want)
			}
			if sec.TaintedReads == 0 {
				t.Errorf("seed %d %s: no tainted reads — the oracle is vacuous", seed, name)
			}
			silent := sec.Verdicts.Count(stats.VerdictSilentCorruption)
			if name == "nosec" {
				if silent != sec.TaintedReads {
					t.Errorf("seed %d nosec: %d silent corruptions for %d tainted reads",
						seed, silent, sec.TaintedReads)
				}
				continue
			}
			if silent != 0 {
				t.Errorf("seed %d %s: %d silent corruptions (tainted reads %d, verdicts %v)",
					seed, name, silent, sec.TaintedReads, sec.Verdicts)
			}
		}
	}
}

// TestOracleDetectionMatrix pins each attack class to the layer that
// catches it, on the two ends of the design space: pssm (MAC + tree,
// no value cache) and full plutus. plutus's value path may verify a
// mac-corrupt read without ever consulting the MAC, and its compact
// tree never walks the corrupted main-tree node, so detection there is
// only asserted where the design guarantees it.
func TestOracleDetectionMatrix(t *testing.T) {
	type expect struct {
		mac, bmt, recon bool // require ≥1 of the matching verdict kind
	}
	matrix := map[string]map[Kind]expect{
		"pssm": {
			BitFlip:     {mac: true},
			WordFlip:    {mac: true},
			SectorFlip:  {mac: true},
			Splice:      {mac: true},
			MACCorrupt:  {mac: true},
			CtrRollback: {bmt: true},
			BMTCorrupt:  {bmt: true},
		},
		"plutus": {
			BitFlip:     {},
			WordFlip:    {},
			SectorFlip:  {},
			Splice:      {},
			MACCorrupt:  {},
			CtrRollback: {bmt: true},
			BMTCorrupt:  {},
		},
		// mgx has no value cache, so every data attack resolves at the
		// MAC. ctr-rollback/bmt-corrupt over the full range carry no
		// guarantee here: targets landing in the derived half never
		// refetch counters (see TestOracleMGXFallback for the
		// irregular-half guarantee).
		"mgx": {
			BitFlip:     {mac: true},
			WordFlip:    {mac: true},
			SectorFlip:  {mac: true},
			Splice:      {mac: true},
			MACCorrupt:  {mac: true},
			CtrRollback: {},
			BMTCorrupt:  {},
		},
		// ssm's only verify layer is share reconstruction; the metadata
		// kinds don't apply (no MACs, counters or tree in DRAM).
		"ssm": {
			BitFlip:    {recon: true},
			WordFlip:   {recon: true},
			SectorFlip: {recon: true},
			Splice:     {recon: true},
		},
	}
	for _, name := range []string{"pssm", "plutus", "mgx", "ssm"} {
		for _, k := range Kinds() {
			if _, applicable := matrix[name][k]; !applicable {
				continue
			}
			t.Run(name+"/"+k.String(), func(t *testing.T) {
				ops := mustExpand(t, fmt.Sprintf(
					"seed 5\nat cycle=300 attack=%s range=0x0:0x2000 count=4\n", k))
				rig := newOracleRig(t, name)
				runOracle(t, rig, 5, ops)
				sec := &rig.st.Sec
				if silent := sec.Verdicts.Count(stats.VerdictSilentCorruption); silent != 0 {
					t.Fatalf("%d silent corruptions", silent)
				}
				want := matrix[name][k]
				if want.mac && sec.Verdicts.Count(stats.VerdictDetectedByMAC) == 0 {
					t.Fatalf("attack not caught by MAC (verdicts %v)", sec.Verdicts)
				}
				if want.bmt && sec.Verdicts.Count(stats.VerdictDetectedByBMT) == 0 {
					t.Fatalf("attack not caught by tree (verdicts %v)", sec.Verdicts)
				}
				if want.recon && sec.Verdicts.Count(stats.VerdictDetectedByReconstruction) == 0 {
					t.Fatalf("attack not caught by reconstruction (verdicts %v)", sec.Verdicts)
				}
				// Data attacks must always resolve to *some* verdict on
				// an integrity scheme: detected or value-accepted.
				switch k {
				case BitFlip, WordFlip, SectorFlip, Splice:
					if sec.Verdicts.Total() == 0 {
						t.Fatalf("data attack produced no verdicts")
					}
				}
			})
		}
	}
}

// TestOracleMGXFallback pins the mgx fallback path's freshness
// guarantee: counter-rollback and tree-node attacks aimed entirely at
// the irregular (stored-counter) half of the working set are caught by
// the BMT, exactly as on the conventional schemes.
func TestOracleMGXFallback(t *testing.T) {
	for _, k := range []Kind{CtrRollback, BMTCorrupt} {
		t.Run(k.String(), func(t *testing.T) {
			ops := mustExpand(t, fmt.Sprintf(
				"seed 5\nat cycle=300 attack=%s range=0x1000:0x2000 count=4\n", k))
			rig := newOracleRig(t, "mgx")
			runOracle(t, rig, 5, ops)
			sec := &rig.st.Sec
			if got, want := sec.TamperInjected, uint64(len(ops)); got != want {
				t.Fatalf("injected %d of %d ops", got, want)
			}
			if silent := sec.Verdicts.Count(stats.VerdictSilentCorruption); silent != 0 {
				t.Fatalf("%d silent corruptions", silent)
			}
			if sec.Verdicts.Count(stats.VerdictDetectedByBMT) == 0 {
				t.Fatalf("irregular-half %s not caught by the tree (verdicts %v)", k, sec.Verdicts)
			}
			if sec.DerivedVersions == 0 || sec.DerivedFallbacks == 0 {
				t.Fatalf("oracle rig did not exercise both mgx paths: %+v", sec)
			}
		})
	}
}

// TestOracleSnapshotResume proves checkpoint/resume byte-identity for
// the frontier schemes under attack: a run paused mid-workload,
// snapshotted, restored into a freshly built rig and continued produces
// the same plaintext digest, security stats and traffic totals as the
// uninterrupted run.
func TestOracleSnapshotResume(t *testing.T) {
	for _, name := range []string{"plutus", "mgx", "ssm"} {
		t.Run(name, func(t *testing.T) {
			base := newOracleRig(t, name)
			ops := allKindsPlan(t, 3, base.sec.Config())
			wantDigest := runOracle(t, base, 3, ops)

			start := newOracleRig(t, name)
			var final *oracleRig
			gotDigest := runOraclePaused(t, start, 3, ops, 500, func(r *oracleRig) *oracleRig {
				walk := func(r *oracleRig) func(*checkpoint.Codec) {
					return func(c *checkpoint.Codec) {
						r.sec.Codec(c)
						r.st.Codec(c)
					}
				}
				data, err := checkpoint.Marshal(walk(r))
				if err != nil {
					t.Fatalf("encode: %v", err)
				}
				fresh := newOracleRig(t, name)
				if err := checkpoint.Unmarshal(data, walk(fresh)); err != nil {
					t.Fatalf("decode: %v", err)
				}
				final = fresh
				return fresh
			})
			if final == nil {
				t.Fatal("pause hook never ran")
			}
			if gotDigest != wantDigest {
				t.Errorf("plaintext digest diverges across snapshot/resume")
			}
			if final.st.Sec != base.st.Sec {
				t.Errorf("security stats diverge across snapshot/resume:\n%+v\n%+v",
					final.st.Sec, base.st.Sec)
			}
			if got, want := final.st.Traffic.Total(), base.st.Traffic.Total(); got != want {
				t.Errorf("traffic totals diverge across snapshot/resume: %d vs %d", got, want)
			}
		})
	}
}

// TestOracleSeededMutation is the oracle's own mutation check, run by CI
// as a seeded fault-injection gate: flipping a single stored share (any
// region, base or check) and skewing a single derived version must each
// be caught — an implementation where some share doesn't participate in
// the consistency check, or where version derivation can silently
// desynchronize, fails here.
func TestOracleSeededMutation(t *testing.T) {
	data := make([]byte, geom.SectorSize)
	for i := range data {
		data[i] = byte(0xa0 + i)
	}
	t.Run("ssm-share-flip", func(t *testing.T) {
		for region := 0; region < 3; region++ {
			rig := newOracleRig(t, "ssm")
			const addr = geom.Addr(0x40)
			rig.write(addr, data)
			if !rig.sec.CorruptShare(addr, region) {
				t.Fatalf("region %d: CorruptShare refused", region)
			}
			res := rig.read(addr)
			if res.OK {
				t.Errorf("region %d: corrupted share read verified OK", region)
			}
			if rig.st.Sec.Verdicts.Count(stats.VerdictDetectedByReconstruction) == 0 {
				t.Errorf("region %d: no reconstruction verdict (verdicts %v)",
					region, rig.st.Sec.Verdicts)
			}
			if silent := rig.st.Sec.Verdicts.Count(stats.VerdictSilentCorruption); silent != 0 {
				t.Errorf("region %d: %d silent corruptions", region, silent)
			}
		}
	})
	t.Run("mgx-version-skew", func(t *testing.T) {
		rig := newOracleRig(t, "mgx")
		const derived = geom.Addr(0x100)    // inside the declared stream
		const irregular = geom.Addr(0x1800) // outside it
		rig.write(derived, data)
		rig.write(irregular, data)
		if rig.sec.SkewDerivedVersion(irregular) {
			t.Error("SkewDerivedVersion skewed a stored-counter sector")
		}
		if !rig.sec.SkewDerivedVersion(derived) {
			t.Fatal("SkewDerivedVersion refused a derived sector")
		}
		res := rig.read(derived)
		if res.OK {
			t.Error("skewed-version read verified OK")
		}
		if rig.st.Sec.Verdicts.Count(stats.VerdictDetectedByMAC) == 0 {
			t.Errorf("version skew not caught by MAC (verdicts %v)", rig.st.Sec.Verdicts)
		}
		if silent := rig.st.Sec.Verdicts.Count(stats.VerdictSilentCorruption); silent != 0 {
			t.Errorf("%d silent corruptions", silent)
		}
	})
}

// TestOracleReplayDeterminism: the same scheme, seed and plan replays to
// byte-identical traffic, verdicts and taint counters.
func TestOracleReplayDeterminism(t *testing.T) {
	run := func(name string) ([32]byte, stats.SecStats, uint64) {
		rig := newOracleRig(t, name)
		ops := allKindsPlan(t, 2, rig.sec.Config())
		d := runOracle(t, rig, 2, ops)
		return d, rig.st.Sec, rig.st.Traffic.Total()
	}
	for _, name := range []string{"plutus", "mgx", "ssm"} {
		d1, s1, t1 := run(name)
		d2, s2, t2 := run(name)
		if d1 != d2 {
			t.Errorf("%s: plaintext digests differ across replays", name)
		}
		if s1 != s2 {
			t.Errorf("%s: security stats differ across replays:\n%+v\n%+v", name, s1, s2)
		}
		if t1 != t2 {
			t.Errorf("%s: traffic totals differ across replays: %d vs %d", name, t1, t2)
		}
	}
}

// TestFalseAcceptRateBounded validates Eq. 1 against the mechanism: the
// measured false-accept rate of uniformly random cipher blocks matches
// the binomial model within Monte-Carlo tolerance (on a deliberately
// weak cache where the rate is measurable), and the production
// configuration's modelled rate sits below the paper's 2^-32 per-word
// reference bound.
func TestFalseAcceptRateBounded(t *testing.T) {
	cfg := valcache.Config{
		Entries:        4096,
		PinnedFrac:     0,
		MaskBits:       16, // 2^16 key space: forgeries become observable
		PinThreshold:   15,
		MatchThreshold: 3,
	}
	c := valcache.MustNew(cfg)
	r := &prng{state: 99}
	for c.Len() < cfg.Entries {
		c.Insert(uint32(r.next()))
	}
	p := valcache.HitProbability(c.Len(), cfg.MaskBits)
	model := valcache.ForgeryProbability(valcache.ValuesPerUnit, cfg.MatchThreshold, p)

	const trials = 500_000
	block := make([]byte, valcache.UnitBytes)
	accepts := 0
	for i := 0; i < trials; i++ {
		for w := 0; w < valcache.ValuesPerUnit; w++ {
			binary.LittleEndian.PutUint32(block[w*4:], uint32(r.next()))
		}
		if c.VerifySector(block).Verified {
			accepts++
		}
	}
	got := float64(accepts) / trials
	if got > 1.5*model+1e-9 || got < 0.5*model {
		t.Errorf("measured false-accept rate %.3g vs modelled %.3g (accepts %d/%d)",
			got, model, accepts, trials)
	}

	// Production configuration: the modelled per-block forgery rate must
	// clear the paper's 2^-32 per-word reference with a wide margin.
	prod := valcache.DefaultConfig()
	pp := valcache.HitProbability(prod.Entries, prod.MaskBits)
	bound := valcache.ForgeryProbability(valcache.ValuesPerUnit, prod.MatchThreshold, pp)
	if bound > math.Pow(2, -32) {
		t.Errorf("production forgery bound %.3g exceeds 2^-32", bound)
	}
	if valcache.MinHitsRequired(valcache.ValuesPerUnit, pp, math.Pow(2, -32)) > prod.MatchThreshold {
		t.Errorf("MatchThreshold %d does not achieve the 2^-32 bound", prod.MatchThreshold)
	}
}
