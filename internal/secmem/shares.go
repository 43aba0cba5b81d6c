package secmem

// The share-reconstruction check, CheckShares, over on-chip versions
// (the ssm frontier scheme; PAPERS.md: "Secure Scattered Memory"): each
// 32 B data sector is stored as n Shamir secret shares over GF(256),
// scattered across the protected space under keyed rotations. A read
// fetches all n shares and reconstructs the plaintext from the first k
// by Lagrange interpolation at x=0; the remaining n−k shares are
// re-evaluated from the same polynomial and compared against their
// stored copies. Any single-share corruption breaks that consistency
// check — tamper detection IS reconstruction failure, so the scheme
// needs no counters, no MACs, and no integrity tree: the entire
// metadata datapath of the conventional schemes is replaced by n× data
// amplification. The share pads are refreshed from a keyed stream on
// every write (shareStore.ver), so ciphertext never repeats across
// writes.
//
// Share region 0 uses the identity placement (slot i for sector i), so
// the attack surface reachable through data addresses — exactly what
// tamper plans can target — lines up with the oracle's per-sector
// ground truth; regions 1..n−1 live beyond the protected range under
// secret rotations, which is the scheme's location-secrecy argument.

import (
	"encoding/binary"
	"fmt"

	"github.com/plutus-gpu/plutus/internal/checkpoint"
	"github.com/plutus-gpu/plutus/internal/crypto/siphash"
	"github.com/plutus-gpu/plutus/internal/dense"
	"github.com/plutus-gpu/plutus/internal/geom"
	"github.com/plutus-gpu/plutus/internal/stats"
)

// shareStore is the share check's state: the on-chip version source and
// the keyed share geometry.
type shareStore struct {
	// written marks sectors ever written (snapshot enumeration).
	written dense.Bitmap
	// ver is the per-sector write version keying the share pads.
	ver dense.U64
	//simlint:ignore snapsym keyed rotations are pure geometry derived from the configuration
	rot []uint64
	//simlint:ignore snapsym Lagrange reconstruction basis derived from the configuration
	recon []byte
	//simlint:ignore snapsym check-share basis matrix derived from the configuration
	check [][]byte
}

// Codec walks the written set, then every written sector's version.
// sectors bounds the sector indices a walk decodes.
func (s *shareStore) Codec(c *checkpoint.Codec, sectors uint64) {
	s.written.WalkSet(c, sectors)
	s.written.ForEach(func(i uint64) {
		v := s.ver.Get(i)
		c.U64(&v)
		s.ver.Set(i, v)
	})
}

// --- GF(256) arithmetic (AES polynomial x^8+x^4+x^3+x+1) ---

var (
	gfExp [512]byte
	gfLog [256]byte
)

func init() {
	x := byte(1)
	for i := 0; i < 255; i++ {
		gfExp[i] = x
		gfLog[x] = byte(i)
		x = gfMulSlow(x, 3) // 3 generates the multiplicative group
	}
	for i := 255; i < 512; i++ {
		gfExp[i] = gfExp[i-255]
	}
}

// gfMulSlow is the shift-and-reduce product used only to build tables.
func gfMulSlow(a, b byte) byte {
	var p byte
	for b > 0 {
		if b&1 != 0 {
			p ^= a
		}
		hi := a & 0x80
		a <<= 1
		if hi != 0 {
			a ^= 0x1b
		}
		b >>= 1
	}
	return p
}

//simlint:hotpath
func gfMul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return gfExp[int(gfLog[a])+int(gfLog[b])]
}

func gfInv(a byte) byte { return gfExp[255-int(gfLog[a])] }

func gfDiv(a, b byte) byte { return gfMul(a, gfInv(b)) }

// lagrangeAt returns the Lagrange basis value L_r(t) for interpolation
// point x_r = r+1 over the base points x_1..x_k = 1..k (addition in
// GF(2^8) is XOR, so subtraction is too).
func lagrangeAt(r, k int, t byte) byte {
	xr := byte(r + 1)
	v := byte(1)
	for j := 0; j < k; j++ {
		if j == r {
			continue
		}
		xj := byte(j + 1)
		v = gfMul(v, gfDiv(t^xj, xr^xj))
	}
	return v
}

// initSSM finishes engine construction for the share check: keys, the
// data-sector geometry, the secret share rotations, and the two
// precomputed Lagrange basis sets (reconstruction at 0, check-share
// re-evaluation at x=k+1..n).
func (e *Engine) initSSM() error {
	_, macKey, treeKey := e.cfg.keys()
	e.macKey, e.treeKey = macKey, treeKey
	e.lay.dataSectors = e.cfg.ProtectedBytes / geom.SectorSize
	if e.lay.dataSectors == 0 {
		return fmt.Errorf("secmem: ssm needs at least one protected sector")
	}

	k, n := e.cfg.SSMThreshold, e.cfg.SSMShares
	s := &shareStore{rot: make([]uint64, n), recon: make([]byte, k), check: make([][]byte, n-k)}
	for r := 1; r < n; r++ {
		var msg [8]byte
		binary.LittleEndian.PutUint64(msg[:], uint64(r))
		s.rot[r] = siphash.Sum64(e.treeKey, msg[:]) % e.lay.dataSectors
	}
	for r := 0; r < k; r++ {
		s.recon[r] = lagrangeAt(r, k, 0)
	}
	for c := 0; c < n-k; c++ {
		row := make([]byte, k)
		for r := 0; r < k; r++ {
			row[r] = lagrangeAt(r, k, byte(k+c+1))
		}
		s.check[c] = row
	}
	e.shares = s
	return nil
}

// ssmSlot maps (share region, data sector) to its physical sector slot.
// Region 0 is the identity; regions r ≥ 1 sit past the protected range
// at a keyed rotation of the sector index.
//
//simlint:hotpath
func (e *Engine) ssmSlot(r int, i uint64) uint64 {
	if r == 0 {
		return i
	}
	return uint64(r)*e.lay.dataSectors + (i+e.shares.rot[r])%e.lay.dataSectors
}

// ssmSlotAddr is ssmSlot as a partition-local DRAM address.
//
//simlint:hotpath
func (e *Engine) ssmSlotAddr(r int, i uint64) geom.Addr {
	return geom.Addr(e.ssmSlot(r, i) * geom.SectorSize)
}

// ssmPad fills buf with the keyed coefficient pad for (sector, version,
// degree) — the fresh randomness behind every write's share polynomial.
func (e *Engine) ssmPad(buf *[geom.SectorSize]byte, i, ver uint64, d int) {
	var msg [24]byte
	binary.LittleEndian.PutUint64(msg[0:], i)
	binary.LittleEndian.PutUint64(msg[8:], ver)
	for w := 0; w < geom.SectorSize/8; w++ {
		binary.LittleEndian.PutUint64(msg[16:], uint64(d)<<32|uint64(w))
		binary.LittleEndian.PutUint64(buf[w*8:], siphash.Sum64(e.macKey, msg[:]))
	}
}

// ssmStoreShares evaluates the degree-(k−1) share polynomial of pt at
// x=1..n under sector i's current version and stores every share in its
// slot of the functional DRAM image.
func (e *Engine) ssmStoreShares(i uint64, pt []byte) {
	ver := e.shares.ver.Get(i)
	k, n := e.cfg.SSMThreshold, e.cfg.SSMShares
	var coefs [8][geom.SectorSize]byte
	for d := 1; d < k; d++ {
		e.ssmPad(&coefs[d], i, ver, d)
	}
	for r := 0; r < n; r++ {
		dst := e.mem.Put(e.ssmSlot(r, i))
		x := byte(r + 1)
		for b := 0; b < geom.SectorSize; b++ {
			v := pt[b]
			xp := x
			for d := 1; d < k; d++ {
				v ^= gfMul(coefs[d][b], xp)
				xp = gfMul(xp, x)
			}
			dst[b] = v
		}
	}
}

// ssmEnsure lazily materializes sector i's share set from the
// workload's initial contents (version 0). Region 0's slot keys the
// whole set: shares are only ever stored as a complete group.
func (e *Engine) ssmEnsure(i uint64) {
	if _, ok := e.mem.Lookup(e.ssmSlot(0, i)); ok {
		return
	}
	var pt [geom.SectorSize]byte
	if e.InitData != nil {
		copy(pt[:], e.InitData(geom.Addr(i*geom.SectorSize)))
	}
	e.ssmStoreShares(i, pt[:])
}

// ssmShare0 returns sector i's region-0 share, materializing the share
// set if needed. The slice aliases the DRAM image — this is what the
// attack primitives mutate through materialize, so data-address attacks
// hit exactly the share the oracle's ground truth tracks.
func (e *Engine) ssmShare0(i uint64) []byte {
	e.ssmEnsure(i)
	s, _ := e.mem.Lookup(e.ssmSlot(0, i))
	return s
}

// ssmReconstruct rebuilds sector i's plaintext into pt from its first k
// stored shares and reports whether the n−k check shares are consistent
// with them. Consistency fails exactly when some share's DRAM copy no
// longer lies on the write-time polynomial — i.e. when anything was
// tampered.
//
//simlint:hotpath
func (e *Engine) ssmReconstruct(pt *[geom.SectorSize]byte, i uint64) bool {
	e.ssmEnsure(i)
	k, n := e.cfg.SSMThreshold, e.cfg.SSMShares
	var shares [8][]byte // Normalize bounds SSMShares at 8
	for r := 0; r < n; r++ {
		s, _ := e.mem.Lookup(e.ssmSlot(r, i))
		shares[r] = s
	}
	for b := 0; b < geom.SectorSize; b++ {
		var v byte
		for r := 0; r < k; r++ {
			v ^= gfMul(e.shares.recon[r], shares[r][b])
		}
		pt[b] = v
	}
	for c := 0; c < n-k; c++ {
		row := e.shares.check[c]
		for b := 0; b < geom.SectorSize; b++ {
			var v byte
			for r := 0; r < k; r++ {
				v ^= gfMul(row[r], shares[r][b])
			}
			if v != shares[k+c][b] {
				return false
			}
		}
	}
	return true
}

// ssmRead is the whole share-check read datapath: fetch all n share
// slots, then reconstruct and classify after the crypto-pipeline latency
// (r's join continuation).
//
//simlint:hotpath
func (e *Engine) ssmRead(r *readReq) {
	i := e.sectorIdx(r.local)
	for s := 0; s < e.cfg.SSMShares; s++ {
		e.ch.Access(e.ssmSlotAddr(s, i), false, stats.Data, r.arm())
	}
	r.seal()
}

// ssmCompleteRead reconstructs and turns share inconsistency into the
// scheme's tamper verdict.
//
//simlint:hotpath
func (e *Engine) ssmCompleteRead(r *readReq) {
	i := e.sectorIdx(r.local)
	consistent := e.ssmReconstruct(&r.res.Data, i)
	e.st.Sec.SharesReconstructed++
	tainted := e.taintData.Get(i)
	if tainted {
		e.st.Sec.TaintedReads++
	}
	if !consistent {
		e.st.Sec.TamperDetected++
		e.st.Sec.Verdicts.Record(stats.VerdictDetectedByReconstruction)
		r.finish(false)
		return
	}
	if tainted {
		// Mutated shares still lay on a consistent polynomial — the
		// scheme's analogue of a MAC collision; the oracle pins this at
		// zero (a single-share mutation provably breaks consistency).
		e.st.Sec.Verdicts.Record(stats.VerdictSilentCorruption)
	}
	r.finish(true)
}

// ssmWrite is the whole share-check write datapath: bump the version,
// refresh the share set under new pads, then, after the crypto-pipeline
// latency, write all n slots (w.issue).
//
//simlint:hotpath
func (e *Engine) ssmWrite(w *writeReq) {
	i := e.sectorIdx(w.local)
	e.shares.ver.Set(i, e.shares.ver.Get(i)+1)
	e.shares.written.Set(i)
	e.ssmStoreShares(i, w.pt[:])
	// Every share's DRAM copy is rewritten wholesale: earlier mutations
	// are gone.
	e.taintData.Clear(i)
	e.eng.Schedule(e.cfg.AESLatency, w.issueFn)
}

// CorruptShare flips one bit of the stored copy of sector local's share
// in the given region — the seeded-mutation probe proving every share
// (base and check alike) participates in the consistency check. Returns
// false when the engine has no share check or the region is out of
// range.
func (e *Engine) CorruptShare(local geom.Addr, region int) bool {
	if e.shares == nil || region < 0 || region >= e.cfg.SSMShares {
		return false
	}
	i := e.sectorIdx(geom.SectorAddr(local))
	e.ssmEnsure(i)
	s, _ := e.mem.Lookup(e.ssmSlot(region, i))
	s[0] ^= 1
	e.taintData.Set(i)
	e.st.Sec.TamperInjected++
	return true
}
