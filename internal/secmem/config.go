// Package secmem implements the per-partition secure memory controller:
// the functional and timing model of memory encryption, MAC-based
// integrity, Bonsai-Merkle-Tree freshness, and the three Plutus
// techniques layered on top (value-based integrity verification, compact
// mirrored counters, and fine-granularity metadata blocks).
//
// One Engine serves one memory partition, as in PSSM: it owns the
// partition's metadata caches, its value cache, its split-counter state,
// its integrity trees, and its DRAM channel. The datapath is functionally
// real — writebacks truly encrypt into a simulated DRAM image and reads
// decrypt and verify it — so the security guarantees are testable, while
// the timing side charges every metadata access to the shared DRAM
// channel the way the paper's bandwidth analysis requires.
package secmem

import (
	"fmt"
	"strings"

	"github.com/plutus-gpu/plutus/internal/cache"
	"github.com/plutus-gpu/plutus/internal/counters"
	"github.com/plutus-gpu/plutus/internal/crypto/gcipher"
	"github.com/plutus-gpu/plutus/internal/crypto/siphash"
	"github.com/plutus-gpu/plutus/internal/geom"
	"github.com/plutus-gpu/plutus/internal/sim"
	"github.com/plutus-gpu/plutus/internal/valcache"
)

// Granularity selects the paper's §IV-E metadata-block design space.
type Granularity int

const (
	// GranAll128 is the prior-work baseline: counters, MACs and BMT nodes
	// all live in 128 B blocks; a counter miss fetches the whole block
	// because the BMT hashes 128 B units.
	GranAll128 Granularity = iota
	// GranCtr32BMT128 shrinks counter units to 32 B but keeps 128 B
	// (16-ary) BMT nodes: more leaves, flatter tree.
	GranCtr32BMT128
	// GranAll32 uses 32 B for everything: counter units and BMT nodes
	// (4-ary), so every metadata fetch is a single DRAM transaction but
	// the tree is taller. This is the design Plutus adopts.
	GranAll32
)

// String names the design for reports.
func (g Granularity) String() string {
	switch g {
	case GranAll128:
		return "all-128B"
	case GranCtr32BMT128:
		return "ctr32-bmt128"
	case GranAll32:
		return "all-32B"
	default:
		return fmt.Sprintf("granularity(%d)", int(g))
	}
}

// CounterUnitBytes returns the counter fetch/hash granularity.
func (g Granularity) CounterUnitBytes() int {
	if g == GranAll128 {
		return 128
	}
	return 32
}

// BMTNodeBytes returns the tree-node block size.
func (g Granularity) BMTNodeBytes() int {
	if g == GranAll32 {
		return 32
	}
	return 128
}

// A scheme is a composition of three parts, one per seam of the
// datapath: a version source (where a sector's encryption version comes
// from), an integrity check (how a read's verdict is decided) and a
// freshness part (how stored versions are protected against replay).
// The zero value of every seam is "none"; all three none is the
// no-security baseline.

// Versions selects the version source.
type Versions int

const (
	// VersionsNone stores plaintext: no encryption, no versions.
	VersionsNone Versions = iota
	// VersionsStored keeps sectored split counters in DRAM, fetched
	// through the counter cache and verified by the freshness part.
	VersionsStored
	// VersionsCommon adds Na et al.'s [18] on-chip write tracker to the
	// stored counters: reads of never-written CommonRegionBytes regions
	// have all-zero counters known on-chip and skip counter and tree
	// traffic entirely.
	VersionsCommon
	// VersionsCompact mirrors the stored counters in a compact counter
	// region with its own tree (paper §IV-D); Compact picks the design.
	VersionsCompact
	// VersionsDerived is mgx: sectors on workload-declared regular write
	// streams derive their versions on-chip from the stream cursor
	// (Engine.StreamHint, the secmem↔workload contract); sectors written
	// outside a declared stream fall back to the stored split counters.
	VersionsDerived
	// VersionsOnChip keeps one write version per sector on-chip, keying
	// the share pads of the share-reconstruction check (ssm).
	VersionsOnChip
)

// stored reports whether the source keeps split counters in DRAM.
func (v Versions) stored() bool { return v >= VersionsStored && v <= VersionsDerived }

// Check selects the integrity check.
type Check int

const (
	// CheckNone verifies nothing: reads return whatever DRAM holds.
	CheckNone Check = iota
	// CheckMAC compares each sector against its DRAM-resident MAC.
	CheckMAC
	// CheckValue accepts a sector whose words hit the value cache and
	// falls back to the MAC otherwise (paper §IV-C); Value sizes the
	// cache.
	CheckValue
	// CheckShares stores each sector as SSMShares Shamir shares and
	// detects tampering as reconstruction inconsistency.
	CheckShares
)

// Freshness selects the freshness part over stored versions.
type Freshness int

const (
	// FreshNone keeps no integrity tree.
	FreshNone Freshness = iota
	// FreshLazyBMT verifies counters through a Bonsai Merkle Tree whose
	// updates ride metadata-cache evictions (every evaluated scheme).
	FreshLazyBMT
	// FreshEagerBMT writes every counter update's whole tree path back
	// at once (paper §II-A3's eager scheme, for the ablation).
	FreshEagerBMT
	// FreshBMTNoTraffic keeps the tree's verdicts but elides all of its
	// traffic, modelling the MGX/TNPU/softVN-style comparison of Fig. 20.
	FreshBMTNoTraffic
)

// Config describes one partition's secure-memory scheme.
type Config struct {
	// Scheme is the display name used in result tables.
	Scheme string

	// Versions, Check and Freshness compose the scheme.
	Versions  Versions
	Check     Check
	Freshness Freshness

	// Encryption selects CME (PSSM baseline) or XTS (Plutus).
	Encryption gcipher.Mode

	// MACBytes is the per-sector MAC size: 4 in PSSM, 8 in Plutus.
	MACBytes int

	// Granularity is the metadata-block design (paper §IV-E).
	Granularity Granularity

	// Compact is the compact mirrored-counter design of VersionsCompact
	// (default: 3-bit adaptive).
	Compact counters.CompactKind
	// CompactThreshold is the adaptive disable threshold (0 = default 8).
	CompactThreshold int

	// Value configures the value cache of CheckValue.
	Value valcache.Config

	// CommonRegionBytes is the VersionsCommon tracking granularity
	// (default 16 KiB).
	CommonRegionBytes int

	// SSMShares is n, the total shares per sector under CheckShares
	// (default 3).
	SSMShares int
	// SSMThreshold is k, the shares needed to reconstruct (default 2).
	// The n-k surplus shares are the redundancy that detects tampering.
	SSMThreshold int

	// ProtectedBytes is the partition's protected data capacity.
	ProtectedBytes uint64

	// MetaCacheBytes sizes each metadata cache (paper: 2 KiB each).
	MetaCacheBytes int
	// MetaCacheWays is the associativity (paper: 4).
	MetaCacheWays int
	// MetaMSHRs bounds outstanding metadata misses per cache.
	MetaMSHRs int

	// MACLatency is the MAC engine latency (paper Table II: 40 cycles).
	MACLatency sim.Cycle
	// AESLatency is the AES pipeline latency per sector.
	AESLatency sim.Cycle

	// Key seeds all cryptographic keys for the partition.
	Key [32]byte
}

// Default latencies and sizes from the paper's Tables I/II.
const (
	DefaultMetaCacheBytes = 2048
	DefaultMACLatency     = 40
	DefaultAESLatency     = 30
	DefaultRegionBytes    = 16 * 1024
)

// Normalize fills zero-valued fields with paper defaults and validates.
func (c *Config) Normalize() error {
	if c.MetaCacheBytes == 0 {
		c.MetaCacheBytes = DefaultMetaCacheBytes
	}
	if c.MetaCacheWays == 0 {
		c.MetaCacheWays = 4
	}
	if c.MetaMSHRs == 0 {
		c.MetaMSHRs = 256
	}
	if c.MACLatency == 0 {
		c.MACLatency = DefaultMACLatency
	}
	if c.AESLatency == 0 {
		c.AESLatency = DefaultAESLatency
	}
	if c.CommonRegionBytes == 0 {
		c.CommonRegionBytes = DefaultRegionBytes
	}
	if c.ProtectedBytes == 0 {
		c.ProtectedBytes = 64 << 20
	}
	if c.MACBytes == 0 {
		c.MACBytes = 8
	}
	if c.Versions == VersionsCompact && c.Compact == counters.CompactOff {
		c.Compact = counters.Compact3BitAdaptive
	}
	if c.Check == CheckValue && c.Value.Entries == 0 {
		c.Value = valcache.DefaultConfig()
	}
	if c.Check == CheckShares {
		if c.SSMShares == 0 {
			c.SSMShares = 3
		}
		if c.SSMThreshold == 0 {
			c.SSMThreshold = 2
		}
	}
	if c.Versions == VersionsNone && c.Check == CheckNone && c.Freshness == FreshNone {
		return nil
	}
	if c.ProtectedBytes%uint64(geom.BlockSize) != 0 {
		return fmt.Errorf("secmem: protected size %d not block aligned", c.ProtectedBytes)
	}
	if c.Versions == VersionsOnChip || c.Check == CheckShares {
		switch {
		case c.Versions != VersionsOnChip || c.Check != CheckShares || c.Freshness != FreshNone:
			return fmt.Errorf("secmem: share reconstruction composes only with on-chip versions and no freshness part")
		case c.SSMThreshold < 2 || c.SSMShares <= c.SSMThreshold || c.SSMShares > 8:
			return fmt.Errorf("secmem: share reconstruction needs 2 ≤ k < n ≤ 8 shares; got k=%d n=%d", c.SSMThreshold, c.SSMShares)
		}
		return nil
	}
	switch {
	case c.Versions == VersionsNone || c.Check == CheckNone || c.Freshness == FreshNone:
		return fmt.Errorf("secmem: stored versions need a MAC-based check and a BMT freshness part")
	case c.Versions == VersionsDerived && c.Check != CheckMAC:
		return fmt.Errorf("secmem: derived versions compose only with the plain MAC check")
	case c.MACBytes != 1 && c.MACBytes != 2 && c.MACBytes != 4 && c.MACBytes != 8:
		return fmt.Errorf("secmem: MAC size %d B not a power of two ≤ 8", c.MACBytes)
	case c.Check == CheckValue && c.Encryption != gcipher.ModeXTS:
		return fmt.Errorf("secmem: value verification requires XTS (malleability resistance); got %v", c.Encryption)
	case c.Check == CheckValue:
		return c.Value.Validate()
	}
	return nil
}

// --- canonical scheme configurations used across the evaluation ---

// Baseline returns the no-security configuration.
func Baseline(protected uint64) Config {
	return Config{Scheme: "nosec", ProtectedBytes: protected}
}

// PSSM returns the paper's baseline: CME, sectored split counters, 8 B
// MACs (the paper upgrades PSSM's 4 B MAC to 8 B for its baseline),
// 128 B metadata blocks, 16-ary BMT.
func PSSM(protected uint64) Config {
	return Config{
		Scheme:         "pssm",
		Versions:       VersionsStored,
		Check:          CheckMAC,
		Freshness:      FreshLazyBMT,
		Encryption:     gcipher.ModeCME,
		MACBytes:       8,
		Granularity:    GranAll128,
		ProtectedBytes: protected,
	}
}

// PSSM4B returns PSSM with its original truncated 4 B MAC.
func PSSM4B(protected uint64) Config {
	c := PSSM(protected)
	c.Scheme = "pssm-4Bmac"
	c.MACBytes = 4
	return c
}

// CommonCtr returns PSSM plus the common-counters tracker [18].
func CommonCtr(protected uint64) Config {
	c := PSSM(protected)
	c.Scheme = "pssm+cc"
	c.Versions = VersionsCommon
	return c
}

// PlutusValueOnly returns PSSM plus value verification only (Fig. 15).
func PlutusValueOnly(protected uint64) Config {
	c := PSSM(protected)
	c.Scheme = "plutus-V"
	c.Encryption = gcipher.ModeXTS
	c.Check = CheckValue
	c.Value = valcache.DefaultConfig()
	return c
}

// PlutusFineGrain returns PSSM with a given metadata granularity (Fig. 16).
func PlutusFineGrain(protected uint64, g Granularity) Config {
	c := PSSM(protected)
	c.Scheme = "plutus-G-" + g.String()
	c.Granularity = g
	return c
}

// PlutusCompact returns PSSM plus one compact-counter design (Fig. 17).
func PlutusCompact(protected uint64, k counters.CompactKind) Config {
	c := PSSM(protected)
	c.Scheme = "plutus-C-" + k.String()
	c.Versions = VersionsCompact
	c.Compact = k
	return c
}

// Plutus returns the full design: XTS, value verification, adaptive
// compact counters, all-32 B metadata.
func Plutus(protected uint64) Config {
	return Config{
		Scheme:         "plutus",
		Versions:       VersionsCompact,
		Check:          CheckValue,
		Freshness:      FreshLazyBMT,
		Encryption:     gcipher.ModeXTS,
		MACBytes:       8,
		Granularity:    GranAll32,
		Compact:        counters.Compact3BitAdaptive,
		Value:          valcache.DefaultConfig(),
		ProtectedBytes: protected,
	}
}

// PlutusNoTree returns Plutus with integrity-tree traffic eliminated
// (Fig. 20's MGX-style comparison).
func PlutusNoTree(protected uint64) Config {
	c := Plutus(protected)
	c.Scheme = "plutus-notree"
	c.Freshness = FreshBMTNoTraffic
	return c
}

// MGXConfig returns the mgx frontier scheme (PAPERS.md: "MGX: Near-Zero
// Overhead Memory Protection for Data-Intensive Accelerators"): XTS
// encryption with 8 B MACs and all-32 B metadata, but version numbers
// for regular-stream sectors derived on-chip from workload stream
// cursors — near-zero counter and tree traffic on accelerator-style
// streaming workloads, with the stored split-counter + BMT path kept as
// the fallback for irregular writes.
func MGXConfig(protected uint64) Config {
	return Config{
		Scheme:         "mgx",
		Versions:       VersionsDerived,
		Check:          CheckMAC,
		Freshness:      FreshLazyBMT,
		Encryption:     gcipher.ModeXTS,
		MACBytes:       8,
		Granularity:    GranAll32,
		ProtectedBytes: protected,
	}
}

// SSMConfig returns the secret-sharing frontier scheme (PAPERS.md:
// "Secure Scattered Memory"): each sector stored as 3 Shamir shares
// (2-of-3) scattered across the protected space under keyed rotations.
// There is no counter, MAC or tree fetch path at all — reads fetch the
// shares and reconstruct, and any single-share corruption surfaces as a
// reconstruction inconsistency. The trade-off is the inverse of
// Plutus's: zero metadata traffic, n× data amplification.
func SSMConfig(protected uint64) Config {
	return Config{
		Scheme:         "ssm",
		Versions:       VersionsOnChip,
		Check:          CheckShares,
		SSMShares:      3,
		SSMThreshold:   2,
		ProtectedBytes: protected,
	}
}

// schemeTable is the single registry behind ByName and Names: every
// name the CLIs and plutusd's API accept, paired with its constructor,
// in the canonical report order (baseline, prior work, Plutus ablations,
// full Plutus). A slice — not a map — so enumeration order is fixed.
var schemeTable = []struct {
	name string
	make func(uint64) Config
}{
	{"nosec", Baseline},
	{"pssm", PSSM},
	{"pssm-4Bmac", PSSM4B},
	{"pssm+cc", CommonCtr},
	{"plutus-V", PlutusValueOnly},
	{"plutus-G32", func(p uint64) Config { return PlutusFineGrain(p, GranAll32) }},
	{"plutus-G32-128", func(p uint64) Config { return PlutusFineGrain(p, GranCtr32BMT128) }},
	{"plutus-C2", func(p uint64) Config { return PlutusCompact(p, counters.Compact2Bit) }},
	{"plutus-C3", func(p uint64) Config { return PlutusCompact(p, counters.Compact3Bit) }},
	{"plutus-C3A", func(p uint64) Config { return PlutusCompact(p, counters.Compact3BitAdaptive) }},
	{"plutus-notree", PlutusNoTree},
	{"plutus", Plutus},
	{"mgx", MGXConfig},
	{"ssm", SSMConfig},
}

// Names lists every scheme name ByName accepts, in canonical order.
func Names() []string {
	out := make([]string, len(schemeTable))
	for i, s := range schemeTable {
		out[i] = s.name
	}
	return out
}

// ByName resolves a command-line or API scheme name to its canonical
// configuration (the names cmd/plutussim, plutusd and the coordinator
// accept). The error for an unknown name lists the full valid set.
func ByName(name string, protected uint64) (Config, error) {
	for _, s := range schemeTable {
		if s.name == name {
			return s.make(protected), nil
		}
	}
	return Config{}, fmt.Errorf("unknown scheme %q (valid: %s)", name, strings.Join(Names(), " "))
}

// --- attack-surface capabilities ---
//
// The tamper subsystem validates attack plans against these: an attack
// kind that targets metadata a scheme does not store in DRAM is a plan
// error, not a silent no-op (see tamper.Plan.ValidateFor). Each follows
// from which parts the composition holds.

// HasDRAMMAC reports whether the scheme stores per-sector MACs in DRAM
// (the mac-corrupt attack surface): the MAC and value checks do.
func (c Config) HasDRAMMAC() bool { return c.Check == CheckMAC || c.Check == CheckValue }

// HasDRAMCounters reports whether the scheme stores encryption counters
// in DRAM (the ctr-rollback attack surface). mgx qualifies: its
// irregular-write fallback keeps the stored split counters.
func (c Config) HasDRAMCounters() bool { return c.Versions.stored() }

// HasDRAMTree reports whether the scheme maintains a DRAM-resident
// integrity tree (the bmt-corrupt attack surface). FreshBMTNoTraffic
// elides the tree's traffic, not the tree itself.
func (c Config) HasDRAMTree() bool { return c.Freshness != FreshNone }

// keys derives the distinct engine keys from the config key material.
func (c *Config) keys() (enc [32]byte, mac siphash.Key, tree siphash.Key) {
	enc = c.Key
	var mb, tb [16]byte
	for i := 0; i < 16; i++ {
		mb[i] = c.Key[i] ^ 0x5a
		tb[i] = c.Key[16+i] ^ 0xa5
	}
	return enc, siphash.NewKey(mb), siphash.NewKey(tb)
}

// metaCache builds one metadata cache with the configured geometry.
func (c *Config) metaCache(name string, blockBytes int) *cache.Cache {
	return cache.MustNew(cache.Config{
		Name:      name,
		SizeBytes: c.MetaCacheBytes,
		BlockSize: blockBytes,
		Ways:      c.MetaCacheWays,
		MSHRs:     c.MetaMSHRs,
	})
}
