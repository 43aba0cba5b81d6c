// Package bmt implements the Bonsai Merkle Tree that guarantees freshness
// of the encryption counters (paper §II-A3), with the geometry knobs the
// paper's §IV-E explores: the hashing granularity of counter units (128 B
// blocks vs 32 B sectors) and the tree-node block size (128 B vs 32 B,
// i.e. 16-ary vs 4-ary with 8 B hashes).
//
// The tree is the authoritative on-chip record of counter hashes: the
// secure-memory engine recomputes the hash of any counter unit it fetches
// from (untrusted) memory and checks it against the tree, so replayed or
// tampered counters are detected. The root conceptually never leaves the
// chip; interior nodes are normal metadata blocks whose fetch/writeback
// traffic is modelled by the engine through the BMT metadata cache.
//
// Functionally the package propagates hash updates eagerly so its state is
// always self-consistent; the *lazy-update* traffic optimization (updates
// ride on cache-eviction writebacks) is purely a timing concern handled by
// the engine.
package bmt

import (
	"encoding/binary"
	"fmt"
	"slices"

	"github.com/plutus-gpu/plutus/internal/crypto/siphash"
	"github.com/plutus-gpu/plutus/internal/geom"
)

// HashBytes is the size of one node hash (8 B MACs, as in the paper).
const HashBytes = 8

// Config fixes one tree's geometry.
type Config struct {
	// Units is the number of counter units (leaves) the tree protects.
	Units uint64
	// UnitBytes is the hashing granularity of a counter unit (128 or 32):
	// the amount of counter storage verified by one leaf hash, and hence
	// the counter fetch granularity.
	UnitBytes int
	// NodeBytes is the size of one interior tree node (128 or 32). The
	// arity is NodeBytes / HashBytes (16 or 4).
	NodeBytes int
	// Key keys the node-hash function.
	Key siphash.Key
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Units == 0 {
		return fmt.Errorf("bmt: zero units")
	}
	if c.NodeBytes < 2*HashBytes || c.NodeBytes%HashBytes != 0 {
		return fmt.Errorf("bmt: node size %d must be a multiple of %d and hold ≥2 hashes", c.NodeBytes, HashBytes)
	}
	if c.UnitBytes <= 0 {
		return fmt.Errorf("bmt: unit size %d invalid", c.UnitBytes)
	}
	return nil
}

// Arity returns children per node.
func (c Config) Arity() int { return c.NodeBytes / HashBytes }

// NodeRef identifies one tree node. Level 0 is the node layer directly
// above the counter units; the root is the single node at the top level.
type NodeRef struct {
	Level int
	Index uint64
}

// MaxHeight bounds Height for every valid Config: with arity ≥ 2 and
// fewer than 2^64 units a tree has at most 64 levels.
const MaxHeight = 64

// PathBuf is caller-owned storage for one PathInto walk.
type PathBuf [MaxHeight]NodeRef

// Tree is one partition's Bonsai Merkle Tree.
type Tree struct {
	cfg Config
	//simlint:ignore snapsym derived from cfg at construction
	arity uint64
	// counts[l] is the node count at level l; counts[len-1] == 1 (root).
	counts []uint64
	// bases[l] is the byte offset of level l's nodes in the BMT region.
	// Levels are laid out bottom-up.
	//simlint:ignore snapsym pure geometry derived from cfg at construction
	bases []geom.Addr
	// unitHashes holds the authoritative hash of each counter unit;
	// missing entries equal defaultUnit (hash of an untouched unit).
	unitHashes map[uint64]uint64
	// nodeHashes[l] holds the hash of each node at level l, as recorded
	// in its parent; missing entries equal defaultNode[l].
	nodeHashes []map[uint64]uint64
	//simlint:ignore snapsym constant for a given key/serialization, recomputed at construction
	defaultUnit uint64
	//simlint:ignore snapsym constant for a given key/serialization, recomputed at construction
	defaultNode []uint64
	root        uint64
	// nodeBuf is the node-hash serialization buffer (computeNode,
	// hashChildren): arity child hashes and the level.
	//simlint:ignore snapsym per-call scratch, sized from cfg at construction
	nodeBuf []byte
}

// New builds a tree whose counter units all hash to defaultUnitHash
// (the hash of an all-zero counter unit, computed by the caller so that
// tree and engine agree on serialization).
func New(cfg Config, defaultUnitHash uint64) (*Tree, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	t := &Tree{
		cfg:         cfg,
		arity:       uint64(cfg.Arity()),
		unitHashes:  make(map[uint64]uint64),
		defaultUnit: defaultUnitHash,
		nodeBuf:     make([]byte, 8*cfg.Arity()+8),
	}
	// Build level sizes bottom-up until a single root.
	n := ceilDiv(cfg.Units, t.arity)
	for {
		t.counts = append(t.counts, n)
		if n == 1 {
			break
		}
		n = ceilDiv(n, t.arity)
	}
	t.bases = make([]geom.Addr, len(t.counts))
	var off geom.Addr
	for l := range t.counts {
		t.bases[l] = off
		off += geom.Addr(t.counts[l]) * geom.Addr(cfg.NodeBytes)
	}
	t.nodeHashes = make([]map[uint64]uint64, len(t.counts))
	t.defaultNode = make([]uint64, len(t.counts))
	for l := range t.nodeHashes {
		t.nodeHashes[l] = make(map[uint64]uint64)
	}
	// Default node hashes cascade: level 0 nodes hash arity default unit
	// hashes, and so on up.
	prev := defaultUnitHash
	for l := range t.counts {
		t.defaultNode[l] = t.hashChildren(l, prev)
		prev = t.defaultNode[l]
	}
	t.root = t.defaultNode[len(t.counts)-1]
	return t, nil
}

// MustNew is New for static configuration.
func MustNew(cfg Config, defaultUnitHash uint64) *Tree {
	t, err := New(cfg, defaultUnitHash)
	if err != nil {
		panic(err)
	}
	return t
}

func ceilDiv(a, b uint64) uint64 { return (a + b - 1) / b }

// hashChildren hashes a node whose children all have hash h (used only
// for defaults; real nodes hash their actual child vector).
func (t *Tree) hashChildren(level int, h uint64) uint64 {
	buf := t.nodeBuf
	for i := 0; i < int(t.arity); i++ {
		binary.LittleEndian.PutUint64(buf[i*8:], h)
	}
	binary.LittleEndian.PutUint64(buf[8*int(t.arity):], uint64(level))
	return siphash.Sum64(t.cfg.Key, buf)
}

// Config returns the tree's geometry.
func (t *Tree) Config() Config { return t.cfg }

// Height returns the number of node levels (excluding the counter units
// themselves). A taller tree means more metadata fetches per cold miss.
func (t *Tree) Height() int { return len(t.counts) }

// Nodes returns the total interior-node count.
func (t *Tree) Nodes() uint64 {
	var s uint64
	for _, c := range t.counts {
		s += c
	}
	return s
}

// StorageBytes returns the BMT's memory footprint.
func (t *Tree) StorageBytes() uint64 { return t.Nodes() * uint64(t.cfg.NodeBytes) }

// NodeAddr returns the node's byte offset within the partition's BMT
// region (the engine adds the region base).
func (t *Tree) NodeAddr(r NodeRef) geom.Addr {
	return t.bases[r.Level] + geom.Addr(r.Index)*geom.Addr(t.cfg.NodeBytes)
}

// Root returns the current root hash (the on-chip trust anchor).
func (t *Tree) Root() uint64 { return t.root }

// IsRoot reports whether r is the root node, which is pinned on-chip and
// never generates memory traffic.
func (t *Tree) IsRoot(r NodeRef) bool { return r.Level == len(t.counts)-1 }

// Path returns the chain of nodes from the level-0 node covering counter
// unit u up to and including the root. Fetching/verifying a counter unit
// walks this path until a node hits in the (verified) metadata cache.
func (t *Tree) Path(u uint64) []NodeRef {
	var buf PathBuf
	return slices.Clone(t.PathInto(u, &buf))
}

// PathInto is Path stored in buf, without allocating: the result aliases
// buf. The engine's counter-miss walk uses it.
//
//simlint:hotpath
func (t *Tree) PathInto(u uint64, buf *PathBuf) []NodeRef {
	if u >= t.cfg.Units {
		panic(fmt.Sprintf("bmt: unit %d out of range %d", u, t.cfg.Units))
	}
	idx := u / t.arity
	for l := range t.counts {
		buf[l] = NodeRef{Level: l, Index: idx}
		idx /= t.arity
	}
	return buf[:len(t.counts)]
}

// LeafForUnit returns the first DRAM-resident (non-root) node on unit
// u's verification path — the node a physical attacker corrupts to break
// the unit's freshness chain. ok is false when the tree is a bare root
// (nothing but on-chip state covers the unit).
func (t *Tree) LeafForUnit(u uint64) (NodeRef, bool) {
	var buf PathBuf
	for _, ref := range t.PathInto(u, &buf) {
		if !t.IsRoot(ref) {
			return ref, true
		}
	}
	return NodeRef{}, false
}

// Parent returns r's parent node; ok is false when r is the root.
func (t *Tree) Parent(r NodeRef) (NodeRef, bool) {
	if t.IsRoot(r) {
		return NodeRef{}, false
	}
	return NodeRef{Level: r.Level + 1, Index: r.Index / t.arity}, true
}

// RefForAddr inverts NodeAddr: the node whose storage contains region
// offset a (a need not be node-aligned — cache blocks can be coarser than
// nodes). ok is false when a lies beyond the tree's storage.
func (t *Tree) RefForAddr(a geom.Addr) (NodeRef, bool) {
	for l := len(t.counts) - 1; l >= 0; l-- {
		if a >= t.bases[l] {
			idx := uint64(a-t.bases[l]) / uint64(t.cfg.NodeBytes)
			if idx >= t.counts[l] {
				return NodeRef{}, false
			}
			return NodeRef{Level: l, Index: idx}, true
		}
	}
	return NodeRef{}, false
}

// UnitHash returns the authoritative hash of counter unit u.
func (t *Tree) UnitHash(u uint64) uint64 {
	if h, ok := t.unitHashes[u]; ok {
		return h
	}
	return t.defaultUnit
}

func (t *Tree) nodeHash(l int, i uint64) uint64 {
	if h, ok := t.nodeHashes[l][i]; ok {
		return h
	}
	return t.defaultNode[l]
}

// computeNode recomputes the hash of node (l, i) from its children.
//
//simlint:hotpath
func (t *Tree) computeNode(l int, i uint64) uint64 {
	buf := t.nodeBuf
	base := i * t.arity
	for c := uint64(0); c < t.arity; c++ {
		var h uint64
		if l == 0 {
			if base+c < t.cfg.Units {
				h = t.UnitHash(base + c)
			} else {
				h = t.defaultUnit
			}
		} else {
			if base+c < t.counts[l-1] {
				h = t.nodeHash(l-1, base+c)
			} else {
				h = t.defaultNode[l-1]
			}
		}
		binary.LittleEndian.PutUint64(buf[c*8:], h)
	}
	binary.LittleEndian.PutUint64(buf[8*int(t.arity):], uint64(l))
	return siphash.Sum64(t.cfg.Key, buf)
}

// SetUnitHash records a new hash for counter unit u (after a counter
// write) and propagates the change to the root.
//
//simlint:hotpath
func (t *Tree) SetUnitHash(u uint64, h uint64) {
	if u >= t.cfg.Units {
		panic(fmt.Sprintf("bmt: unit %d out of range %d", u, t.cfg.Units))
	}
	t.unitHashes[u] = h
	idx := u / t.arity
	for l := 0; l < len(t.counts); l++ {
		nh := t.computeNode(l, idx)
		if l == len(t.counts)-1 {
			t.root = nh
			break
		}
		t.nodeHashes[l][idx] = nh
		idx /= t.arity
	}
}

// VerifyUnit checks a counter unit's hash (recomputed by the engine from
// the fetched, untrusted counter bytes) against the tree. A mismatch
// means the counters were tampered with or replayed.
func (t *Tree) VerifyUnit(u uint64, h uint64) bool { return t.UnitHash(u) == h }
