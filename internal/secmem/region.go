package secmem

import (
	"github.com/plutus-gpu/plutus/internal/bmt"
	"github.com/plutus-gpu/plutus/internal/cache"
	"github.com/plutus-gpu/plutus/internal/crypto/siphash"
	"github.com/plutus-gpu/plutus/internal/dense"
	"github.com/plutus-gpu/plutus/internal/geom"
	"github.com/plutus-gpu/plutus/internal/stats"
)

// counterRegion is one DRAM-resident counter array with the integrity
// tree over it: the original split counters, or — under VersionsCompact
// — the compact mirror. Both run the same fetch, verify, dirty and evict
// machinery; they differ only in geometry, traffic classes and how a
// unit serializes for hashing. An absent region has a nil tree.
type counterRegion struct {
	cache     *cache.Cache // counter sectors
	treeCache *cache.Cache // tree nodes
	tree      *bmt.Tree

	base, treeBase      geom.Addr // counter array and tree node bases
	ctrClass, treeClass stats.Class

	perSector uint64 // data sectors covered by one 32 B counter sector
	unitBytes uint64 // counter fetch and hash granularity

	// replayed marks units whose DRAM copy an attacker rolled back to
	// the boot image (all counters zero): verification recomputes the
	// stale copy's hash until the controller rewrites the unit.
	replayed dense.Bitmap

	// hash serializes and hashes unit u's counters, all zero when fresh.
	// The unit index is deliberately not hashed: the tree stores hashes
	// per unit position, which already binds location, and a
	// contents-only hash lets every untouched unit match one default
	// leaf.
	hash func(u uint64, fresh bool) uint64
}

// build sizes the region's tree over bytes of counters and creates its
// two metadata caches.
func (r *counterRegion) build(cfg *Config, key siphash.Key, bytes uint64, ctrName, treeName string) {
	r.unitBytes = uint64(cfg.Granularity.CounterUnitBytes())
	r.tree = bmt.MustNew(bmt.Config{
		Units: max(bytes/r.unitBytes, 1), UnitBytes: int(r.unitBytes),
		NodeBytes: cfg.Granularity.BMTNodeBytes(), Key: key,
	}, r.hash(0, true))
	r.cache = cfg.metaCache(ctrName, geom.BlockSize)
	r.treeCache = cfg.metaCache(treeName, geom.BlockSize)
}

// units returns the region's counter-unit count; zero when absent.
func (r *counterRegion) units() uint64 {
	if r.tree == nil {
		return 0
	}
	return r.tree.Config().Units
}

// unitOf returns the unit index covering data sector i's counter.
//
//simlint:hotpath
func (r *counterRegion) unitOf(i uint64) uint64 {
	return i / r.perSector * geom.SectorSize / r.unitBytes
}

// unitAddr returns the local address of counter unit u.
//
//simlint:hotpath
func (r *counterRegion) unitAddr(u uint64) geom.Addr {
	return r.base + geom.Addr(u*r.unitBytes)
}

// sectorAddr returns the local address of the 32 B counter sector
// holding data sector i's counter (the write-dirty granularity).
//
//simlint:hotpath
func (r *counterRegion) sectorAddr(i uint64) geom.Addr {
	return r.base + geom.Addr(i/r.perSector*geom.SectorSize)
}

// unitOfAddr maps a local address inside the region back to its unit.
func (r *counterRegion) unitOfAddr(a geom.Addr) uint64 {
	return uint64(a-r.base) / r.unitBytes
}

// unitHash recomputes the hash of unit u's DRAM-resident copy. A
// replayed unit hashes as the boot image, so verification against the
// tree fails exactly when the unit has been written since boot.
func (r *counterRegion) unitHash(u uint64) uint64 {
	return r.hash(u, r.replayed.Get(u))
}

// fetchUnit brings data sector i's counter unit of region r on-chip,
// verifying a fetched unit through r's tree.
//
//simlint:hotpath
func (e *Engine) fetchUnit(r *counterRegion, i uint64, j *join, freshOK *bool) {
	u := r.unitOf(i)
	ua := r.unitAddr(u)
	mask := fetchMask(r.cache, ua, int(r.unitBytes))

	before := r.cache.Probe(ua) & mask
	e.fetchMeta(r.cache, ua, mask, r.ctrClass, j.arm())
	if before == mask {
		return // cache hit: already verified when it was filled
	}
	if !r.tree.VerifyUnit(u, r.unitHash(u)) {
		*freshOK = false
	}
	if e.cfg.Freshness != FreshBMTNoTraffic {
		e.walkTree(r, u, j, freshOK)
	}
}

// walkTree performs the verification walk for unit u: fetch tree nodes
// bottom-up until one hits in the (verified) tree cache or the on-chip
// root is reached. Fetching a node whose DRAM copy an attacker corrupted
// fails verification against its parent and clears freshOK.
//
//simlint:hotpath
func (e *Engine) walkTree(r *counterRegion, u uint64, j *join, freshOK *bool) {
	var buf bmt.PathBuf
	for _, ref := range r.tree.PathInto(u, &buf) {
		if r.tree.IsRoot(ref) {
			break // root is on-chip: free and always trusted
		}
		na := r.treeBase + r.tree.NodeAddr(ref)
		nodeMask := fetchMask(r.treeCache, na, e.cfg.Granularity.BMTNodeBytes())
		if r.treeCache.Probe(na)&nodeMask == nodeMask {
			r.treeCache.Lookup(na, nodeMask, false, nil) // LRU touch
			break                                        // verified boundary reached
		}
		e.st.Sec.BMTNodeVerifies++
		if e.bmtTampered[na] {
			*freshOK = false
		}
		e.fetchMeta(r.treeCache, na, nodeMask, r.treeClass, j.arm())
	}
}

// dirtyCounter marks data sector i's counter sector of region r dirty
// and refreshes the tree's hash of its unit; writing the unit replaces
// any attacker-replayed DRAM copy. The tree's nodes are written back
// later, when evictions reach them (propagateDirty).
//
//simlint:hotpath
func (e *Engine) dirtyCounter(r *counterRegion, i uint64) {
	ca := r.sectorAddr(i)
	ev, _ := r.cache.Insert(ca, r.cache.MaskFor(ca), true)
	e.handleEviction(ev, r.ctrClass)
	u := r.unitOf(i)
	r.replayed.Clear(u)
	r.tree.SetUnitHash(u, r.unitHash(u))
}

// propagateDirty marks unit u's level-0 parent node dirty in the tree
// cache (the lazy-update scheme: a dirty counter writeback makes its
// parent hash stale in memory until that node is itself written back).
func (e *Engine) propagateDirty(r *counterRegion, u uint64) {
	if e.cfg.Freshness != FreshLazyBMT {
		// The no-traffic tree never writes its nodes back.
		return
	}
	var buf bmt.PathBuf
	path := r.tree.PathInto(u, &buf)
	if len(path) == 0 || r.tree.IsRoot(path[0]) {
		return
	}
	e.markSlotDirty(r, path[0], u)
}

// propagateNodeDirty handles a dirty tree-node eviction: its parent node
// becomes dirty in turn (cascading toward the root, which absorbs the
// final update on-chip for free).
func (e *Engine) propagateNodeDirty(r *counterRegion, nodeAddr geom.Addr) {
	if nodeAddr < r.treeBase {
		return
	}
	ref, ok := r.tree.RefForAddr(nodeAddr - r.treeBase)
	if !ok {
		return
	}
	parent, ok := r.tree.Parent(ref)
	if !ok || r.tree.IsRoot(parent) {
		return
	}
	e.markSlotDirty(r, parent, ref.Index)
}

// markSlotDirty dirties the 32 B sector of node that holds the hash of
// its child number child — only that sector changes.
func (e *Engine) markSlotDirty(r *counterRegion, node bmt.NodeRef, child uint64) {
	slot := child % uint64(r.tree.Config().Arity())
	na := r.treeBase + r.tree.NodeAddr(node) + geom.Addr(slot*bmt.HashBytes/geom.SectorSize*geom.SectorSize)
	e.markNodeDirty(r.treeCache, na, r.treeClass)
}
