// Package integrity implements the hash-tree (Merkle tree) memory
// integrity protection that the paper assumes alongside counter-mode
// encryption: "counter mode encryption itself does not provide integrity
// protection. Extra or additional measures such as Hash/MAC tree for
// integrity protection must be used together" (Section 2.2, citing the
// AEGIS line of work).
//
// The tree covers every protected line's *ciphertext and counter*: leaf =
// SHA256(address ‖ counter ‖ ciphertext); an interior node stores its
// children's digests and hashes to its parent's slot; the root never
// leaves the processor. Verification walks from the leaf toward the root
// and may stop early at any node held in the trusted on-chip node cache
// (a verified node is as good as the root). An update installs the new
// leaf digest and marks every node above it stale; a node's digest is
// computed only when something reads it (a verification walk climbing
// past it, CorruptPath, Root), after refreshing its stale children. The
// timing model does not change with that: both walks still charge DRAM
// accesses for uncached nodes plus a hashing latency per level — the
// classic log-depth overhead the paper's prediction does NOT address (it
// targets the decryption pad), which is why the two mechanisms compose.
//
// The tree is sparse: only paths touching protected lines materialize,
// with absent children treated as the zero digest, so gigabyte-scale
// address spaces cost memory proportional to the touched working set.
// A leaf's digest is stored once, in its level-1 parent's slot. Each
// level keeps its nodes in a flat table indexed by node number (package
// paged), so a walk indexes arrays instead of hashing keys, and a node
// keeps its children's digests back to back, so it hashes in one call.
//
// A frozen tree is a shareable image: Clone gives each copy a
// copy-on-write view of every level, so a clone costs the same for any
// node count. A copy duplicates a table page the first time it writes a
// node on it, and the node itself before its first write; Release hands
// its pages back for the next clone.
package integrity

import (
	"encoding/binary"
	"math/bits"
	"slices"

	"ctrpred/internal/cache"
	"ctrpred/internal/ctr"
	"ctrpred/internal/dram"
	"ctrpred/internal/paged"
	"ctrpred/internal/sha256"
	"ctrpred/internal/stats"
)

// Digest is one tree-node hash.
type Digest = [sha256.Size]byte

// Config parameterizes the tree.
type Config struct {
	// LineSize is the protected block size (32).
	LineSize int
	// Arity is the number of children per interior node (8 → a node is
	// 256 bytes of child digests); at most 64.
	Arity int
	// Levels is the tree height above the leaves; Arity^Levels leaves are
	// addressable per tree "segment", and any 64-bit space is covered by
	// as many segments as it needs. Segments are not chained together:
	// Root is the top digest of the most recently updated segment. 8
	// levels of arity 8 cover 16 M lines (512 MB) per segment.
	Levels int
	// NodeCacheBytes sizes the trusted on-chip cache of verified nodes.
	NodeCacheBytes int
	// HashLatency is the cycles to hash one node (SHA-256 over ≤256 B).
	HashLatency uint64
	// TreeBase is the DRAM region holding interior nodes.
	TreeBase uint64
}

// DefaultConfig returns an AEGIS-flavored configuration: arity-8 tree,
// 8 levels, 32 KB node cache, 80-cycle hash.
func DefaultConfig() Config {
	return Config{
		LineSize:       32,
		Arity:          8,
		Levels:         8,
		NodeCacheBytes: 32 << 10,
		HashLatency:    80,
		TreeBase:       1 << 42,
	}
}

// Stats counts tree activity.
type Stats struct {
	Verifies       uint64 // leaf verifications (fetches)
	Updates        uint64 // leaf updates (writebacks)
	NodeReads      uint64 // interior nodes fetched from DRAM
	NodeWrites     uint64 // interior nodes written to DRAM
	CacheHits      uint64 // walks terminated early at a trusted node
	TamperDetected uint64 // verification mismatches
	LevelsWalked   uint64 // total levels traversed by verifications
}

// AddTo registers the tree's counters into a metrics snapshot node.
func (s Stats) AddTo(n *stats.Snapshot) {
	n.Counter("verifies", s.Verifies)
	n.Counter("updates", s.Updates)
	n.Counter("node_reads", s.NodeReads)
	n.Counter("node_writes", s.NodeWrites)
	n.Counter("cache_hits", s.CacheHits)
	n.Counter("tamper_detected", s.TamperDetected)
	n.Counter("levels_walked", s.LevelsWalked)
}

// nodeKey identifies an interior node: level 1 is the leaves' parents.
type nodeKey struct {
	level int
	index uint64
}

type node struct {
	// children holds the Arity child digests back to back: slot i is
	// children[i*sha256.Size:(i+1)*sha256.Size].
	children []byte
	// stale has bit i set while slot i lags behind child i's digest;
	// the slot is refreshed when this node's digest is read.
	stale uint64
	// leaves has bit i set once a level-1 node's slot i holds an
	// installed leaf digest.
	leaves uint64
	sum    Digest
	valid  bool // sum is up to date; never while stale != 0
	// shared marks a node of a frozen tree, which every clone reads and
	// none may write; it is always valid.
	shared bool
}

// child returns slot i's digest.
func (n *node) child(i int) Digest {
	return Digest(n.children[i*sha256.Size : (i+1)*sha256.Size])
}

// setChild stores d in slot i.
func (n *node) setChild(i int, d Digest) {
	copy(n.children[i*sha256.Size:], d[:])
}

// Tree is the integrity tree plus its timing model.
type Tree struct {
	cfg Config
	// levels[l-1] holds level l's nodes by index. A clone's levels are
	// copy-on-write views of its image's.
	levels []*paged.Table[*node]
	root   Digest // on-chip, always trusted
	// top is the top node of the last updated path; while topDirty,
	// root has yet to be read from it.
	top       nodeKey
	topDirty  bool
	nodeCache *cache.Cache
	dram      *dram.DRAM
	stats     Stats
	frozen    bool // set by Freeze: only Clone may use the tree
	clone     bool // set by Clone: the levels are views of an image
}

// New builds an empty tree over the given DRAM channel (used for node
// fetch/writeback timing; may be the data channel).
func New(cfg Config, d *dram.DRAM) *Tree {
	if cfg.Arity < 2 || cfg.Arity > 64 || cfg.Levels < 1 || cfg.LineSize <= 0 {
		panic("integrity: invalid tree geometry")
	}
	t := &Tree{
		cfg:    cfg,
		levels: make([]*paged.Table[*node], cfg.Levels),
		dram:   d,
	}
	for i := range t.levels {
		t.levels[i] = paged.New[*node](1) // keyed by node index
	}
	if cfg.NodeCacheBytes > 0 {
		nodeBytes := cfg.Arity * sha256.Size
		ways := 4
		if cfg.NodeCacheBytes/nodeBytes < ways {
			ways = 1
		}
		t.nodeCache = cache.New(cache.Config{
			Name:      "treenodes",
			SizeBytes: cfg.NodeCacheBytes,
			LineSize:  nodeBytes,
			Ways:      ways,
		})
	}
	return t
}

// Config returns the tree configuration.
func (t *Tree) Config() Config { return t.cfg }

// Stats returns a copy of the statistics.
func (t *Tree) Stats() Stats { return t.stats }

// Root returns the on-chip root digest: the top digest of the most
// recently updated path, as of that Update.
func (t *Tree) Root() Digest {
	if t.topDirty {
		t.root = t.nodeDigest(t.top, t.node(t.top))
		t.topDirty = false
	}
	return t.root
}

func (t *Tree) leafDigest(lineAddr uint64, counter uint64, ct ctr.Line) Digest {
	var buf [16 + ctr.LineSize]byte
	binary.BigEndian.PutUint64(buf[0:8], lineAddr)
	binary.BigEndian.PutUint64(buf[8:16], counter)
	copy(buf[16:], ct[:])
	return sha256.Sum256(buf[:])
}

func (t *Tree) leafIndex(lineAddr uint64) uint64 {
	return lineAddr / uint64(t.cfg.LineSize)
}

// parentOf returns the key of the given entity's parent (leaf index at
// level 0, or node index at level ≥ 1) and the entity's slot in it.
func (t *Tree) parentOf(level int, index uint64) (nodeKey, int) {
	return nodeKey{level: level + 1, index: index / uint64(t.cfg.Arity)},
		int(index % uint64(t.cfg.Arity))
}

// node returns node k, or nil when nothing was ever written under it.
func (t *Tree) node(k nodeKey) *node {
	if p := t.levels[k.level-1].Lookup(k.index); p != nil {
		return *p
	}
	return nil
}

// writable returns node k for writing: created when absent, and copied
// out of the frozen tree it is shared with before the first write.
func (t *Tree) writable(k nodeKey) *node {
	p, _ := t.levels[k.level-1].Ensure(k.index)
	switch n := *p; {
	case n == nil:
		*p = &node{children: make([]byte, t.cfg.Arity*sha256.Size)}
	case n.shared:
		own := *n
		own.children = slices.Clone(n.children)
		own.shared = false
		*p = &own
	}
	return *p
}

// leaf returns lineAddr's level-1 parent and slot, and whether the leaf
// was ever installed.
func (t *Tree) leaf(lineAddr uint64) (*node, int, bool) {
	k, slot := t.parentOf(0, t.leafIndex(lineAddr))
	n := t.node(k)
	return n, slot, n != nil && n.leaves&(1<<slot) != 0
}

// Has reports whether lineAddr's leaf was ever installed.
func (t *Tree) Has(lineAddr uint64) bool {
	_, _, ok := t.leaf(lineAddr)
	return ok
}

// nodeDigest returns the digest of node n at key k, first refreshing
// every stale child slot from the child's own digest.
func (t *Tree) nodeDigest(k nodeKey, n *node) Digest {
	if !n.valid {
		for s := n.stale; s != 0; s &= s - 1 {
			i := bits.TrailingZeros64(s)
			ck := nodeKey{level: k.level - 1, index: k.index*uint64(t.cfg.Arity) + uint64(i)}
			n.setChild(i, t.nodeDigest(ck, t.node(ck)))
		}
		n.stale = 0
		n.sum = sha256.Sum256(n.children)
		n.valid = true
	}
	return n.sum
}

// nodeAddr maps a node to its DRAM location (for timing only).
func (t *Tree) nodeAddr(k nodeKey) uint64 {
	nodeBytes := uint64(t.cfg.Arity * sha256.Size)
	// Offset levels into disjoint regions; indices are dense per level.
	return t.cfg.TreeBase + uint64(k.level)<<36 + k.index*nodeBytes
}

// Update installs the leaf for (lineAddr, counter, ciphertext) and
// charges a rehash and write of every node on its path to the root,
// returning the cycle the last node write completes. The leaf digest
// goes into its parent at once; each node above only marks the slot on
// the path stale, to be rehashed when read.
// Called by the secure memory controller on every writeback, and with
// now == 0 when a line is first loaded. Those load updates are timed
// like any other: their node writes occupy the node cache and the DRAM
// channel from cycle 0.
func (t *Tree) Update(now uint64, lineAddr uint64, counter uint64, ct ctr.Line) uint64 {
	t.stats.Updates++
	d := t.leafDigest(lineAddr, counter, ct)

	index := t.leafIndex(lineAddr)
	done := now
	for level := 0; level < t.cfg.Levels; level++ {
		k, slot := t.parentOf(level, index)
		n := t.writable(k)
		if level == 0 {
			n.setChild(slot, d)
			n.leaves |= 1 << slot
		} else {
			n.stale |= 1 << slot
		}
		n.valid = false
		index = k.index

		// Timing: updated nodes are hashed and written back; the node
		// cache absorbs most of the DRAM traffic (write-back of dirty
		// nodes is folded into the write here for simplicity).
		done += t.cfg.HashLatency
		if t.nodeCache != nil {
			if hit, _ := t.nodeCache.Access(t.nodeAddr(k), true); hit {
				continue
			}
		}
		t.stats.NodeWrites++
		if t.dram != nil {
			done = t.dram.Access(done, t.nodeAddr(k), t.cfg.Arity*sha256.Size, true)
		}
	}
	t.top, t.topDirty = nodeKey{level: t.cfg.Levels, index: index}, true
	return done
}

// Verify checks (lineAddr, counter, ciphertext) against the tree,
// returning whether it is authentic and the cycle at which verification
// completed. The walk stops at the first trusted (on-chip cached) node.
func (t *Tree) Verify(now uint64, lineAddr uint64, counter uint64, ct ctr.Line) (bool, uint64) {
	t.stats.Verifies++
	parent, slot, known := t.leaf(lineAddr)
	if !known {
		// Never-written line: authentic only if the stored digest chain
		// is absent too — recompute and compare against the zero-backed
		// tree. We treat "unknown leaf" as a mismatch: the controller
		// always installs leaves at materialization.
		t.stats.TamperDetected++
		return false, now
	}
	want := parent.child(slot)
	got := t.leafDigest(lineAddr, counter, ct)
	authentic := got == want

	// Walk toward the root for timing and structural verification. The
	// digest of the node below is computed only once the walk climbs
	// past it; a stale slot is refreshed from it (and so matches), a
	// current one is compared as stored.
	d := want
	index := t.leafIndex(lineAddr)
	done := now
	var below nodeKey
	var belowNode *node
	for level := 0; level < t.cfg.Levels; level++ {
		t.stats.LevelsWalked++
		k, slot := t.parentOf(level, index)
		// The path exists: Update built it when it installed the leaf. A
		// node is stale only after a write below it, which made it this
		// tree's own, so a shared node is only ever read here.
		n := t.node(k)
		if belowNode != nil {
			d = t.nodeDigest(below, belowNode)
			if n.stale&(1<<slot) != 0 {
				n.setChild(slot, d)
				n.stale &^= 1 << slot
			}
		}
		if n.child(slot) != d {
			authentic = false
		}
		below, belowNode = k, n
		index = k.index

		done += t.cfg.HashLatency
		if t.nodeCache != nil {
			if hit, _ := t.nodeCache.Access(t.nodeAddr(k), false); hit {
				t.stats.CacheHits++
				break // trusted node: the chain above is already verified
			}
		}
		t.stats.NodeReads++
		if t.dram != nil {
			done = t.dram.Access(done, t.nodeAddr(k), t.cfg.Arity*sha256.Size, false)
		}
	}
	if !authentic {
		t.stats.TamperDetected++
	}
	return authentic, done
}

// CorruptPath flips one bit of the stored child digest at the given
// level on lineAddr's root path, modeling an adversary rewriting an
// interior tree node in untrusted RAM (level 1 corrupts the leaf
// digest's copy inside its parent — always compared on the next Verify
// of the leaf; higher levels may sit above a trusted cached node). The
// node's cached hash is invalidated, as rehashing the fetched corrupted
// node would be in hardware, while its parent keeps the digest from
// before the corruption. It reports false when the leaf was never
// installed or the level is out of range; a later Update of the same
// leaf rewrites the path and restores verifiability.
func (t *Tree) CorruptPath(lineAddr uint64, level int, bit int) bool {
	if level < 1 || level > t.cfg.Levels {
		return false
	}
	if !t.Has(lineAddr) {
		return false
	}
	index := t.leafIndex(lineAddr)
	for l := 1; l < level; l++ {
		k, _ := t.parentOf(l-1, index)
		index = k.index
	}
	k, slot := t.parentOf(level-1, index)
	n := t.writable(k)
	// Settle the root and every pending digest in the node's segment
	// first, so no later refresh folds the flip into the parent.
	t.Root()
	top := k
	for top.level < t.cfg.Levels {
		top, _ = t.parentOf(top.level, top.index)
	}
	t.nodeDigest(top, t.node(top))
	n.children[slot*sha256.Size+(bit/8)%sha256.Size] ^= 1 << (bit % 8)
	n.valid = false
	return true
}

// NodeCount reports materialized interior nodes (tests).
func (t *Tree) NodeCount() int {
	n := 0
	for _, lv := range t.levels {
		n += lv.Count()
	}
	return n
}

// Freeze settles every pending digest and marks all nodes shared, making
// the tree an image for Clone. Settling only computes now what reads
// would compute later, so no result changes. The frozen tree must not be
// used afterwards except through Clone, which may run concurrently. A
// clone cannot be frozen: its levels are views of another image.
func (t *Tree) Freeze() {
	if t.clone {
		panic("integrity: Freeze of a clone")
	}
	for l, lv := range t.levels {
		lv.ForEach(func(index uint64, n **node) {
			t.nodeDigest(nodeKey{level: l + 1, index: index}, *n)
		})
	}
	t.Root()
	for _, lv := range t.levels {
		lv.ForEach(func(_ uint64, n **node) { (*n).shared = true })
		lv.Freeze()
	}
	t.frozen = true
}

// Clone returns a copy of a frozen tree bound to DRAM channel d: it
// reads the frozen nodes until it writes them and starts from the
// image's root, node-cache contents and statistics. Its cost does not
// grow with the image's node count.
func (t *Tree) Clone(d *dram.DRAM) *Tree {
	if !t.frozen {
		panic("integrity: Clone of a tree that is not frozen")
	}
	c := *t
	c.frozen, c.clone = false, true
	c.levels = make([]*paged.Table[*node], len(t.levels))
	for i, lv := range t.levels {
		c.levels[i] = paged.NewView(lv)
	}
	if t.nodeCache != nil {
		c.nodeCache = t.nodeCache.Clone()
	}
	c.dram = d
	return &c
}

// Release hands a clone's table pages back to its image, whose next
// clone reuses them; the pages drop their node pointers first, so a
// pooled page keeps no dead clone's nodes alive. The tree must not be
// used afterwards. It is a no-op on a tree that is not a clone.
func (t *Tree) Release() {
	if !t.clone {
		return
	}
	for _, lv := range t.levels {
		lv.ForEach(func(_ uint64, n **node) { *n = nil })
		lv.Release()
	}
}
