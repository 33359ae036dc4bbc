package integrity

import (
	"encoding/binary"
	"testing"

	"ctrpred/internal/cache"
	"ctrpred/internal/ctr"
	"ctrpred/internal/dram"
	"ctrpred/internal/rng"
	"ctrpred/internal/sha256"
)

// eagerTree is the tree as it was before interior digests went
// on-demand: every Update rehashes each node on the leaf's path and
// latches the root, every Verify hashes each node it walks through. It
// is kept only as the oracle TestTreeMatchesEager and
// FuzzTreeMatchesEager compare Tree against, call for call.
type eagerTree struct {
	cfg       Config
	leaves    map[uint64]Digest
	nodes     map[eagerKey]*eagerNode
	root      Digest
	nodeCache *cache.Cache
	dram      *dram.DRAM
	stats     Stats
}

type eagerKey struct {
	level int
	index uint64
}

type eagerNode struct {
	children []Digest
	sum      Digest
	valid    bool
}

func newEager(cfg Config, d *dram.DRAM) *eagerTree {
	t := &eagerTree{
		cfg:    cfg,
		leaves: make(map[uint64]Digest),
		nodes:  make(map[eagerKey]*eagerNode),
		dram:   d,
	}
	if cfg.NodeCacheBytes > 0 {
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

func (t *eagerTree) Stats() Stats { return t.stats }

func (t *eagerTree) Root() Digest { return t.root }

func (t *eagerTree) NodeCount() int { return len(t.nodes) }

func (t *eagerTree) leafDigest(lineAddr uint64, counter uint64, ct ctr.Line) Digest {
	var buf [16 + ctr.LineSize]byte
	binary.BigEndian.PutUint64(buf[0:8], lineAddr)
	binary.BigEndian.PutUint64(buf[8:16], counter)
	copy(buf[16:], ct[:])
	return sha256.Sum256(buf[:])
}

func (t *eagerTree) leafIndex(lineAddr uint64) uint64 {
	return lineAddr / ctr.LineSize
}

func (t *eagerTree) parentOf(level int, index uint64) (eagerKey, int) {
	return eagerKey{level: level + 1, index: index / arity}, int(index % arity)
}

func (t *eagerTree) getNode(k eagerKey) *eagerNode {
	n := t.nodes[k]
	if n == nil {
		n = &eagerNode{children: make([]Digest, arity)}
		t.nodes[k] = n
	}
	return n
}

func (t *eagerTree) nodeDigest(n *eagerNode) Digest {
	if !n.valid {
		h := sha256.New()
		for i := range n.children {
			h.Write(n.children[i][:])
		}
		copy(n.sum[:], h.Sum(nil))
		n.valid = true
	}
	return n.sum
}

func (t *eagerTree) nodeAddr(k eagerKey) uint64 {
	return treeBase + uint64(k.level)<<36 + k.index*nodeBytes
}

func (t *eagerTree) Update(now uint64, lineAddr uint64, counter uint64, ct ctr.Line) uint64 {
	t.stats.Updates++
	d := t.leafDigest(lineAddr, counter, ct)
	t.leaves[lineAddr] = d

	index := t.leafIndex(lineAddr)
	done := now
	for level := 0; level < t.cfg.Levels; level++ {
		k, slot := t.parentOf(level, index)
		n := t.getNode(k)
		n.children[slot] = d
		n.valid = false
		d = t.nodeDigest(n)
		index = k.index

		done += hashLatency
		if t.nodeCache != nil {
			if hit, _ := t.nodeCache.Access(t.nodeAddr(k), true); hit {
				continue
			}
		}
		t.stats.NodeWrites++
		if t.dram != nil {
			done = t.dram.Access(done, t.nodeAddr(k), nodeBytes, true)
		}
	}
	t.root = d
	return done
}

func (t *eagerTree) Verify(now uint64, lineAddr uint64, counter uint64, ct ctr.Line) (bool, uint64) {
	t.stats.Verifies++
	want, known := t.leaves[lineAddr]
	if !known {
		t.stats.TamperDetected++
		return false, now
	}
	got := t.leafDigest(lineAddr, counter, ct)
	authentic := got == want

	d := want
	index := t.leafIndex(lineAddr)
	done := now
	for level := 0; level < t.cfg.Levels; level++ {
		t.stats.LevelsWalked++
		k, slot := t.parentOf(level, index)
		n := t.getNode(k)
		if n.children[slot] != d {
			authentic = false
		}
		d = t.nodeDigest(n)
		index = k.index

		done += hashLatency
		if t.nodeCache != nil {
			if hit, _ := t.nodeCache.Access(t.nodeAddr(k), false); hit {
				t.stats.CacheHits++
				break
			}
		}
		t.stats.NodeReads++
		if t.dram != nil {
			done = t.dram.Access(done, t.nodeAddr(k), nodeBytes, false)
		}
	}
	if !authentic {
		t.stats.TamperDetected++
	}
	return authentic, done
}

func (t *eagerTree) CorruptPath(lineAddr uint64, level int, bit int) bool {
	if level < 1 || level > t.cfg.Levels {
		return false
	}
	if _, known := t.leaves[lineAddr]; !known {
		return false
	}
	index := t.leafIndex(lineAddr)
	for l := 1; l < level; l++ {
		k, _ := t.parentOf(l-1, index)
		index = k.index
	}
	k, slot := t.parentOf(level-1, index)
	n := t.getNode(k)
	n.children[slot][(bit/8)%sha256.Size] ^= 1 << (bit % 8)
	n.valid = false
	return true
}

// diffLines are the lines the differential streams touch: dense
// neighbours that share level-1 and level-2 parents, siblings under
// other level-2 parents, and a few lines that meet the rest only high
// up the tree or in another segment.
var diffLines = func() []uint64 {
	var idx []uint64
	for i := uint64(0); i < 24; i++ {
		idx = append(idx, i)
	}
	for i := uint64(1); i < 5; i++ {
		idx = append(idx, i*64, i*64+9)
	}
	idx = append(idx, 4096, 1<<15, 1<<25, 1<<40)
	lines := make([]uint64, len(idx))
	for i, x := range idx {
		lines[i] = x * 32
	}
	return lines
}()

// matchEager decodes data into an operation stream, runs it on a Tree
// and an eagerTree side by side, and fails at the first call whose
// result or Stats differ. data[0] picks the geometry: a node cache of
// 0, 512 B, 2 KiB or 32 KiB, and 3 or 8 levels. Each further 3-byte
// group is (operation, line, argument).
func matchEager(t *testing.T, data []byte) {
	if len(data) == 0 {
		return
	}
	cfg := DefaultConfig()
	cfg.NodeCacheBytes = []int{0, 512, 2 << 10, 32 << 10}[data[0]%4]
	cfg.Levels = []int{3, 8}[data[0]/4%2]
	lazy := New(cfg, dram.New(dram.DefaultConfig()))
	eager := newEager(cfg, dram.New(dram.DefaultConfig()))

	type version struct {
		seq uint64
		ct  ctr.Line
	}
	lines := map[uint64]*version{}
	now := uint64(0)
	for i := 1; i+2 < len(data); i += 3 {
		op, la, arg := data[i]%6, diffLines[int(data[i+1])%len(diffLines)], data[i+2]
		v := lines[la]
		if v == nil {
			v = &version{}
			lines[la] = v
		}
		now += uint64(arg)
		verify := func(seq uint64, ct ctr.Line) {
			okL, doneL := lazy.Verify(now, la, seq, ct)
			okE, doneE := eager.Verify(now, la, seq, ct)
			if okL != okE || doneL != doneE {
				t.Fatalf("op %d: Verify(%#x, %d) = (%v, %d), eager (%v, %d)", i/3, la, seq, okL, doneL, okE, doneE)
			}
		}
		switch op {
		case 0:
			v.seq++
			v.ct[int(arg)%ctr.LineSize] ^= arg | 1
			if l, e := lazy.Update(now, la, v.seq, v.ct), eager.Update(now, la, v.seq, v.ct); l != e {
				t.Fatalf("op %d: Update(%#x) done %d, eager %d", i/3, la, l, e)
			}
		case 1:
			verify(v.seq, v.ct)
		case 2:
			verify(v.seq+1+uint64(arg%4), v.ct)
		case 3:
			bad := v.ct
			bad[int(arg)/8%ctr.LineSize] ^= 1 << (arg % 8)
			verify(v.seq, bad)
		case 4:
			level, bit := int(arg)%(cfg.Levels+2), int(arg)*37
			if l, e := lazy.CorruptPath(la, level, bit), eager.CorruptPath(la, level, bit); l != e {
				t.Fatalf("op %d: CorruptPath(%#x, %d) = %v, eager %v", i/3, la, level, l, e)
			}
		case 5:
			if l, e := lazy.Root(), eager.Root(); l != e {
				t.Fatalf("op %d: Root %x, eager %x", i/3, l, e)
			}
		}
		if l, e := lazy.Stats(), eager.Stats(); l != e {
			t.Fatalf("op %d (kind %d): Stats %+v, eager %+v", i/3, op, l, e)
		}
	}
	if l, e := lazy.Root(), eager.Root(); l != e {
		t.Fatalf("final Root %x, eager %x", l, e)
	}
	if l, e := lazy.NodeCount(), eager.NodeCount(); l != e {
		t.Fatalf("final NodeCount %d, eager %d", l, e)
	}
}

// TestTreeMatchesEager runs seeded random streams through matchEager,
// cycling through every geometry.
func TestTreeMatchesEager(t *testing.T) {
	streams, ops := 200, 2000
	if testing.Short() {
		streams = 16
	}
	for s := 0; s < streams; s++ {
		r := rng.New(uint64(s) + 1)
		data := make([]byte, 1+3*ops)
		data[0] = byte(s)
		for i := 1; i < len(data); i++ {
			data[i] = byte(r.Uint64())
		}
		matchEager(t, data)
	}
}

// FuzzTreeMatchesEager is TestTreeMatchesEager's step function under
// coverage-guided inputs.
func FuzzTreeMatchesEager(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 0, 1, 0, 1, 0, 0, 5, 0, 0})                             // two neighbours, verify, root
	f.Add([]byte{4, 0, 0, 1, 0, 8, 1, 0, 16, 1, 4, 0, 2, 1, 0, 0, 5, 0, 0})          // cousins, corrupt level 2, verify
	f.Add([]byte{1, 0, 3, 9, 0, 35, 9, 5, 0, 0, 4, 3, 3, 1, 3, 0, 5, 0, 0})          // other segment, corrupt the top
	f.Add([]byte{6, 0, 2, 1, 0, 10, 2, 4, 2, 7, 1, 2, 0, 0, 2, 5, 1, 2, 0, 5, 0, 0}) // corrupt level 7, heal by update
	f.Fuzz(matchEager)
}
