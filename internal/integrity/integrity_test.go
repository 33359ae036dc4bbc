package integrity

import (
	"testing"
	"testing/quick"

	"ctrpred/internal/ctr"
	"ctrpred/internal/dram"
	"ctrpred/internal/rng"
)

func newTree() *Tree {
	return New(DefaultConfig(), dram.New(dram.DefaultConfig()))
}

func line(b byte) ctr.Line {
	var l ctr.Line
	for i := range l {
		l[i] = b + byte(i)
	}
	return l
}

func TestUpdateThenVerify(t *testing.T) {
	tr := newTree()
	tr.Update(0, 0x1000, 7, line(1))
	ok, done := tr.Verify(100, 0x1000, 7, line(1))
	if !ok {
		t.Fatal("authentic line rejected")
	}
	if done < 100+tr.Config().HashLatency {
		t.Fatalf("verification free? done=%d", done)
	}
}

func TestTamperedCiphertextDetected(t *testing.T) {
	tr := newTree()
	tr.Update(0, 0x1000, 7, line(1))
	bad := line(1)
	bad[5] ^= 0x01 // adversary flips one ciphertext bit in RAM
	if ok, _ := tr.Verify(0, 0x1000, 7, bad); ok {
		t.Fatal("tampered ciphertext accepted")
	}
	if tr.Stats().TamperDetected != 1 {
		t.Fatalf("stats = %+v", tr.Stats())
	}
}

func TestReplayedCounterDetected(t *testing.T) {
	// The classic replay attack counter-mode alone cannot stop: the
	// adversary restores an OLD (ciphertext, counter) pair. The tree
	// catches it because the leaf digest changed with the update.
	tr := newTree()
	oldCT := line(1)
	tr.Update(0, 0x2000, 5, oldCT)
	tr.Update(0, 0x2000, 6, line(2)) // legitimate newer version
	if ok, _ := tr.Verify(0, 0x2000, 5, oldCT); ok {
		t.Fatal("replayed stale version accepted")
	}
}

func TestSwappedLinesDetected(t *testing.T) {
	// Relocation attack: move block A's ciphertext+counter to address B.
	tr := newTree()
	tr.Update(0, 0x3000, 1, line(3))
	tr.Update(0, 0x3020, 1, line(4))
	if ok, _ := tr.Verify(0, 0x3020, 1, line(3)); ok {
		t.Fatal("relocated ciphertext accepted")
	}
}

func TestUnknownLineRejected(t *testing.T) {
	tr := newTree()
	if ok, _ := tr.Verify(0, 0x9000, 0, line(0)); ok {
		t.Fatal("never-installed line accepted")
	}
}

func TestRootChangesWithEveryUpdate(t *testing.T) {
	tr := newTree()
	tr.Update(0, 0x1000, 1, line(1))
	r1 := tr.Root()
	tr.Update(0, 0x1020, 1, line(2))
	r2 := tr.Root()
	tr.Update(0, 0x1000, 2, line(1))
	r3 := tr.Root()
	if r1 == r2 || r2 == r3 || r1 == r3 {
		t.Fatal("root did not evolve with updates")
	}
}

func TestNodeCacheShortensWalk(t *testing.T) {
	tr := newTree()
	tr.Update(0, 0x4000, 1, line(1))
	tr.Verify(0, 0x4000, 1, line(1)) // warms node cache along the path
	before := tr.Stats().LevelsWalked
	tr.Verify(1000, 0x4000, 1, line(1))
	walked := tr.Stats().LevelsWalked - before
	if walked != 1 {
		t.Fatalf("warm walk traversed %d levels, want 1 (first cached node)", walked)
	}
	if tr.Stats().CacheHits == 0 {
		t.Fatal("no trusted-node early exits")
	}
}

func TestNoCacheWalksFullHeight(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NodeCacheBytes = 0
	tr := New(cfg, dram.New(dram.DefaultConfig()))
	tr.Update(0, 0x4000, 1, line(1))
	tr.Verify(0, 0x4000, 1, line(1))
	if got := tr.Stats().LevelsWalked; got != uint64(cfg.Levels) {
		t.Fatalf("walked %d levels, want %d", got, cfg.Levels)
	}
}

func TestDistantLinesShareRootOnly(t *testing.T) {
	tr := newTree()
	tr.Update(0, 0x0, 1, line(1))
	tr.Update(0, 1<<30, 1, line(2))
	if ok, _ := tr.Verify(0, 0x0, 1, line(1)); !ok {
		t.Fatal("first line rejected after distant update")
	}
	if ok, _ := tr.Verify(0, 1<<30, 1, line(2)); !ok {
		t.Fatal("distant line rejected")
	}
	if tr.NodeCount() < 2*tr.Config().Levels-2 {
		t.Fatalf("suspiciously few nodes for distant lines: %d", tr.NodeCount())
	}
}

func TestVerifyUpdateProperty(t *testing.T) {
	// Property: after any sequence of updates, the latest version of each
	// line verifies and any stale version does not.
	f := func(versions [][2]byte) bool {
		tr := newTree()
		latest := map[uint64]struct {
			ctr uint64
			ct  ctr.Line
		}{}
		counter := uint64(0)
		for _, v := range versions {
			addr := uint64(v[0]%16) * 32
			counter++
			ct := line(v[1])
			tr.Update(0, addr, counter, ct)
			latest[addr] = struct {
				ctr uint64
				ct  ctr.Line
			}{counter, ct}
		}
		for addr, want := range latest {
			if ok, _ := tr.Verify(0, addr, want.ctr, want.ct); !ok {
				return false
			}
			if want.ctr > 1 {
				if ok, _ := tr.Verify(0, addr, want.ctr-1, want.ct); ok {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestBadGeometryPanics(t *testing.T) {
	for _, cfg := range []Config{
		{Arity: 1, Levels: 4, LineSize: 32},
		{Arity: 8, Levels: 0, LineSize: 32},
		{Arity: 8, Levels: 4, LineSize: 0},
		{Arity: 65, Levels: 4, LineSize: 32}, // wider than the stale mask
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v did not panic", cfg)
				}
			}()
			New(cfg, nil)
		}()
	}
}

func TestNilDRAMWorks(t *testing.T) {
	cfg := DefaultConfig()
	tr := New(cfg, nil) // functional-only use
	tr.Update(0, 0x100, 1, line(9))
	if ok, _ := tr.Verify(0, 0x100, 1, line(9)); !ok {
		t.Fatal("functional-only tree rejected authentic line")
	}
}

// TestUpdateVerifyAllocFree pins the writeback and fetch paths to zero
// allocations once a line's path exists: both run on every simulated
// memory access of an integrity machine. Without a node cache each
// Verify walks, and so rehashes, every level Update left stale.
func TestUpdateVerifyAllocFree(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NodeCacheBytes = 0
	tr := New(cfg, dram.New(dram.DefaultConfig()))
	tr.Update(0, 0x1000, 1, line(1))
	seq := uint64(1)
	n := testing.AllocsPerRun(100, func() {
		seq++
		tr.Update(seq, 0x1000, seq, line(byte(seq)))
		tr.Verify(seq, 0x1000, seq, line(byte(seq)))
	})
	if n != 0 {
		t.Fatalf("Update+Verify allocate %.1f times, want 0", n)
	}
}

func BenchmarkUpdate(b *testing.B) {
	tr := newTree()
	for i := 0; i < b.N; i++ {
		tr.Update(uint64(i), uint64(i%4096)*32, uint64(i), line(byte(i)))
	}
}

func BenchmarkVerify(b *testing.B) {
	tr := newTree()
	for i := 0; i < 4096; i++ {
		tr.Update(0, uint64(i)*32, 1, line(byte(i)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Verify(uint64(i), uint64(i%4096)*32, 1, line(byte(i)))
	}
}

// TestCloneMatchesOriginal freezes a loaded tree and checks two clones
// against an unfrozen twin built by the same updates: a random stream
// of updates, verifications, corruptions and root reads gives the same
// results, timing and statistics on the twin and the first clone, while
// the second clone, run afterwards, still starts from the frozen image.
func TestCloneMatchesOriginal(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NodeCacheBytes = 2 << 10
	twinDRAM, imgDRAM := dram.New(dram.DefaultConfig()), dram.New(dram.DefaultConfig())
	twin, img := New(cfg, twinDRAM), New(cfg, imgDRAM)
	for i, la := range diffLines[:20] {
		twin.Update(0, la, 1, line(byte(i)))
		img.Update(0, la, 1, line(byte(i)))
	}
	img.Freeze()
	root := twin.Root()
	clones := []*Tree{img.Clone(imgDRAM.Clone()), img.Clone(imgDRAM.Clone())}
	for _, c := range clones {
		if c.Root() != root || c.Stats() != twin.Stats() || c.NodeCount() != twin.NodeCount() {
			t.Fatal("a clone does not start from the frozen tree's state")
		}
	}

	r := rng.New(7)
	seqs := map[uint64]uint64{}
	now := uint64(0)
	for i := 0; i < 3000; i++ {
		la := diffLines[r.Intn(len(diffLines))]
		now += uint64(r.Intn(200))
		switch op := r.Intn(4); op {
		case 0:
			seqs[la]++
			ct := line(byte(seqs[la]))
			if a, b := twin.Update(now, la, seqs[la]+1, ct), clones[0].Update(now, la, seqs[la]+1, ct); a != b {
				t.Fatalf("op %d: Update done %d, clone %d", i, a, b)
			}
		case 1:
			ct := line(byte(seqs[la]))
			okA, doneA := twin.Verify(now, la, seqs[la]+1, ct)
			okB, doneB := clones[0].Verify(now, la, seqs[la]+1, ct)
			if okA != okB || doneA != doneB {
				t.Fatalf("op %d: Verify (%v, %d), clone (%v, %d)", i, okA, doneA, okB, doneB)
			}
		case 2:
			level, bit := 1+r.Intn(cfg.Levels), r.Intn(256)
			if a, b := twin.CorruptPath(la, level, bit), clones[0].CorruptPath(la, level, bit); a != b {
				t.Fatalf("op %d: CorruptPath %v, clone %v", i, a, b)
			}
		case 3:
			if twin.Root() != clones[0].Root() {
				t.Fatalf("op %d: roots differ", i)
			}
		}
		if twin.Stats() != clones[0].Stats() {
			t.Fatalf("op %d: stats %+v, clone %+v", i, twin.Stats(), clones[0].Stats())
		}
	}
	if twinDRAM.Stats() == imgDRAM.Stats() {
		t.Fatal("the stream never reached DRAM")
	}
	if clones[1].Root() != root {
		t.Fatal("the first clone's writes reached the frozen image")
	}
	for i, la := range diffLines[:20] {
		if ok, _ := clones[1].Verify(0, la, 1, line(byte(i))); !ok {
			t.Fatalf("line %#x rejected by the untouched clone", la)
		}
	}
}

func TestCloneRequiresFreeze(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Clone of an unfrozen tree did not panic")
		}
	}()
	newTree().Clone(nil)
}
