package predictor

import (
	"testing"
	"testing/quick"

	"ctrpred/internal/rng"
)

const testSeed = 0x5eed

func newPred(s Scheme) *Predictor { return New(s, DefaultConfig(), testSeed) }

// hitList fabricates the guess list an Observe should see: the true
// sequence number when the test wants a hit, nothing when it wants a
// miss.
func hitList(p *Predictor, addr uint64, hit bool) []uint64 {
	if hit {
		return []uint64{p.Root(addr)}
	}
	return nil
}

func contains(g []uint64, v uint64) bool {
	for _, x := range g {
		if x == v {
			return true
		}
	}
	return false
}

func TestSchemeNone(t *testing.T) {
	p := newPred(SchemeNone)
	if g := p.Predict(0x1000); g != nil {
		t.Fatalf("SchemeNone predicted %v", g)
	}
	p.Observe(0x1000, 5, nil)
	if p.Stats().Fetches != 0 {
		t.Fatal("SchemeNone recorded a fetch")
	}
	if p.NextSeqForEvict(0x1000, 7) != 8 {
		t.Fatal("SchemeNone must still increment counters")
	}
}

func TestRegularGuessesRootRange(t *testing.T) {
	p := newPred(SchemeRegular)
	root := p.Root(0x4000)
	g := p.Predict(0x4000)
	if len(g) != DefaultConfig().Depth+1 {
		t.Fatalf("got %d guesses, want %d", len(g), DefaultConfig().Depth+1)
	}
	for i := 0; i <= DefaultConfig().Depth; i++ {
		if g[i] != root+uint64(i) {
			t.Fatalf("guess %d = %d, want root+%d", i, g[i], i)
		}
	}
}

func TestSameRootWithinPageDifferentAcrossPages(t *testing.T) {
	p := newPred(SchemeRegular)
	if p.Root(0x4000) != p.Root(0x4fe0) {
		t.Fatal("lines of the same page got different roots")
	}
	if p.Root(0x4000) == p.Root(0x5000) {
		t.Fatal("different pages share a root (collision with deterministic seed)")
	}
}

func TestPredictHitOnFreshLine(t *testing.T) {
	// A never-written line keeps its initial counter = root, which the
	// regular predictor always covers.
	p := newPred(SchemeRegular)
	root := p.Root(0x8000)
	if !contains(p.Predict(0x8000), root) {
		t.Fatal("fresh line's counter not predicted")
	}
}

func TestPredictHitAfterFewUpdates(t *testing.T) {
	p := newPred(SchemeRegular)
	addr := uint64(0x8000)
	seq := p.Root(addr)
	for i := 0; i < DefaultConfig().Depth; i++ {
		seq = p.NextSeqForEvict(addr, seq)
	}
	if !contains(p.Predict(addr), seq) {
		t.Fatalf("counter after %d updates not predicted", DefaultConfig().Depth)
	}
	seq = p.NextSeqForEvict(addr, seq) // one beyond the depth
	if contains(p.Predict(addr), seq) {
		t.Fatal("counter beyond prediction depth unexpectedly predicted")
	}
}

func TestObserveStats(t *testing.T) {
	p := newPred(SchemeRegular)
	g := p.Predict(0x1000)
	if !p.Observe(0x1000, p.Root(0x1000), g) {
		t.Fatal("root guess not confirmed as a hit")
	}
	p.Observe(0x1000, 12345, nil)
	s := p.Stats()
	if s.Fetches != 2 || s.Hits != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if s.HitRate() != 0.5 {
		t.Fatalf("hit rate = %v", s.HitRate())
	}
	if s.Guesses != uint64(DefaultConfig().Depth+1) {
		t.Fatalf("guesses = %d", s.Guesses)
	}
}

func TestAdaptiveResetAfterSustainedMisses(t *testing.T) {
	p := newPred(SchemeRegular)
	addr := uint64(0x2000)
	oldRoot := p.Root(addr)
	// Fill the 16-bit PHV with misses; at threshold 12 the root resets.
	for i := 0; i < PHVBits; i++ {
		p.Observe(addr, 999999, nil)
	}
	if p.Stats().Resets == 0 {
		t.Fatal("no reset after sustained misses")
	}
	if p.Root(addr) == oldRoot {
		t.Fatal("root unchanged after reset")
	}
}

func TestNoResetBeforePHVFull(t *testing.T) {
	// The PHV must observe a full window before a reset can trigger —
	// otherwise a few cold misses would thrash roots.
	p := newPred(SchemeRegular)
	addr := uint64(0x2000)
	for i := 0; i < DefaultConfig().ResetThreshold; i++ {
		p.Observe(addr, 999999, nil)
	}
	if p.Stats().Resets != 0 {
		t.Fatal("reset before PHV window filled")
	}
}

func TestNoResetWhenMostlyHitting(t *testing.T) {
	p := newPred(SchemeRegular)
	addr := uint64(0x3000)
	for i := 0; i < 100; i++ {
		p.Observe(addr, p.Root(addr), hitList(p, addr, i%2 == 0)) // 50% misses < 12/16
	}
	if p.Stats().Resets != 0 {
		t.Fatalf("resets = %d with miss rate below threshold", p.Stats().Resets)
	}
	for i := 0; i < 100; i++ {
		p.Observe(addr, p.Root(addr), hitList(p, addr, i%8 != 0)) // 12.5% misses
	}
	if p.Stats().Resets != 0 {
		t.Fatal("reset while prediction healthy")
	}
}

func TestNonAdaptiveNeverResets(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Adaptive = false
	p := New(SchemeRegular, cfg, testSeed)
	for i := 0; i < 200; i++ {
		p.Observe(0x1000, 999999, nil)
	}
	if p.Stats().Resets != 0 {
		t.Fatal("non-adaptive predictor reset a root")
	}
}

func TestRebaseAfterReset(t *testing.T) {
	p := newPred(SchemeRegular)
	addr := uint64(0x6000)
	seq := p.NextSeqForEvict(addr, p.Root(addr)) // root+1, from current root
	// Force a reset.
	for i := 0; i < PHVBits; i++ {
		p.Observe(addr, 0xdeadbeef, nil)
	}
	newRoot := p.Root(addr)
	next := p.NextSeqForEvict(addr, seq)
	if next != newRoot {
		t.Fatalf("evict after reset gave %d, want re-base to new root %d", next, newRoot)
	}
	if p.Stats().Rebases != 1 {
		t.Fatalf("rebases = %d, want 1", p.Stats().Rebases)
	}
	// And prediction covers the re-based line again.
	if !contains(p.Predict(addr), next) {
		t.Fatal("re-based counter not predicted")
	}
}

func TestContextPredictionCoversLOR(t *testing.T) {
	p := newPred(SchemeContext)
	addr := uint64(0x9000)
	root := p.Root(addr)
	// Observe a fetch at offset 20 — far outside the regular depth.
	p.Observe(addr, root+20, nil)
	g := p.Predict(addr)
	for off := uint64(17); off <= 23; off++ { // swing 3 around LOR=20
		if !contains(g, root+off) {
			t.Fatalf("context guess missing offset %d: %v", off, g)
		}
	}
	// Regular guesses still present.
	if !contains(g, root) || !contains(g, root+5) {
		t.Fatal("regular guesses missing from context prediction")
	}
	maxGuesses := (DefaultConfig().Depth + 1) + (2*DefaultConfig().Swing + 1)
	if len(g) > maxGuesses {
		t.Fatalf("%d guesses exceed max %d", len(g), maxGuesses)
	}
}

func TestContextLORCrossesPages(t *testing.T) {
	// The LOR is a single register: an offset learned on page A guides
	// prediction on page B (spatial coherence of update counts).
	p := newPred(SchemeContext)
	a, b := uint64(0x10000), uint64(0x20000)
	p.Observe(a, p.Root(a)+9, nil)
	if !contains(p.Predict(b), p.Root(b)+9) {
		t.Fatal("LOR offset not applied across pages")
	}
}

func TestContextGuessDedup(t *testing.T) {
	p := newPred(SchemeContext)
	addr := uint64(0xa000)
	p.Observe(addr, p.Root(addr)+1, []uint64{p.Root(addr) + 1}) // LOR=1 overlaps regular range
	g := p.Predict(addr)
	seen := map[uint64]bool{}
	for _, v := range g {
		if seen[v] {
			t.Fatalf("duplicate guess %d in %v", v, g)
		}
		seen[v] = true
	}
}

func TestContextLORClampAtZero(t *testing.T) {
	p := newPred(SchemeContext)
	addr := uint64(0xb000)
	root := p.Root(addr)
	p.Observe(addr, root+1, []uint64{root + 1}) // LOR=1 < swing → lower bound clamps to 0
	g := p.Predict(addr)
	for _, v := range g {
		if v-root > uint64(DefaultConfig().Depth) && v-root > uint64(1+DefaultConfig().Swing) {
			t.Fatalf("guess offset %d outside any window", v-root)
		}
	}
}

func TestTwoLevelExtendsReach(t *testing.T) {
	p := newPred(SchemeTwoLevel)
	addr := uint64(0xc000)
	seq := p.Root(addr)
	// Evict the line 23 times: offset 23 is in range index 3 ([18,23] with
	// span 6). Regular prediction (depth 5) could never reach it.
	for i := 0; i < 23; i++ {
		seq = p.NextSeqForEvict(addr, seq)
	}
	if !contains(p.Predict(addr), seq) {
		t.Fatalf("two-level failed to predict offset 23 (guesses %v, root %d)", p.Predict(addr), p.Root(addr))
	}
}

func TestTwoLevelFallsBackWithoutEntry(t *testing.T) {
	p := newPred(SchemeTwoLevel)
	addr := uint64(0xd000)
	g := p.Predict(addr) // page never evicted anything → no range entry
	root := p.Root(addr)
	if g[0] != root || len(g) != DefaultConfig().Depth+1 {
		t.Fatalf("fallback guesses = %v, want regular range at root", g)
	}
}

// TestTwoLevelTableEviction pins the range table's replacement with
// one page more than it has entries. Range info is backed by the page's
// security context (Section 7.2 stores 256 bits per page), but the
// on-chip table must be resident to steer speculation: a displaced
// page's access falls back to regular prediction while its entry
// refills, evicting the least recently used page, and the next access
// predicts the deep offset again.
func TestTwoLevelTableEviction(t *testing.T) {
	cfg := DefaultConfig()
	p := New(SchemeTwoLevel, cfg, testSeed)
	pageAddr := func(i int) uint64 { return uint64(i) * 4096 }
	for i := 0; i <= RangeTableEntries; i++ {
		a := pageAddr(i)
		seq := p.Root(a)
		for j := 0; j < 8; j++ {
			seq = p.NextSeqForEvict(a, seq)
		}
	}
	// Offset 8 is in range 1, [6,11].
	span := uint64(cfg.Depth + 1)
	check := func(i int, resident bool, evictions uint64) {
		t.Helper()
		a := pageAddr(i)
		start := p.Root(a)
		if resident {
			start += span
		}
		g := p.Predict(a)
		if len(g) != cfg.Depth+1 || g[0] != start || g[cfg.Depth] != start+uint64(cfg.Depth) {
			t.Fatalf("page %d (resident %v): guesses %v, want %d…%d", i, resident, g, start, start+uint64(cfg.Depth))
		}
		if got := p.Stats().RangeEvictions; got != evictions {
			t.Fatalf("after page %d: RangeEvictions = %d, want %d", i, got, evictions)
		}
	}
	check(1, true, 1)  // page 64 displaced page 0
	check(0, false, 2) // refill displaces page 2
	check(0, true, 2)
	check(2, false, 3) // refill displaces page 3
	check(2, true, 3)
	p.FlushTransient()
	check(0, false, 3) // refills into an empty table
	check(1, false, 3)
	check(0, true, 3)
	check(1, true, 3)
}

func TestTwoLevelRangeClamped(t *testing.T) {
	p := newPred(SchemeTwoLevel)
	addr := uint64(0xe000)
	seq := p.Root(addr)
	for i := 0; i < 100; i++ { // offset 100 ≫ 16 ranges × span 6
		seq = p.NextSeqForEvict(addr, seq)
	}
	g := p.Predict(addr)
	root := p.Root(addr)
	// Clamped to the top range [90,95]; guesses start at 90.
	if g[0] != root+90 {
		t.Fatalf("clamped range starts at offset %d, want 90", g[0]-root)
	}
}

func TestRootHistoryPredictsOldRoots(t *testing.T) {
	cfg := DefaultConfig()
	cfg.HistoryDepth = 1
	p := New(SchemeRegular, cfg, testSeed)
	addr := uint64(0xf000)
	oldRoot := p.Root(addr)
	for i := 0; i < PHVBits; i++ {
		p.Observe(addr, 0xabcdef, nil)
	}
	if p.Root(addr) == oldRoot {
		t.Fatal("expected reset")
	}
	g := p.Predict(addr)
	if !contains(g, oldRoot) || !contains(g, oldRoot+uint64(cfg.Depth)) {
		t.Fatal("old root range not predicted with history enabled")
	}
}

func TestRootHistoryBounded(t *testing.T) {
	cfg := DefaultConfig()
	cfg.HistoryDepth = 2
	p := New(SchemeRegular, cfg, testSeed)
	addr := uint64(0x11000)
	for r := 0; r < 5; r++ {
		for i := 0; i < PHVBits; i++ {
			p.Observe(addr, 0xabcdef, nil)
		}
	}
	if p.Stats().Resets < 3 {
		t.Fatalf("resets = %d, want several", p.Stats().Resets)
	}
	g := p.Predict(addr)
	max := (cfg.Depth + 1) * (1 + cfg.HistoryDepth)
	if len(g) > max {
		t.Fatalf("%d guesses exceed bound %d with history depth 2", len(g), max)
	}
}

func TestPHVClearedOnReset(t *testing.T) {
	p := newPred(SchemeRegular)
	addr := uint64(0x12000)
	for i := 0; i < PHVBits; i++ {
		p.Observe(addr, 0xabc, nil)
	}
	resets := p.Stats().Resets
	if resets != 1 {
		t.Fatalf("resets = %d, want 1", resets)
	}
	// One more miss must NOT immediately re-trigger (PHV was cleared).
	p.Observe(addr, 0xabc, nil)
	if p.Stats().Resets != resets {
		t.Fatal("reset re-triggered before PHV refilled")
	}
}

func TestMonotoneCountersUnique(t *testing.T) {
	// Property: the counter stream a line is assigned never repeats a
	// value (one-time-pad safety), even across resets.
	f := func(evictions uint8, resetAt uint8) bool {
		p := newPred(SchemeRegular)
		addr := uint64(0x13000)
		seen := map[uint64]bool{}
		seq := p.Root(addr)
		seen[seq] = true
		for i := 0; i < int(evictions%50)+2; i++ {
			if i == int(resetAt%20) {
				for j := 0; j < PHVBits; j++ {
					p.Observe(addr, 0xffffffffff, nil)
				}
			}
			seq = p.NextSeqForEvict(addr, seq)
			if seen[seq] {
				return false
			}
			seen[seq] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestBadConfigsPanic(t *testing.T) {
	bad := []Config{
		{Depth: -1, ResetThreshold: 12},
		{Depth: 5, ResetThreshold: 0},
		{Depth: 5, ResetThreshold: PHVBits + 1},
	}
	for i, cfg := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("bad config %d did not panic", i)
				}
			}()
			New(SchemeRegular, cfg, testSeed)
		}()
	}
}

func TestSchemeString(t *testing.T) {
	for s, want := range map[Scheme]string{
		SchemeNone: "none", SchemeRegular: "regular",
		SchemeTwoLevel: "two-level", SchemeContext: "context",
		Scheme(42): "Scheme(42)",
	} {
		if got := s.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", s, got, want)
		}
	}
}

func TestPageCount(t *testing.T) {
	p := newPred(SchemeRegular)
	p.Root(0x0)
	p.Root(0x1000)
	p.Root(0x1040)
	if p.PageCount() != 2 {
		t.Fatalf("PageCount = %d, want 2", p.PageCount())
	}
}

// TestPagesPastDenseHorizons touches pages below 4 GiB, past it (the
// old page directory's dense horizon) and past 512 GiB (the page
// table's): each draws its root in first-touch order, counts in
// PageCount, and loses its history vector on FlushTransient.
func TestPagesPastDenseHorizons(t *testing.T) {
	p := newPred(SchemeRegular)
	pages := []uint64{600 << 30, 0x1000, 5 << 30, 1 << 50}
	draws := rng.New(testSeed)
	for _, a := range pages {
		if got, want := p.Root(a), draws.Uint64(); got != want {
			t.Fatalf("page %#x: root %#x, want the next draw %#x", a, got, want)
		}
	}
	if p.PageCount() != len(pages) {
		t.Fatalf("PageCount = %d, want %d", p.PageCount(), len(pages))
	}
	// One miss short of a full history, a flush, then one more miss: a
	// kept history would be full of misses and reset every root.
	for _, a := range pages {
		for range PHVBits - 1 {
			p.Observe(a, 0, nil)
		}
	}
	p.FlushTransient()
	for _, a := range pages {
		p.Observe(a, 0, nil)
	}
	if r := p.Stats().Resets; r != 0 {
		t.Fatalf("%d roots reset after the flush", r)
	}
	for _, a := range pages {
		for range PHVBits - 1 {
			p.Observe(a, 0, nil)
		}
	}
	if r := p.Stats().Resets; r != uint64(len(pages)) {
		t.Fatalf("resets = %d after refilling every history, want %d", r, len(pages))
	}
}

// TestAscendingPagesAllocs touches 4,096 pages in ascending order: past
// each page's own metadata, the page table allocates a bounded handful
// of times, not once per few dozen pages.
func TestAscendingPagesAllocs(t *testing.T) {
	const pages = 4096
	allocs := testing.AllocsPerRun(1, func() {
		p := newPred(SchemeRegular)
		for i := range uint64(pages) {
			p.Root(i << 12)
		}
	})
	if allocs > pages+16 {
		t.Fatalf("%v allocations for %d pages, want at most %d", allocs, pages, pages+16)
	}
}

func TestPopcount(t *testing.T) {
	for _, tc := range []struct {
		x uint32
		n int
	}{{0, 0}, {1, 1}, {0xffff, 16}, {0b1010, 2}} {
		if got := popcount(tc.x); got != tc.n {
			t.Errorf("popcount(%#x) = %d, want %d", tc.x, got, tc.n)
		}
	}
}

func TestHitDepthAttributedToOwnGuessList(t *testing.T) {
	// Regression: Observe used to scan the predictor's internal scratch
	// buffer — whatever Predict ran last — so a hit confirmed for a fetch
	// whose Predict was not the most recent call attributed the depth to
	// another line's guess list. The confirming list is now passed
	// explicitly.
	p := newPred(SchemeContext)
	a, b := uint64(0x1000), uint64(0x200000)
	rootA := p.Root(a)
	gA := append([]uint64(nil), p.Predict(a)...) // snapshot; Predict reuses its buffer
	// A second line's fetch runs in between: its Observe moves the LOR and
	// its Predict overwrites the internal buffer with guesses that do not
	// contain A's counter at the same position.
	p.Observe(b, p.Root(b)+40, nil)
	p.Predict(b)
	trueSeq := rootA + 3 // position 4 in A's guess list
	if !p.Observe(a, trueSeq, gA) {
		t.Fatal("hit in A's own guess list not confirmed")
	}
	h := p.Stats().HitDepth
	if h.Total != 1 || h.Sum != 4 {
		t.Fatalf("hit depth total/sum = %d/%d, want 1/4 (depth taken from A's list)", h.Total, h.Sum)
	}
}

func TestResetInvalidatesLOR(t *testing.T) {
	// Regression: an adaptive root reset used to leave the LOR valid, so
	// context prediction kept guessing newRoot+lor — an offset relative to
	// the discarded root — inflating Guesses with candidates no line can
	// hold.
	p := newPred(SchemeContext)
	addr := uint64(0x5000)
	root := p.Root(addr)
	p.Observe(addr, root+20, nil) // LOR = 20, valid, outside the regular depth
	withLOR := DefaultConfig().Depth + 1 + 2*DefaultConfig().Swing + 1
	if n := len(p.Predict(addr)); n != withLOR {
		t.Fatalf("guesses with LOR = %d, want %d", n, withLOR)
	}
	guessesBefore := p.Stats().Guesses
	// Sustained misses reset the page root.
	for i := 0; i < PHVBits; i++ {
		p.Observe(addr, 0xdead, nil)
	}
	if p.Stats().Resets == 0 {
		t.Fatal("expected an adaptive reset")
	}
	g := p.Predict(addr)
	if n := DefaultConfig().Depth + 1; len(g) != n {
		t.Fatalf("guesses after reset = %d, want %d (LOR offsets die with their root)", len(g), n)
	}
	if got, want := p.Stats().Guesses-guessesBefore, uint64(DefaultConfig().Depth+1); got != want {
		t.Fatalf("Guesses grew by %d across the reset, want %d", got, want)
	}
	// The LOR revalidates at the next fetch counting from a live root.
	p.Observe(addr, p.Root(addr)+9, nil)
	if n := len(p.Predict(addr)); n <= DefaultConfig().Depth+1 {
		t.Fatalf("LOR did not revalidate: %d guesses", n)
	}
}

func TestPredictorAccountingProperties(t *testing.T) {
	// Property-style sweep over every scheme (plus a root-history
	// variant): Predict's guesses are always deduplicated, Stats.Guesses
	// equals the summed lengths of the returned guess lists, and the hit
	// depth histogram records exactly one sample per hit.
	hist := DefaultConfig()
	hist.HistoryDepth = 2
	configs := map[string]struct {
		scheme Scheme
		cfg    Config
	}{
		"regular":         {SchemeRegular, DefaultConfig()},
		"twolevel":        {SchemeTwoLevel, DefaultConfig()},
		"context":         {SchemeContext, DefaultConfig()},
		"regular+history": {SchemeRegular, hist},
	}

	for name, c := range configs {
		t.Run(name, func(t *testing.T) {
			p := New(c.scheme, c.cfg, testSeed)
			rnd := uint64(0x9e3779b97f4a7c15)
			next := func(n uint64) uint64 { // xorshift; deterministic, no global rand
				rnd ^= rnd << 13
				rnd ^= rnd >> 7
				rnd ^= rnd << 17
				return rnd % n
			}
			lineSeq := map[uint64]uint64{}
			var guessSum, fetches, hits uint64
			for i := 0; i < 3000; i++ {
				addr := next(8)*4096 + next(16)*32
				cur, ok := lineSeq[addr]
				if !ok {
					cur = p.Root(addr)
				}
				switch next(3) {
				case 0: // fetch: predict then observe the line's true counter
					g := p.Predict(addr)
					seen := make(map[uint64]bool, len(g))
					for _, v := range g {
						if seen[v] {
							t.Fatalf("duplicate guess %d in %v", v, g)
						}
						seen[v] = true
					}
					guessSum += uint64(len(g))
					trueSeq := cur
					if next(4) == 0 {
						trueSeq = next(1 << 40) // junk counter: certain miss territory
					}
					fetches++
					if p.Observe(addr, trueSeq, g) {
						hits++
					}
				case 1: // dirty eviction advances the counter
					lineSeq[addr] = p.NextSeqForEvict(addr, cur)
				case 2: // fetch that never consulted the predictor
					fetches++
					if p.Observe(addr, cur, nil) {
						t.Fatal("Observe(nil guesses) reported a hit")
					}
				}
			}
			s := p.Stats()
			if s.Guesses != guessSum {
				t.Errorf("Stats.Guesses = %d, want summed list lengths %d", s.Guesses, guessSum)
			}
			if s.Fetches != fetches || s.Hits != hits {
				t.Errorf("fetches/hits = %d/%d, want %d/%d", s.Fetches, s.Hits, fetches, hits)
			}
			if s.HitDepth.Total != s.Hits {
				t.Errorf("HitDepth total %d != hits %d", s.HitDepth.Total, s.Hits)
			}
			if s.Hits > s.Fetches {
				t.Errorf("hits %d exceed fetches %d", s.Hits, s.Fetches)
			}
			if hits == 0 {
				t.Error("property run produced no hits; workload not exercising prediction")
			}
		})
	}
}

func BenchmarkPredictRegular(b *testing.B) {
	p := newPred(SchemeRegular)
	for i := 0; i < b.N; i++ {
		p.Predict(uint64(i%1024) * 32)
	}
}

func BenchmarkPredictContext(b *testing.B) {
	p := newPred(SchemeContext)
	p.Observe(0, p.Root(0)+9, nil)
	for i := 0; i < b.N; i++ {
		p.Predict(uint64(i%1024) * 32)
	}
}
