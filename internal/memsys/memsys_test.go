package memsys

import (
	"testing"

	"ctrpred/internal/cryptoengine"
	"ctrpred/internal/ctr"
	"ctrpred/internal/dram"
	"ctrpred/internal/mem"
	"ctrpred/internal/predictor"
	"ctrpred/internal/secmem"
)

func newSys(t *testing.T, cfg Config, scheme predictor.Scheme) (*System, *mem.Memory) {
	t.Helper()
	var key [32]byte
	key[0] = 7
	image := mem.New()
	d := dram.New(dram.DefaultConfig())
	e, _ := cryptoengine.New(cryptoengine.DefaultSpec()) // the default spec always builds
	ks := ctr.NewKeystream(key)
	p := predictor.New(scheme, predictor.DefaultConfig(), 0x5eed)
	ctrl := secmem.New(secmem.DefaultConfig(), d, e, ks, p, image)
	return New(cfg, ctrl), image
}

func smallCfg() Config {
	cfg := DefaultConfig()
	cfg.L2Size = 4 << 10
	cfg.FlushInterval = 0
	return cfg
}

func TestL1HitFast(t *testing.T) {
	s, _ := newSys(t, smallCfg(), predictor.SchemeRegular)
	s.Access(0, 0x1000, false) // cold: TLB miss + full path
	done := s.Access(10000, 0x1000, false)
	if done != 10000+L1Latency {
		t.Fatalf("L1 hit done = %d, want %d", done, 10000+L1Latency)
	}
}

func TestL2HitLatency(t *testing.T) {
	s, _ := newSys(t, smallCfg(), predictor.SchemeRegular)
	s.Access(0, 0x1000, false)
	// Evict from the direct-mapped L1 (a conflicting address) but keep
	// in L2, whose 4 ways hold both.
	s.Access(5000, 0x1000+L1Size, false)
	done := s.Access(10000, 0x1000, false)
	want := uint64(10000) + L1Latency + s.Config().L2Latency()
	if done != want {
		t.Fatalf("L2 hit done = %d, want %d", done, want)
	}
}

func TestMissGoesThroughDecryption(t *testing.T) {
	s, _ := newSys(t, smallCfg(), predictor.SchemeNone)
	done := s.Access(0, 0x2000, false)
	// Baseline: counter fetch + 96-cycle pad + line fetch, far above 100.
	if done < 100 {
		t.Fatalf("cold miss done = %d, implausibly fast", done)
	}
	if s.Controller().Stats().Fetches != 1 {
		t.Fatal("controller saw no fetch")
	}
}

func TestStoreMakesL2Dirty(t *testing.T) {
	s, image := newSys(t, smallCfg(), predictor.SchemeRegular)
	image.Store(0x3000, 8, 42)
	s.Access(0, 0x3000, true)
	_, _, l2 := s.Caches()
	if l2.DirtyLines() != 1 {
		t.Fatalf("dirty L2 lines = %d, want 1", l2.DirtyLines())
	}
	_, l1d, _ := s.Caches()
	if l1d.DirtyLines() != 0 {
		t.Fatal("write-through L1D has dirty lines")
	}
}

func TestEvictionWritesBack(t *testing.T) {
	s, image := newSys(t, smallCfg(), predictor.SchemeRegular)
	image.Store(0x4000, 8, 1)
	s.Access(0, 0x4000, true)
	seqBefore := s.Controller().Seq(0x4000)
	// Blow the 4 KB L2 (4-way, 32 sets): walk 8 KB of conflicting lines.
	for i := uint64(1); i <= 256; i++ {
		s.Access(1000*i, 0x4000+i*4096, false)
	}
	if got := s.Controller().Seq(0x4000); got != seqBefore+1 {
		t.Fatalf("counter after eviction = %d, want %d", got, seqBefore+1)
	}
	if s.Stats().L2Writebacks == 0 {
		t.Fatal("no L2 writebacks recorded")
	}
}

func TestInclusionBackInvalidatesL1(t *testing.T) {
	s, _ := newSys(t, smallCfg(), predictor.SchemeRegular)
	s.Access(0, 0x5000, false)
	l1i, l1d, _ := s.Caches()
	if !l1d.Probe(0x5000) {
		t.Fatal("line not in L1D after access")
	}
	// Conflict 0x5000 out of the single L2 set it occupies (addresses
	// 1 KB apart share a set: 32 sets × 32 B). Conflicting traffic goes
	// through the I-side so that only the back-invalidation can remove
	// the victim from L1D.
	for i := uint64(1); i <= 4; i++ {
		s.FetchInstr(100*i, 0x5000+i*1024)
	}
	if l1d.Probe(0x5000) {
		t.Fatal("L1D retains line evicted from L2 (inclusion violated)")
	}
	if s.Stats().BackInvalL1 == 0 {
		t.Fatal("no back-invalidations recorded")
	}
	_ = l1i
}

func TestInstrFetchPath(t *testing.T) {
	s, _ := newSys(t, smallCfg(), predictor.SchemeRegular)
	d1 := s.FetchInstr(0, 0x8000)
	if d1 < 100 {
		t.Fatalf("cold I-fetch done = %d, implausibly fast", d1)
	}
	d2 := s.FetchInstr(10000, 0x8008) // same line
	if d2 != 10000+L1Latency {
		t.Fatalf("warm I-fetch done = %d", d2)
	}
	if s.Stats().InstrFetches != 2 {
		t.Fatalf("InstrFetches = %d", s.Stats().InstrFetches)
	}
}

func TestPeriodicFlush(t *testing.T) {
	cfg := smallCfg()
	cfg.FlushInterval = 1000
	s, image := newSys(t, cfg, predictor.SchemeRegular)
	image.Store(0x6000, 8, 9)
	s.Access(0, 0x6000, true)
	seqBefore := s.Controller().Seq(0x6000)
	s.Access(5000, 0x7000, false) // crossing the interval triggers a flush
	if s.Stats().Flushes == 0 || s.Stats().FlushedLines == 0 {
		t.Fatalf("stats = %+v, want a flush", s.Stats())
	}
	if got := s.Controller().Seq(0x6000); got != seqBefore+1 {
		t.Fatalf("flush did not advance counter: %d", got)
	}
	// Line remains resident and clean.
	_, _, l2 := s.Caches()
	if !l2.Probe(0x6000) {
		t.Fatal("flushed line evicted")
	}
	if l2.DirtyLines() != 0 {
		t.Fatal("dirty lines remain after flush")
	}
}

func TestDrainDirty(t *testing.T) {
	s, image := newSys(t, smallCfg(), predictor.SchemeRegular)
	image.Store(0x9000, 8, 1)
	s.Access(0, 0x9000, true)
	if n := s.DrainDirty(100); n != 1 {
		t.Fatalf("drained %d lines, want 1", n)
	}
	if s.Stats().Flushes != 0 {
		t.Fatal("drain counted as periodic flush")
	}
}

func TestDataRoundTripThroughEviction(t *testing.T) {
	// End-to-end: store, evict (encrypt), re-fetch (decrypt), verify the
	// self-check stayed silent and the architectural value is intact.
	s, image := newSys(t, smallCfg(), predictor.SchemeContext)
	addr := uint64(0xa000)
	image.Store(addr, 8, 0xfeedface)
	s.Access(0, addr, true)
	for i := uint64(1); i <= 256; i++ {
		s.Access(1000*i, addr+i*4096, false)
	}
	s.Access(10_000_000, addr, false) // re-fetch after eviction
	if got := image.Load(addr, 8); got != 0xfeedface {
		t.Fatalf("architectural value = %#x", got)
	}
	if s.Controller().Stats().SelfCheckFails != 0 {
		t.Fatal("self-check failures")
	}
	if s.Controller().PadViolations() != 0 {
		t.Fatal("pad reuse detected")
	}
}

func TestL2Latency(t *testing.T) {
	for size, want := range map[int]uint64{16 << 10: 4, 256 << 10: 4, 1 << 20: 8, 4 << 20: 8} {
		if got := (Config{L2Size: size}).L2Latency(); got != want {
			t.Errorf("%d-byte L2: latency %d, want %d", size, got, want)
		}
	}
}

// TestTLBPenaltyApplied pins the DTLB's replacement: five pages 64 apart
// share one 4-way set, the least recently used one is the page that
// pays the miss penalty again, and after a context switch every page
// pays it. Each page's line sits in its own L1D and L2 set, so every
// compared load hits in the caches and the TLB is the only difference.
func TestTLBPenaltyApplied(t *testing.T) {
	s, _ := newSys(t, smallCfg(), predictor.SchemeRegular)
	const sets = TLBEntries / TLBWays
	addr := func(i uint64) uint64 { return 0x400000 + i*sets<<mem.PageShift + i*ctr.LineSize }
	now := uint64(0)
	load := func(i uint64) uint64 {
		now += 10_000
		return s.Access(now, addr(i), false) - now
	}
	for i := uint64(0); i < TLBWays; i++ {
		load(i) // cold: fills the TLB set and the caches
	}
	for i := uint64(0); i < TLBWays; i++ {
		if lat := load(i); lat != L1Latency {
			t.Fatalf("resident page %d: latency %d, want %d", i, lat, L1Latency)
		}
	}
	load(0) // page 1 is now the least recently used
	load(TLBWays)
	for _, i := range []uint64{0, 2, 3, TLBWays} {
		if lat := load(i); lat != L1Latency {
			t.Fatalf("page %d after the fifth page: latency %d, want %d", i, lat, L1Latency)
		}
	}
	if lat := load(1); lat != L1Latency+tlbMissPenalty {
		t.Fatalf("least recently used page: latency %d, want %d", lat, L1Latency+tlbMissPenalty)
	}

	now += 10_000
	s.ContextSwitch(now)
	for i := uint64(0); i <= TLBWays; i++ {
		// An instruction fetch refills the L2 through the ITLB, so the
		// load below misses only in the L1D and the DTLB.
		now += 10_000
		s.FetchInstr(now, addr(i))
		want := L1Latency + s.Config().L2Latency() + tlbMissPenalty
		if lat := load(i); lat != want {
			t.Fatalf("page %d after a context switch: latency %d, want %d", i, lat, want)
		}
	}
}

func TestContextSwitchColdRestart(t *testing.T) {
	cfg := smallCfg()
	cfg.ContextSwitchInterval = 5000
	s, image := newSys(t, cfg, predictor.SchemeRegular)
	image.Store(0x1000, 8, 3)
	s.Access(0, 0x1000, true) // dirty line + warm caches/TLB
	seqBefore := s.Controller().Seq(0x1000)

	s.Access(10_000, 0x2000, false) // crosses the timeslice boundary
	if s.Stats().ContextSwitches != 1 {
		t.Fatalf("switches = %d, want 1", s.Stats().ContextSwitches)
	}
	// Dirty data was written back (counter advanced) and caches are cold.
	if got := s.Controller().Seq(0x1000); got != seqBefore+1 {
		t.Fatalf("counter after switch = %d, want %d", got, seqBefore+1)
	}
	_, l1d, l2 := s.Caches()
	if l1d.Probe(0x1000) || l2.Probe(0x1000) {
		t.Fatal("caches retained lines across a context switch")
	}
	// Data survives the round trip through encrypted RAM.
	s.Access(20_000, 0x1000, false)
	if image.Load(0x1000, 8) != 3 {
		t.Fatal("value lost across context switch")
	}
	if s.Controller().Stats().SelfCheckFails != 0 {
		t.Fatal("self-check failed after context switch")
	}
}

func TestContextSwitchInvalidatesSeqCache(t *testing.T) {
	cfg := smallCfg()
	cfg.ContextSwitchInterval = 5000
	var key [32]byte
	image := mem.New()
	d := dram.New(dram.DefaultConfig())
	e, _ := cryptoengine.New(cryptoengine.DefaultSpec()) // the default spec always builds
	ks := ctr.NewKeystream(key)
	p := predictor.New(predictor.SchemeNone, predictor.DefaultConfig(), 0x5eed)
	scfg := secmem.DefaultConfig()
	scfg.SeqCacheBytes = 4 << 10
	s := New(cfg, secmem.New(scfg, d, e, ks, p, image))
	hits := func() uint64 { return s.Controller().Stats().SeqCacheHits }

	// 0x3000, 0x3020 and 0x3040 have their counters in one counter line.
	s.Access(0, 0x3000, false)
	s.Access(1000, 0x3020, false)
	if hits() != 1 {
		t.Fatalf("seq-cache hits = %d before the switch, want 1", hits())
	}
	s.Access(10_000, 0x4000, false) // triggers the switch
	s.Access(11_000, 0x3040, false)
	if hits() != 1 {
		t.Fatal("sequence-number cache survived a context switch")
	}
}

func TestPrefetchPreDecryption(t *testing.T) {
	cfg := smallCfg()
	cfg.PrefetchDegree = 1
	s, _ := newSys(t, cfg, predictor.SchemeRegular)
	s.Access(0, 0x1000, false) // miss: fetches 0x1000 and pre-decrypts 0x1020
	if s.Stats().Prefetches != 1 {
		t.Fatalf("prefetches = %d, want 1", s.Stats().Prefetches)
	}
	_, _, l2 := s.Caches()
	if !l2.Probe(0x1020) {
		t.Fatal("next line not prefetched into L2")
	}
	if s.Controller().Stats().Fetches != 2 {
		t.Fatalf("controller fetches = %d, want 2", s.Controller().Stats().Fetches)
	}
	// The demand access to the prefetched line is now an L2 hit.
	done := s.Access(10_000, 0x1020, false)
	if done != 10_000+L1Latency+s.Config().L2Latency() {
		t.Fatalf("prefetched line not an L2 hit: done=%d", done)
	}
}

func TestPrefetchDisabledByDefault(t *testing.T) {
	s, _ := newSys(t, smallCfg(), predictor.SchemeRegular)
	s.Access(0, 0x1000, false)
	if s.Stats().Prefetches != 0 {
		t.Fatal("prefetches issued with degree 0")
	}
}

func TestStreamingBenefitsFromPrefetch(t *testing.T) {
	run := func(degree int) uint64 {
		cfg := smallCfg()
		cfg.PrefetchDegree = degree
		s, _ := newSys(t, cfg, predictor.SchemeRegular)
		var last uint64
		now := uint64(0)
		for a := uint64(0x100000); a < 0x100000+64<<10; a += 32 {
			last = s.Access(now, a, false)
			now = last + 5
		}
		return last
	}
	if with, without := run(2), run(0); with >= without {
		t.Fatalf("prefetch did not speed a stream: %d vs %d", with, without)
	}
}
