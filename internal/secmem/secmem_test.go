package secmem

import (
	"testing"

	"ctrpred/internal/cryptoengine"
	"ctrpred/internal/ctr"
	"ctrpred/internal/dram"
	"ctrpred/internal/mem"
	"ctrpred/internal/predictor"
	"ctrpred/internal/rng"
	"ctrpred/internal/stats"
)

type rig struct {
	ctrl  *Controller
	image *mem.Memory
}

func newRig(scheme predictor.Scheme, seqCacheBytes int, oracle bool) *rig {
	e, _ := cryptoengine.New(cryptoengine.DefaultSpec()) // the default spec always builds
	return newRigOn(dram.New(dram.DefaultConfig()), e, scheme, seqCacheBytes, oracle)
}

// newRigOn is newRig over data channel d and engine e, both nil for an
// untimed controller.
func newRigOn(d *dram.DRAM, e *cryptoengine.Engine, scheme predictor.Scheme, seqCacheBytes int, oracle bool) *rig {
	var key [32]byte
	key[0] = 0x42
	image := mem.New()
	ks := ctr.NewKeystream(key)
	p := predictor.New(scheme, predictor.DefaultConfig(), 0x5eed)
	cfg := DefaultConfig()
	cfg.Oracle = oracle
	cfg.SeqCacheBytes = seqCacheBytes
	return &rig{ctrl: New(cfg, d, e, ks, p, image), image: image}
}

func TestFetchDecryptsImage(t *testing.T) {
	r := newRig(predictor.SchemeRegular, 0, false)
	var want ctr.Line
	for i := range want {
		want[i] = byte(i * 3)
	}
	r.image.SetLine(0x1000, want)
	res := r.ctrl.FetchLine(0, 0x1000)
	if res.Plain != want {
		t.Fatalf("fetched %v, want %v", res.Plain, want)
	}
}

func TestCiphertextDiffersFromPlaintext(t *testing.T) {
	r := newRig(predictor.SchemeRegular, 0, false)
	var plain ctr.Line
	for i := range plain {
		plain[i] = 0xaa
	}
	r.image.SetLine(0x2000, plain)
	if r.ctrl.EncryptedLine(0x2000) == plain {
		t.Fatal("off-chip line equals plaintext")
	}
}

func TestFreshLinePredicted(t *testing.T) {
	// A never-written line keeps the page root as its counter, which the
	// regular predictor always guesses.
	r := newRig(predictor.SchemeRegular, 0, false)
	res := r.ctrl.FetchLine(0, 0x3000)
	if !res.PredHit {
		t.Fatal("fresh line's counter not predicted")
	}
}

func TestPredictionHidesLatency(t *testing.T) {
	rp := newRig(predictor.SchemeRegular, 0, false)
	rb := newRig(predictor.SchemeNone, 0, false)
	p := rp.ctrl.FetchLine(0, 0x4000)
	b := rb.ctrl.FetchLine(0, 0x4000)
	if !p.PredHit {
		t.Fatal("expected prediction hit")
	}
	if p.Done >= b.Done {
		t.Fatalf("prediction (%d) not faster than baseline (%d)", p.Done, b.Done)
	}
	// Baseline serializes counter fetch then 96-cycle pad generation.
	if b.Done < b.SeqDone+96 {
		t.Fatalf("baseline done %d before seq+96 (%d)", b.Done, b.SeqDone+96)
	}
	// Predicted fetch is bounded by the slower of line fetch and pad.
	if p.Done > max(p.LineDone, p.SeqDone)+2+96 {
		t.Fatalf("prediction did not overlap pad generation: %+v", p)
	}
}

func TestEvictionAdvancesCounterAndReencrypts(t *testing.T) {
	r := newRig(predictor.SchemeRegular, 0, false)
	addr := uint64(0x5000)
	r.image.Store(addr, 8, 1)
	before := r.ctrl.Seq(addr)
	encBefore := r.ctrl.EncryptedLine(addr)

	r.image.Store(addr, 8, 2)
	r.ctrl.EvictLine(100, addr)

	if got := r.ctrl.Seq(addr); got != before+1 {
		t.Fatalf("counter = %d, want %d", got, before+1)
	}
	if r.ctrl.EncryptedLine(addr) == encBefore {
		t.Fatal("ciphertext unchanged after writeback")
	}
	// And the fetch path recovers the new value.
	res := r.ctrl.FetchLine(200, addr)
	if res.TrueSeq != before+1 {
		t.Fatalf("fetched counter %d", res.TrueSeq)
	}
	var wantLine ctr.Line
	wantLine[addr%32] = 2
	if res.Plain != r.image.LineAt(addr) {
		t.Fatal("fetched stale data after eviction")
	}
}

func TestDeepUpdateEscapesPrediction(t *testing.T) {
	r := newRig(predictor.SchemeRegular, 0, false)
	addr := uint64(0x6000)
	for i := 0; i < 10; i++ { // depth is 5 → offset 10 unpredictable
		r.ctrl.EvictLine(uint64(i*1000), addr)
	}
	res := r.ctrl.FetchLine(100000, addr)
	if res.PredHit {
		t.Fatal("offset-10 counter predicted by regular scheme")
	}
	if res.Plain != r.image.LineAt(addr) {
		t.Fatal("misprediction corrupted data")
	}
}

func TestContextPredictionCoversDeepUpdates(t *testing.T) {
	r := newRig(predictor.SchemeContext, 0, false)
	a, b := uint64(0x7000), uint64(0x7200) // same page, different lines
	for i := 0; i < 10; i++ {
		r.ctrl.EvictLine(uint64(i*1000), a)
		r.ctrl.EvictLine(uint64(i*1000+500), b)
	}
	// First fetch misses (LOR unknown); its observation sets LOR=10.
	r.ctrl.FetchLine(100000, a)
	res := r.ctrl.FetchLine(200000, b)
	if !res.PredHit {
		t.Fatal("context prediction missed correlated offset")
	}
}

func TestSeqCachePath(t *testing.T) {
	r := newRig(predictor.SchemeNone, 4<<10, false)
	addr := uint64(0x8000)
	first := r.ctrl.FetchLine(0, addr)
	if first.SeqHit {
		t.Fatal("cold fetch hit the seq cache")
	}
	second := r.ctrl.FetchLine(10000, addr)
	if !second.SeqHit {
		t.Fatal("warm fetch missed the seq cache")
	}
	if second.SeqDone != 10000 {
		t.Fatalf("cached counter available at %d, want request time", second.SeqDone)
	}
	st := r.ctrl.Stats()
	if st.SeqCacheHits != 1 || st.Fetches != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestSeqCacheLines pins what the sequence-number cache keeps: a counter
// line missed once is found the next time; a 32-byte counter line, so
// four adjacent blocks share an entry; a writeback
// allocates its line (write-update); a line is its counter-table
// address, so distant blocks never alias; and a two-line cache is
// direct-mapped but still hits.
func TestSeqCacheLines(t *testing.T) {
	type op struct {
		evict bool
		addr  uint64
		hit   bool // fetches only: want the counter from the seq cache
	}
	for _, tc := range []struct {
		name  string
		bytes int
		ops   []op
	}{
		{"miss then hit", 4 << 10, []op{{false, 0x1000, false}, {false, 0x1000, true}}},
		{"four blocks a line", 4 << 10, []op{
			{false, 0x1000, false}, {false, 0x1020, true}, {false, 0x1040, true},
			{false, 0x1060, true}, {false, 0x1080, false},
		}},
		{"writeback allocates", 4 << 10, []op{{true, 0x5000, false}, {false, 0x5000, true}, {false, 0x5060, true}}},
		{"distant blocks", 512 << 10, []op{{false, 0, false}, {false, 1 << 30, false}, {false, 0, true}}},
		{"two lines", 64, []op{{false, 0x2000, false}, {false, 0x2000, true}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(predictor.SchemeNone, tc.bytes, false)
			for i, o := range tc.ops {
				now := uint64(i+1) * 10_000
				if o.evict {
					r.ctrl.EvictLine(now, o.addr)
					continue
				}
				if got := r.ctrl.FetchLine(now, o.addr).SeqHit; got != o.hit {
					t.Errorf("op %d fetch %#x: seq-cache hit %v, want %v", i, o.addr, got, o.hit)
				}
			}
		})
	}
}

// TestSeqCacheCapacity sweeps 64 KB of data through a 4 KB cache, which
// holds the counters of 16 KB: three of every four fetches find their
// counter line, and the first line is gone by the end.
func TestSeqCacheCapacity(t *testing.T) {
	r := newRig(predictor.SchemeNone, 4<<10, false)
	now := uint64(0)
	for la := uint64(0); la < 64<<10; la += ctr.LineSize {
		now += 1000
		r.ctrl.FetchLine(now, la)
	}
	if st := r.ctrl.SeqCacheStats(); st.Hits != 3*st.Misses || st.Accesses != 2048 {
		t.Fatalf("sweep: %d hits, %d misses over %d accesses, want 3:1 over 2048", st.Hits, st.Misses, st.Accesses)
	}
	if r.ctrl.FetchLine(now+1000, 0).SeqHit {
		t.Fatal("first counter line survived a 4x-capacity sweep")
	}
}

func TestOraclePath(t *testing.T) {
	r := newRig(predictor.SchemeNone, 0, true)
	res := r.ctrl.FetchLine(50, 0x9000)
	if res.SeqDone != 50 {
		t.Fatalf("oracle counter at %d, want 50", res.SeqDone)
	}
	if r.ctrl.Stats().OracleHits != 1 {
		t.Fatal("oracle hit not counted")
	}
	// Oracle never beats the crypto latency: done ≥ now + 96.
	if res.Done < 50+96 {
		t.Fatalf("oracle fetch done at %d", res.Done)
	}
}

func TestBothHitAccounting(t *testing.T) {
	r := newRig(predictor.SchemeRegular, 32<<10, false)
	addr := uint64(0xa000)
	r.ctrl.FetchLine(0, addr)            // cold: pred hit, cache miss+fill
	res := r.ctrl.FetchLine(10000, addr) // warm: both hit
	if !res.SeqHit || !res.PredHit {
		t.Fatalf("expected both mechanisms to hit: %+v", res)
	}
	st := r.ctrl.Stats()
	if st.BothHits != 1 {
		t.Fatalf("BothHits = %d", st.BothHits)
	}
	if got := st.CounterCoverage(); got != 1.0 {
		t.Fatalf("coverage = %v, want 1.0", got)
	}
}

func TestNoPadReuseAcrossEvictions(t *testing.T) {
	r := newRig(predictor.SchemeRegular, 0, false)
	for i := 0; i < 200; i++ {
		addr := uint64(0xb000) + uint64(i%4)*32
		r.image.Store(addr, 8, uint64(i))
		r.ctrl.EvictLine(uint64(i*100), addr)
	}
	if v := r.ctrl.PadViolations(); v != 0 {
		t.Fatalf("%d one-time-pad reuses detected", v)
	}
}

func TestNoPadReuseAcrossResets(t *testing.T) {
	r := newRig(predictor.SchemeRegular, 0, false)
	addr := uint64(0xc000)
	// Drive enough unpredictable churn to force root resets, evicting all
	// the while; counters must never repeat.
	for round := 0; round < 20; round++ {
		for i := 0; i < 10; i++ {
			r.ctrl.EvictLine(uint64(round*10000+i*100), addr)
		}
		r.ctrl.FetchLine(uint64(round*10000+5000), addr)
	}
	if r.ctrl.Predictor().Stats().Resets == 0 {
		t.Skip("no resets triggered; adjust churn")
	}
	if v := r.ctrl.PadViolations(); v != 0 {
		t.Fatalf("%d pad reuses across root resets", v)
	}
}

func TestFetchAfterResetStillDecrypts(t *testing.T) {
	r := newRig(predictor.SchemeRegular, 0, false)
	addr := uint64(0xd000)
	r.image.Store(addr, 8, 7)
	for i := 0; i < 30; i++ { // escape prediction depth → PHV fills with misses
		r.ctrl.EvictLine(uint64(i*100), addr)
		r.ctrl.FetchLine(uint64(i*100+50), addr)
	}
	res := r.ctrl.FetchLine(100000, addr)
	if res.Plain != r.image.LineAt(addr) {
		t.Fatal("data corrupted after root reset churn")
	}
}

func TestEngineContentionFromPredictions(t *testing.T) {
	// Two simultaneous misses: the second's speculative pads queue behind
	// the first's in the engine pipeline.
	r := newRig(predictor.SchemeRegular, 0, false)
	a := r.ctrl.FetchLine(0, 0xe000)
	b := r.ctrl.FetchLine(0, 0xf000)
	if !a.PredHit || !b.PredHit {
		t.Fatal("expected prediction hits")
	}
	if b.Done <= a.Done {
		t.Fatalf("no serialization visible: a=%d b=%d", a.Done, b.Done)
	}
}

func TestStatsLatencyHistogram(t *testing.T) {
	r := newRig(predictor.SchemeRegular, 0, false)
	r.ctrl.FetchLine(0, 0x10000)
	st := r.ctrl.Stats()
	if st.FetchLatency.Total != 1 {
		t.Fatalf("histogram total = %d", st.FetchLatency.Total)
	}
}

// TestNilPredictorPanics: New with every dependency nil still stops at the
// predictor check rather than dereferencing a nil DRAM or engine first.
func TestNilPredictorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil predictor accepted")
		}
	}()
	New(DefaultConfig(), nil, nil, nil, nil, nil)
}

// TestChannelWithoutEnginePanics: a controller is timed by a data
// channel and an engine together or by neither.
func TestChannelWithoutEnginePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("a data channel without an engine was accepted")
		}
	}()
	newRigOn(dram.New(dram.DefaultConfig()), nil, predictor.SchemeRegular, 0, false)
}

// TestUntimedMatchesTimedCounters drives one stream of fetches and
// writebacks, deep enough to reset roots, through a timed controller and
// an untimed one: every counter, cache and predictor statistic, each
// fetch's hit flags and data and each line's counter must agree, and the
// untimed controller must book no time at all.
func TestUntimedMatchesTimedCounters(t *testing.T) {
	for _, tc := range []struct {
		name   string
		scheme predictor.Scheme
		sc     int
		oracle bool
	}{
		{"context+seqcache", predictor.SchemeContext, 1 << 10, false},
		{"two-level", predictor.SchemeTwoLevel, 0, false},
		{"oracle", predictor.SchemeNone, 0, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			timed := newRig(tc.scheme, tc.sc, tc.oracle)
			untimed := newRigOn(nil, nil, tc.scheme, tc.sc, tc.oracle)
			r := rng.New(7)
			for i := 0; i < 6000; i++ {
				now := uint64(i) * 40
				la := uint64(r.Intn(256)) * ctr.LineSize
				if r.Bool(0.5) {
					var l ctr.Line
					l[0], l[1] = byte(i), byte(i>>8)
					timed.image.SetLine(la, l)
					untimed.image.SetLine(la, l)
					timed.ctrl.EvictLine(now, la)
					if done := untimed.ctrl.EvictLine(now, la); done != now {
						t.Fatalf("untimed writeback %d done at %d, want %d", i, done, now)
					}
					continue
				}
				a, b := timed.ctrl.FetchLine(now, la), untimed.ctrl.FetchLine(now, la)
				if a.PredHit != b.PredHit || a.SeqHit != b.SeqHit || a.TrueSeq != b.TrueSeq || a.Plain != b.Plain {
					t.Fatalf("fetch %d of %#x: timed %+v, untimed %+v", i, la, a, b)
				}
				if b.SeqDone != now || b.LineDone != now || b.Done != now {
					t.Fatalf("untimed fetch %d at %d booked time: %+v", i, now, b)
				}
			}
			ts, us := timed.ctrl.Stats(), untimed.ctrl.Stats()
			if us.FetchLatency != nil || us.DecryptExposed != 0 {
				t.Fatalf("untimed controller booked fetch time: %+v", us)
			}
			n := stats.NewSnapshot("controller")
			us.AddTo(n)
			if _, ok := n.CounterValue("decrypt_exposed_cycles"); ok || len(n.Histograms) != 0 {
				t.Fatalf("untimed snapshot carries timing entries: %+v", n)
			}
			ts.FetchLatency, ts.DecryptExposed = nil, 0
			if ts != us {
				t.Fatalf("stats differ: timed %+v, untimed %+v", ts, us)
			}
			if ts.Evictions == 0 || ts.Fetches == 0 || (tc.scheme != predictor.SchemeNone && ts.PredHits == 0) {
				t.Fatalf("stream exercised too little: %+v", ts)
			}
			if got, want := snapshotOf(untimed.ctrl.Predictor().Stats()), snapshotOf(timed.ctrl.Predictor().Stats()); got != want {
				t.Fatalf("predictor stats differ:\ntimed   %s\nuntimed %s", want, got)
			}
			if tc.scheme == predictor.SchemeContext && timed.ctrl.Predictor().Stats().Resets == 0 {
				t.Fatal("the stream reset no root")
			}
			if a, b := timed.ctrl.SeqCacheStats(), untimed.ctrl.SeqCacheStats(); (a == nil) != (b == nil) || (a != nil && *a != *b) {
				t.Fatalf("seq cache stats differ: timed %v, untimed %v", a, b)
			}
			for la := uint64(0); la < 256*ctr.LineSize; la += ctr.LineSize {
				if a, b := timed.ctrl.Seq(la), untimed.ctrl.Seq(la); a != b {
					t.Fatalf("line %#x: timed counter %d, untimed %d", la, a, b)
				}
			}
		})
	}
}

// snapshotOf renders s's snapshot node.
func snapshotOf(s interface{ AddTo(*stats.Snapshot) }) string {
	n := stats.NewSnapshot("stats")
	s.AddTo(n)
	js, err := n.JSON()
	if err != nil {
		panic(err)
	}
	return string(js)
}

// TestCounterTableClearOfData fetches the line at address 0: data there
// must never collide with the counter table.
func TestCounterTableClearOfData(t *testing.T) {
	var key [32]byte
	image := mem.New()
	d := dram.New(dram.DefaultConfig())
	e, _ := cryptoengine.New(cryptoengine.DefaultSpec()) // the default spec always builds
	ks := ctr.NewKeystream(key)
	p := predictor.New(predictor.SchemeNone, predictor.DefaultConfig(), 0x5eed)
	c := New(Config{SelfCheck: true}, d, e, ks, p, image)
	c.FetchLine(0, 0)
	if c.Stats().SelfCheckFails != 0 {
		t.Fatal("self-check failed on the line at address 0")
	}
}
