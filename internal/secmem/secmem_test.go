package secmem

import (
	"testing"

	"ctrpred/internal/cryptoengine"
	"ctrpred/internal/ctr"
	"ctrpred/internal/dram"
	"ctrpred/internal/mem"
	"ctrpred/internal/predictor"
	"ctrpred/internal/seqcache"
)

type rig struct {
	ctrl  *Controller
	image *mem.Memory
}

func newRig(scheme predictor.Scheme, seqCacheBytes int, oracle bool) *rig {
	var key [32]byte
	key[0] = 0x42
	image := mem.New()
	d := dram.New(dram.DefaultConfig())
	e := cryptoengine.New(cryptoengine.DefaultConfig(), ctr.NewKeystream(key))
	p := predictor.New(predictor.DefaultConfig(scheme))
	var sc *seqcache.Cache
	if seqCacheBytes > 0 {
		sc = seqcache.New(seqCacheBytes)
	}
	cfg := DefaultConfig()
	cfg.Oracle = oracle
	return &rig{ctrl: New(cfg, d, e, p, sc, image), image: image}
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

func TestNilPredictorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil predictor accepted")
		}
	}()
	New(DefaultConfig(), nil, nil, nil, nil, nil)
}

func TestSeqTableBaseDefault(t *testing.T) {
	var key [32]byte
	image := mem.New()
	d := dram.New(dram.DefaultConfig())
	e := cryptoengine.New(cryptoengine.DefaultConfig(), ctr.NewKeystream(key))
	p := predictor.New(predictor.DefaultConfig(predictor.SchemeNone))
	c := New(Config{SelfCheck: true}, d, e, p, nil, image)
	c.FetchLine(0, 0) // data at 0 must not collide with the counter table
	if c.Stats().SelfCheckFails != 0 {
		t.Fatal("self-check failed with defaulted SeqTableBase")
	}
}
