package secmem

import (
	"testing"
	"testing/quick"

	"ctrpred/internal/ctr"
	"ctrpred/internal/predictor"
	"ctrpred/internal/rng"
)

// TestRandomOperationSequences drives a controller with random
// interleavings of stores, fetches, evictions and agings across several
// predictor schemes, relying on the built-in self-check (decrypt ==
// architectural image) and the pad tracker (no (addr, counter) reuse).
// This is the property the whole architecture rests on: no matter how
// prediction speculates or roots reset, data round-trips exactly and pads
// stay one-time.
func TestRandomOperationSequences(t *testing.T) {
	for _, scheme := range []predictor.Scheme{
		predictor.SchemeNone, predictor.SchemeRegular,
		predictor.SchemeTwoLevel, predictor.SchemeContext,
	} {
		f := func(seed uint64, opsRaw []byte) bool {
			r := newRig(scheme, 4<<10, false)
			rnd := rng.New(seed)
			now := uint64(0)
			const lines = 64
			addr := func() uint64 { return 0x100000 + uint64(rnd.Intn(lines))*32 }
			// Age a few lines first (legal only pre-touch; AgeLine ignores
			// touched lines itself).
			for i := 0; i < 8; i++ {
				r.ctrl.AgeLine(addr(), uint64(rnd.Intn(20)))
			}
			for _, op := range opsRaw {
				now += uint64(rnd.Intn(200))
				a := addr()
				switch op % 3 {
				case 0: // store new data then write it back
					r.image.Store(a, 8, rnd.Uint64())
					r.ctrl.EvictLine(now, a)
				case 1: // fetch (self-check verifies the decryption)
					res := r.ctrl.FetchLine(now, a)
					if res.Plain != r.image.LineAt(a) {
						return false
					}
				case 2: // clean eviction after a fetch
					r.ctrl.FetchLine(now, a)
					r.ctrl.EvictLine(now+10, a)
				}
			}
			return r.ctrl.PadViolations() == 0 && r.ctrl.Stats().SelfCheckFails == 0
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
			t.Fatalf("scheme %v: %v", scheme, err)
		}
	}
}

// TestAgeLineIgnoredAfterTouch verifies aging cannot retroactively change
// a line the run has already touched (which would break pad uniqueness).
func TestAgeLineIgnoredAfterTouch(t *testing.T) {
	r := newRig(predictor.SchemeRegular, 0, false)
	r.ctrl.FetchLine(0, 0x1000)
	before := r.ctrl.Seq(0x1000)
	r.ctrl.AgeLine(0x1000, 99)
	if got := r.ctrl.Seq(0x1000); got != before {
		t.Fatalf("AgeLine changed a touched line's counter: %d -> %d", before, got)
	}
}

// TestAgedLineDecrypts confirms a line aged to an arbitrary offset still
// round-trips through fetch.
func TestAgedLineDecrypts(t *testing.T) {
	r := newRig(predictor.SchemeRegular, 0, false)
	r.image.Store(0x2000, 8, 0x1234)
	r.ctrl.AgeLine(0x2000, 37)
	res := r.ctrl.FetchLine(0, 0x2000)
	if res.Plain != r.image.LineAt(0x2000) {
		t.Fatal("aged line decrypted wrong")
	}
	if res.TrueSeq != r.ctrl.Predictor().Root(0x2000)+37 {
		t.Fatalf("aged counter = %d", res.TrueSeq)
	}
	if res.PredHit {
		t.Fatal("offset-37 counter predicted by regular depth-5 scheme")
	}
}

// TestCounterBufferSpatialHit verifies the 4-entry counter-line buffer
// serves adjacent blocks' counters without a second DRAM trip.
func TestCounterBufferSpatialHit(t *testing.T) {
	r := newRig(predictor.SchemeNone, 0, false)
	r.ctrl.FetchLine(0, 0x3000)
	res := r.ctrl.FetchLine(1000, 0x3020) // neighbor: same counter line
	if res.SeqDone != 1000 {
		t.Fatalf("neighbor counter not buffered: SeqDone=%d", res.SeqDone)
	}
	if r.ctrl.Stats().CounterBufHits != 1 {
		t.Fatalf("CounterBufHits = %d", r.ctrl.Stats().CounterBufHits)
	}
	// A distant block misses the buffer.
	res = r.ctrl.FetchLine(2000, 0x9000)
	if res.SeqDone == 2000 {
		t.Fatal("distant counter served from buffer")
	}
}

// TestContextSwitchForgetsCounterLines: after a switch the neighbour of
// a line fetched before it finds its counter line in neither on-chip
// cache, as the other process's traffic would have displaced it.
func TestContextSwitchForgetsCounterLines(t *testing.T) {
	r := newRig(predictor.SchemeNone, 4<<10, false)
	r.ctrl.FetchLine(0, 0x3000)
	r.ctrl.ContextSwitch()
	if res := r.ctrl.FetchLine(1000, 0x3020); res.SeqDone == 1000 {
		t.Fatal("neighbour's counter available at issue after a context switch")
	}
	if st := r.ctrl.Stats(); st.SeqCacheHits != 0 || st.CounterBufHits != 0 {
		t.Fatalf("seq-cache hits %d, counter-buffer hits %d after a context switch, want 0 and 0", st.SeqCacheHits, st.CounterBufHits)
	}
}

// TestCounterBufferEvictsLeastRecent pins the buffer's replacement: it
// keeps the four most recently used counter lines. Lines 128 bytes apart
// have their counters in distinct 32-byte counter lines.
func TestCounterBufferEvictsLeastRecent(t *testing.T) {
	r := newRig(predictor.SchemeNone, 0, false)
	const span = 4 * ctr.LineSize // data one counter line covers
	now := uint64(0)
	fetch := func(i, j uint64, buffered bool) {
		t.Helper()
		now += 10_000
		res := r.ctrl.FetchLine(now, 0x10000+i*span+j*ctr.LineSize)
		if (res.SeqDone == now) != buffered {
			t.Fatalf("counter line %d (block %d): SeqDone %d at issue %d, want buffered %v", i, j, res.SeqDone, now, buffered)
		}
	}
	for i := uint64(0); i < 5; i++ {
		fetch(i, 0, false) // the fifth displaces counter line 0
	}
	fetch(1, 1, true)
	fetch(0, 1, false) // displaces 2, now the least recently used
	fetch(3, 1, true)
	fetch(4, 1, true)
	fetch(0, 2, true)
	fetch(2, 1, false) // displaces 1
	fetch(1, 2, false)
	if hits := r.ctrl.Stats().CounterBufHits; hits != 4 {
		t.Fatalf("CounterBufHits = %d, want 4", hits)
	}
}
