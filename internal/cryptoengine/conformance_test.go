package cryptoengine

import (
	"errors"
	"testing"
)

// conformanceSpecs is the model grid the conformance suite runs: every
// shipped model, each at a default and a non-default parameterization.
func conformanceSpecs() []Spec {
	return []Spec{
		DefaultSpec(),
		{Model: ModelAES, LatencyCycles: 48, IssuePerCycle: 2},
		{Model: ModelSealer},
		{Model: ModelSealer, Banks: 4, LatencyCycles: 32},
		{Model: ModelBipBip},
		{Model: ModelBipBip, LatencyCycles: 2},
	}
}

func newConformanceModel(t *testing.T, spec Spec) EngineModel {
	t.Helper()
	m, err := NewModel(spec)
	if err != nil {
		t.Fatalf("NewModel(%v): %v", spec, err)
	}
	return m
}

// forEachModel runs fn once per conformance spec, as a subtest named by
// the spec's canonical string.
func forEachModel(t *testing.T, fn func(t *testing.T, m EngineModel)) {
	for _, spec := range conformanceSpecs() {
		t.Run(spec.String(), func(t *testing.T) {
			fn(t, newConformanceModel(t, spec))
		})
	}
}

// TestConformanceMonotoneReady: with non-decreasing request times, every
// model's ready cycles are non-decreasing and strictly after the request.
func TestConformanceMonotoneReady(t *testing.T) {
	forEachModel(t, func(t *testing.T, m EngineModel) {
		nows := []uint64{0, 0, 0, 5, 5, 6, 100, 100, 100, 100, 10_000}
		var prev uint64
		for i, now := range nows {
			ready := m.ScheduleOnly(now, ClassDemand)
			if ready <= now {
				t.Fatalf("request %d at %d ready at %d, not after the request", i, now, ready)
			}
			if ready < prev {
				t.Fatalf("request %d at %d ready at %d, before predecessor's %d", i, now, ready, prev)
			}
			prev = ready
		}
	})
}

// TestConformanceReservationOrder: requests issued back to back at one
// cycle are served in issue order — interleaving classes and the
// single-request and guess-burst entry points must not reorder service.
func TestConformanceReservationOrder(t *testing.T) {
	forEachModel(t, func(t *testing.T, m EngineModel) {
		var readies []uint64
		for i := 0; i < 12; i++ {
			var r uint64
			switch i % 3 {
			case 0:
				r = m.ScheduleOnly(10, ClassDemand)
			case 1:
				r = m.ScheduleOnly(10, ClassWriteback)
			case 2:
				_, r = m.ScheduleGuesses(10, []uint64{uint64(i)}, uint64(i))
			}
			readies = append(readies, r)
		}
		for i := 1; i < len(readies); i++ {
			if readies[i] < readies[i-1] {
				t.Fatalf("same-cycle burst served out of order: request %d ready %d before request %d ready %d",
					i, readies[i], i-1, readies[i-1])
			}
		}
	})
}

// TestConformanceIssuedAccounting: Stats.Issued tracks every entry point
// per class, including one prediction per guess of a speculative burst.
func TestConformanceIssuedAccounting(t *testing.T) {
	forEachModel(t, func(t *testing.T, m EngineModel) {
		guesses := []uint64{7, 8, 9, 10}
		m.ScheduleGuesses(0, guesses, 9)
		m.ScheduleGuesses(50, guesses, 1) // no match
		m.ScheduleOnly(100, ClassDemand)
		m.ScheduleOnly(150, ClassDemand)
		m.ScheduleOnly(200, ClassWriteback)
		st := m.Stats()
		if got, want := st.Issued[ClassPrediction], uint64(2*len(guesses)); got != want {
			t.Errorf("Issued[prediction] = %d, want %d", got, want)
		}
		if got := st.Issued[ClassDemand]; got != 2 {
			t.Errorf("Issued[demand] = %d, want 2", got)
		}
		if got := st.Issued[ClassWriteback]; got != 1 {
			t.Errorf("Issued[writeback] = %d, want 1", got)
		}
		if got, want := st.IssuedTotal(), uint64(2*len(guesses)+3); got != want {
			t.Errorf("IssuedTotal() = %d, want %d", got, want)
		}
		if st.QueueWait.Total != uint64(2*len(guesses)+3) {
			t.Errorf("QueueWait observed %d requests, want %d", st.QueueWait.Total, 2*len(guesses)+3)
		}
	})
}

// TestConformanceQueueWaitMatchesStalls: every model records one
// QueueWait sample per request, speculative guesses included, and the
// samples add up to StallCycles.
func TestConformanceQueueWaitMatchesStalls(t *testing.T) {
	forEachModel(t, func(t *testing.T, m EngineModel) {
		guesses := []uint64{1, 2, 3, 4, 5, 6}
		m.ScheduleOnly(10, ClassDemand)
		m.ScheduleGuesses(10, guesses, 4)
		m.ScheduleOnly(10, ClassWriteback)
		st := m.Stats()
		if want := uint64(len(guesses) + 2); st.QueueWait.Total != want {
			t.Errorf("QueueWait observed %d requests, want %d", st.QueueWait.Total, want)
		}
		if st.QueueWait.Sum != st.StallCycles {
			t.Errorf("QueueWait sums to %d cycles, StallCycles is %d", st.QueueWait.Sum, st.StallCycles)
		}
	})
}

// TestConformanceGuessSemantics: a guess burst reports the index of the
// first guess equal to the true counter with a nonzero ready cycle, and
// (-1, 0) on a miss or an empty burst, under every model.
func TestConformanceGuessSemantics(t *testing.T) {
	forEachModel(t, func(t *testing.T, m EngineModel) {
		guesses := []uint64{3, 4, 5, 6}
		idx, ready := m.ScheduleGuesses(0, guesses, 5)
		if idx != 2 || ready == 0 {
			t.Fatalf("ScheduleGuesses match = (%d, %d), want index 2 and nonzero ready", idx, ready)
		}
		if idx, ready := m.ScheduleGuesses(0, guesses, 99); idx != -1 || ready != 0 {
			t.Fatalf("ScheduleGuesses miss = (%d, %d), want (-1, 0)", idx, ready)
		}
		if idx, ready := m.ScheduleGuesses(0, nil, 5); idx != -1 || ready != 0 {
			t.Fatalf("ScheduleGuesses empty = (%d, %d), want (-1, 0)", idx, ready)
		}
	})
}

// TestConformanceZeroAlloc: the per-L2-miss entry points must not
// allocate under any model (they run once per miss and per eviction).
func TestConformanceZeroAlloc(t *testing.T) {
	forEachModel(t, func(t *testing.T, m EngineModel) {
		guesses := []uint64{1, 2, 3, 4, 5}
		var now uint64
		if n := testing.AllocsPerRun(100, func() {
			now += 10
			m.ScheduleGuesses(now, guesses, 3)
		}); n != 0 {
			t.Errorf("ScheduleGuesses allocates %.1f per run", n)
		}
		if n := testing.AllocsPerRun(100, func() {
			now += 10
			m.ScheduleOnly(now, ClassWriteback)
		}); n != 0 {
			t.Errorf("ScheduleOnly allocates %.1f per run", n)
		}
	})
}

// TestConformanceSpecRoundTrip: Spec() reports the normalized spec the
// model was built from, and ParseEngine(String()) round-trips it.
func TestConformanceSpecRoundTrip(t *testing.T) {
	for _, spec := range conformanceSpecs() {
		m := newConformanceModel(t, spec)
		want := spec.Normalized()
		if got := m.Spec(); got != want {
			t.Errorf("Spec() = %+v, want %+v", got, want)
		}
		back, err := ParseEngine(want.String())
		if err != nil {
			t.Errorf("ParseEngine(%q): %v", want.String(), err)
		} else if back != want {
			t.Errorf("ParseEngine(%q) = %+v, want %+v", want.String(), back, want)
		}
	}
}

func TestParseEngine(t *testing.T) {
	cases := []struct {
		in   string
		want Spec
	}{
		{"", DefaultSpec()},
		{"aes", DefaultSpec()},
		{"aes:lat=48", Spec{Model: ModelAES, LatencyCycles: 48, IssuePerCycle: 1}},
		{"aes:lat=48,issue=2", Spec{Model: ModelAES, LatencyCycles: 48, IssuePerCycle: 2}},
		{"sealer", Spec{Model: ModelSealer, LatencyCycles: 128, Banks: 8}},
		{"sealer:banks=4", Spec{Model: ModelSealer, LatencyCycles: 128, Banks: 4}},
		{"sealer:banks=8,lat=64", Spec{Model: ModelSealer, LatencyCycles: 64, Banks: 8}},
		{"bipbip", Spec{Model: ModelBipBip, LatencyCycles: 4}},
		{"bipbip:lat=2", Spec{Model: ModelBipBip, LatencyCycles: 2}},
	}
	for _, c := range cases {
		got, err := ParseEngine(c.in)
		if err != nil {
			t.Errorf("ParseEngine(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseEngine(%q) = %+v, want %+v", c.in, got, c.want)
		}
	}
	for _, bad := range []string{"quantum", "quantum:lat=1", "aes:banks=4", "sealer:issue=2", "aes:lat=0", "aes:lat=x", "bipbip:lat"} {
		if _, err := ParseEngine(bad); err == nil {
			t.Errorf("ParseEngine(%q) accepted", bad)
		}
	}
	if _, err := ParseEngine("quantum"); !errors.Is(err, ErrUnknownEngine) {
		t.Errorf("ParseEngine(quantum) = %v, want errors.Is(err, ErrUnknownEngine)", err)
	}
	if _, err := ParseEngine("aes:banks=4"); errors.Is(err, ErrUnknownEngine) {
		t.Error("bad parameter error should not report an unknown engine")
	}
	if _, err := NewModel(Spec{Model: "quantum"}); !errors.Is(err, ErrUnknownEngine) {
		t.Errorf("NewModel(quantum) = %v, want errors.Is(err, ErrUnknownEngine)", err)
	}
}

// TestSealerTiming pins the banked model's arithmetic: B banks absorb B
// same-cycle requests at full latency each, and request B+1 waits for
// the earliest bank.
func TestSealerTiming(t *testing.T) {
	s := NewSealer(Spec{Model: ModelSealer, Banks: 2, LatencyCycles: 10})
	if r := s.ScheduleOnly(100, ClassDemand); r != 110 {
		t.Fatalf("bank 0 ready at %d, want 110", r)
	}
	if r := s.ScheduleOnly(100, ClassDemand); r != 110 {
		t.Fatalf("bank 1 ready at %d, want 110", r)
	}
	if r := s.ScheduleOnly(100, ClassDemand); r != 120 {
		t.Fatalf("third same-cycle request ready at %d, want 120 (queued behind a busy bank)", r)
	}
	st := s.Stats()
	if st.StallCycles != 10 {
		t.Fatalf("StallCycles = %d, want 10 (one request waited one occupancy)", st.StallCycles)
	}
	if st.Model != ModelSealer || st.Banks != 2 {
		t.Fatalf("stats identity = (%q, %d), want (sealer, 2)", st.Model, st.Banks)
	}
}

// TestBipBipTiming pins the low-latency model: fixed latency, no
// contention, and speculative bursts bypassed for free.
func TestBipBipTiming(t *testing.T) {
	b := NewBipBip(Spec{Model: ModelBipBip, LatencyCycles: 4})
	for i := 0; i < 10; i++ {
		if r := b.ScheduleOnly(100, ClassDemand); r != 104 {
			t.Fatalf("request %d ready at %d, want 104 (no contention ever)", i, r)
		}
	}
	idx, ready := b.ScheduleGuesses(200, []uint64{1, 2, 3}, 2)
	if idx != 1 || ready != 204 {
		t.Fatalf("guess burst = (%d, %d), want (1, 204)", idx, ready)
	}
	st := b.Stats()
	if st.StallCycles != 0 {
		t.Fatalf("StallCycles = %d, want 0", st.StallCycles)
	}
	if st.Bypassed != 3 {
		t.Fatalf("Bypassed = %d, want 3 (the speculative burst)", st.Bypassed)
	}
	if st.Issued[ClassPrediction] != 3 || st.Issued[ClassDemand] != 10 {
		t.Fatalf("Issued = %v", st.Issued)
	}
}
