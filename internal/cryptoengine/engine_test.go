package cryptoengine

import (
	"reflect"
	"testing"

	"ctrpred/internal/rng"
)

// newEngine builds spec's engine; a spec with no model names the
// default pipelined AES.
func newEngine(t testing.TB, spec Spec) *Engine {
	t.Helper()
	e, err := New(spec)
	if err != nil {
		t.Fatalf("New(%v): %v", spec, err)
	}
	return e
}

func TestLatency(t *testing.T) {
	e := newEngine(t, Spec{LatencyCycles: 96, IssuePerCycle: 1})
	if ready := e.ScheduleOnly(100, ClassDemand); ready != 196 {
		t.Fatalf("ready = %d, want 196", ready)
	}
}

func TestPipelinedIssue(t *testing.T) {
	// Back-to-back requests at the same cycle issue on consecutive cycles
	// (1/cycle) and finish one cycle apart: the pipeline overlaps them.
	e := newEngine(t, Spec{LatencyCycles: 10, IssuePerCycle: 1})
	var readies []uint64
	for i := 0; i < 4; i++ {
		readies = append(readies, e.ScheduleOnly(0, ClassPrediction))
	}
	for i, r := range readies {
		if want := uint64(10 + i); r != want {
			t.Fatalf("request %d ready at %d, want %d", i, r, want)
		}
	}
	if e.Stats().StallCycles != 0+1+2+3 {
		t.Fatalf("stall cycles = %d, want 6", e.Stats().StallCycles)
	}
}

func TestMultiIssue(t *testing.T) {
	e := newEngine(t, Spec{LatencyCycles: 10, IssuePerCycle: 2})
	var readies []uint64
	for i := 0; i < 4; i++ {
		readies = append(readies, e.ScheduleOnly(0, ClassPrediction))
	}
	want := []uint64{10, 10, 11, 11}
	for i := range want {
		if readies[i] != want[i] {
			t.Fatalf("readies = %v, want %v", readies, want)
		}
	}
}

// TestMultiIssueOutOfOrder: requests need not arrive in time order (a
// fetch's demand pad is booked at SeqDone, and the next fetch's guesses
// then arrive earlier). Issue width is slots of one pipeline cycle, not
// independent pipes: once a request has moved the issue cycle to 100,
// two requests arriving at 50 share that cycle's remaining slot and the
// next cycle's, rather than starting at 50.
func TestMultiIssueOutOfOrder(t *testing.T) {
	e := newEngine(t, Spec{LatencyCycles: 10, IssuePerCycle: 2})
	var readies []uint64
	for _, now := range []uint64{100, 50, 50} {
		readies = append(readies, e.ScheduleOnly(now, ClassDemand))
	}
	if want := []uint64{110, 110, 111}; !reflect.DeepEqual(readies, want) {
		t.Fatalf("readies = %v, want %v", readies, want)
	}
}

func TestIdleEngineAcceptsImmediately(t *testing.T) {
	e := newEngine(t, Spec{LatencyCycles: 5, IssuePerCycle: 1})
	r1 := e.ScheduleOnly(0, ClassDemand)
	r2 := e.ScheduleOnly(1000, ClassDemand)
	if r1 != 5 || r2 != 1005 {
		t.Fatalf("r1=%d r2=%d", r1, r2)
	}
	if e.Stats().StallCycles != 0 {
		t.Fatalf("unexpected stalls: %d", e.Stats().StallCycles)
	}
}

func TestClassAccounting(t *testing.T) {
	e := newEngine(t, Spec{LatencyCycles: 1, IssuePerCycle: 4})
	e.ScheduleOnly(0, ClassPrediction)
	e.ScheduleOnly(0, ClassPrediction)
	e.ScheduleOnly(0, ClassDemand)
	e.ScheduleOnly(0, ClassWriteback)
	s := e.Stats()
	if s.Issued[ClassPrediction] != 2 || s.Issued[ClassDemand] != 1 || s.Issued[ClassWriteback] != 1 {
		t.Fatalf("issued = %v", s.Issued)
	}
	if s.IssuedTotal() != 4 {
		t.Fatalf("total = %d", s.IssuedTotal())
	}
}

// TestBatchedGuessesMatchOneAtATime pins the batched guess booking
// against the one-request-at-a-time loop it stands for. Twin
// single-issue engines see the same random traffic: one books each
// guess burst with ScheduleGuesses, the other with one ScheduleOnly per
// guess, and both take identical demand and writeback requests in
// between. They must agree on every match index and ready cycle and end
// with identical Stats, QueueWait histogram included.
func TestBatchedGuessesMatchOneAtATime(t *testing.T) {
	spec := Spec{LatencyCycles: 96, IssuePerCycle: 1}
	batched, single := newEngine(t, spec), newEngine(t, spec)
	r := rng.New(0xba7c4ed)
	var now uint64
	for i := 0; i < 5000; i++ {
		// A third of the requests arrive in the same cycle as their
		// predecessor, so bursts queue behind earlier work.
		now += uint64(r.Intn(3) * r.Intn(60))
		if r.Bool(0.5) {
			guesses := make([]uint64, r.Intn(8))
			for j := range guesses {
				guesses[j] = uint64(r.Intn(10))
			}
			trueSeq := uint64(r.Intn(10))
			idx, ready := batched.ScheduleGuesses(now, guesses, trueSeq)
			wantIdx, wantReady := -1, uint64(0)
			for j, g := range guesses {
				rd := single.ScheduleOnly(now, ClassPrediction)
				if wantIdx < 0 && g == trueSeq {
					wantIdx, wantReady = j, rd
				}
			}
			if idx != wantIdx || ready != wantReady {
				t.Fatalf("request %d: burst %v for %d at %d = (%d, %d), one at a time (%d, %d)",
					i, guesses, trueSeq, now, idx, ready, wantIdx, wantReady)
			}
			continue
		}
		class := ClassDemand
		if r.Bool(0.3) {
			class = ClassWriteback
		}
		if a, b := batched.ScheduleOnly(now, class), single.ScheduleOnly(now, class); a != b {
			t.Fatalf("request %d: %s at %d ready %d after batched bursts, %d after single requests", i, class, now, a, b)
		}
	}
	if got, want := batched.Stats(), single.Stats(); !reflect.DeepEqual(got, want) {
		t.Errorf("stats diverge:\nbatched %+v\nqueue   %v\nsingle  %+v\nqueue   %v", got, got.QueueWait, want, want.QueueWait)
	}
}

func TestScheduleOnlyTiming(t *testing.T) {
	e := newEngine(t, Spec{LatencyCycles: 7, IssuePerCycle: 1})
	if r := e.ScheduleOnly(3, ClassDemand); r != 10 {
		t.Fatalf("ready = %d, want 10", r)
	}
}

// TestDefaultsApplied builds each model from its zero spec: it gets its
// own model's defaults, and the AES pipe's are Table 1's.
func TestDefaultsApplied(t *testing.T) {
	if e := newEngine(t, Spec{}); e.Spec() != DefaultSpec() {
		t.Fatalf("aes defaults not applied: %+v", e.Spec())
	}
	for _, model := range []string{ModelSealer, ModelBipBip} {
		want := Spec{Model: model}.Normalized()
		if got := newEngine(t, Spec{Model: model}).Spec(); got != want {
			t.Errorf("%s from the zero spec: %+v, want %+v", model, got, want)
		}
	}
}

func TestClassString(t *testing.T) {
	for c, want := range map[Class]string{
		ClassPrediction: "prediction",
		ClassDemand:     "demand",
		ClassWriteback:  "writeback",
		Class(99):       "unknown",
	} {
		if got := c.String(); got != want {
			t.Errorf("Class(%d).String() = %q, want %q", c, got, want)
		}
	}
}
