package faults

import (
	"testing"

	"ctrpred/internal/ctr"
)

// fakeTarget records adversary calls and lets tests script applicability.
type fakeTarget struct {
	calls        []string
	refuseReplay bool
	refuseCtr    bool
}

func (f *fakeTarget) TamperData(la uint64, bit int) bool {
	f.calls = append(f.calls, "data")
	return true
}
func (f *fakeTarget) TamperCounter(la uint64, delta uint64) bool {
	f.calls = append(f.calls, "counter")
	return !f.refuseCtr
}
func (f *fakeTarget) TamperTreeNode(la uint64, bit int) bool {
	f.calls = append(f.calls, "node")
	return true
}
func (f *fakeTarget) SpliceLines(la, lb uint64) bool {
	f.calls = append(f.calls, "splice")
	return true
}
func (f *fakeTarget) ReplayStale(la uint64, enc ctr.Line, seq uint64) bool {
	f.calls = append(f.calls, "replay")
	return !f.refuseReplay
}

func newTestInjector(p Plan) (*Injector, *fakeTarget) {
	inj := NewInjector(p, 1)
	tgt := &fakeTarget{}
	inj.Bind(tgt)
	return inj, tgt
}

func TestTriggerFetchOrdinal(t *testing.T) {
	inj, tgt := newTestInjector(Plan{Attacks: []Attack{
		{Kind: BitFlip, Trigger: Trigger{Fetch: 3}},
	}})
	inj.BeforeFetch(10, 0x1000)
	inj.BeforeFetch(20, 0x2000)
	if len(tgt.calls) != 0 {
		t.Fatalf("attack fired before its fetch ordinal: %v", tgt.calls)
	}
	inj.BeforeFetch(30, 0x3000)
	if got := inj.Stats().Injected[BitFlip]; got != 1 {
		t.Fatalf("injected = %d after ordinal reached, want 1", got)
	}
	// An attack fires exactly once.
	inj.BeforeFetch(40, 0x4000)
	if got := inj.Stats().Injected[BitFlip]; got != 1 {
		t.Fatalf("attack fired twice: injected = %d", got)
	}
}

func TestTriggerAddrPredicate(t *testing.T) {
	inj, tgt := newTestInjector(Plan{Attacks: []Attack{
		{Kind: BitFlip, Trigger: Trigger{AddrMask: ^uint64(0), AddrMatch: 0x2000}},
	}})
	inj.BeforeFetch(0, 0x1000)
	if len(tgt.calls) != 0 {
		t.Fatal("address-gated attack fired on the wrong line")
	}
	inj.BeforeFetch(1, 0x2000)
	if got := inj.Stats().TotalInjected(); got != 1 {
		t.Fatalf("injected = %d on matching address, want 1", got)
	}
}

func TestTriggerInstrNeedsSource(t *testing.T) {
	inj, _ := newTestInjector(Plan{Attacks: []Attack{
		{Kind: BitFlip, Trigger: Trigger{Instr: 100}},
	}})
	inj.BeforeFetch(0, 0x1000)
	if inj.Stats().TotalInjected() != 0 {
		t.Fatal("instruction trigger fired without an instruction source")
	}
	committed := uint64(50)
	inj.SetInstrSource(func() uint64 { return committed })
	inj.BeforeFetch(1, 0x1000)
	if inj.Stats().TotalInjected() != 0 {
		t.Fatal("instruction trigger fired below the threshold")
	}
	committed = 100
	inj.BeforeFetch(2, 0x1000)
	if inj.Stats().TotalInjected() != 1 {
		t.Fatal("instruction trigger did not fire at the threshold")
	}
}

func TestSpliceNeedsDistinctPartner(t *testing.T) {
	inj, tgt := newTestInjector(Plan{Attacks: []Attack{{Kind: Splice}}})
	inj.BeforeFetch(0, 0x1000) // first fetch: no earlier line to pair with
	if len(tgt.calls) != 0 {
		t.Fatal("splice fired with no partner")
	}
	inj.BeforeFetch(1, 0x2000)
	if inj.Stats().Injected[Splice] != 1 {
		t.Fatal("splice did not fire once a distinct partner existed")
	}
}

func TestReplayWaitsForCapture(t *testing.T) {
	inj, tgt := newTestInjector(Plan{Attacks: []Attack{{Kind: Replay}}})
	inj.BeforeFetch(0, 0x1000)
	if len(tgt.calls) != 0 {
		t.Fatal("replay fired with nothing captured")
	}
	var enc ctr.Line
	enc[0] = 0xee
	inj.ObservePair(0x1000, enc, 5)
	inj.BeforeFetch(1, 0x2000) // different line: still nothing to replay
	if len(tgt.calls) != 0 {
		t.Fatal("replay fired against an uncaptured line")
	}
	inj.BeforeFetch(2, 0x1000)
	if inj.Stats().Injected[Replay] != 1 {
		t.Fatal("replay did not fire against the captured line")
	}
}

func TestObservePairKeepsOldest(t *testing.T) {
	inj, tgt := newTestInjector(Plan{Attacks: []Attack{{Kind: Replay, Trigger: Trigger{Fetch: 2}}}})
	var first, second ctr.Line
	first[0], second[0] = 1, 2
	inj.ObservePair(0x1000, first, 7)
	inj.ObservePair(0x1000, second, 8)
	inj.BeforeFetch(0, 0x1000)
	inj.BeforeFetch(1, 0x1000)
	if inj.Stats().Injected[Replay] != 1 {
		t.Fatal("replay did not fire")
	}
	// The target saw exactly one replay call, with the oldest pair.
	if len(tgt.calls) != 1 || tgt.calls[0] != "replay" {
		t.Fatalf("calls = %v", tgt.calls)
	}
}

func TestInapplicableAttackStaysArmed(t *testing.T) {
	inj, tgt := newTestInjector(Plan{Attacks: []Attack{{Kind: Rollback}}})
	tgt.refuseCtr = true // e.g. direct mode: no counters to roll back
	inj.BeforeFetch(0, 0x1000)
	inj.BeforeFetch(1, 0x2000)
	if inj.Stats().TotalInjected() != 0 {
		t.Fatal("refused attack counted as injected")
	}
	tgt.refuseCtr = false
	inj.BeforeFetch(2, 0x3000)
	if inj.Stats().Injected[Rollback] != 1 {
		t.Fatal("attack did not fire once applicable")
	}
}

func TestDetectionCreditsAndLatency(t *testing.T) {
	inj, _ := newTestInjector(Plan{Attacks: []Attack{
		{Kind: BitFlip},
		{Kind: Rollback},
	}})
	inj.BeforeFetch(100, 0x1000) // both fire on the same line at cycle 100
	if inj.Stats().TotalInjected() != 2 {
		t.Fatalf("stats = %+v", inj.Stats())
	}
	inj.ObserveDetection(0x2000, 150) // wrong line: no credit
	if inj.Stats().TotalDetected() != 0 {
		t.Fatal("detection credited to the wrong line")
	}
	inj.ObserveDetection(0x1000, 150)
	s := inj.Stats()
	if s.TotalDetected() != 2 {
		t.Fatalf("both overlapping corruptions should be credited: %+v", s)
	}
	if s.LatencySum[BitFlip] != 50 || s.LatencySum[Rollback] != 50 {
		t.Fatalf("latency sums = %v, want 50 each", s.LatencySum)
	}
	if s.MeanLatency(BitFlip) != 50 {
		t.Fatalf("mean latency = %v", s.MeanLatency(BitFlip))
	}
	// A second detection of the same line does not double-credit.
	inj.ObserveDetection(0x1000, 200)
	if inj.Stats().TotalDetected() != 2 {
		t.Fatal("detection credited twice")
	}
}

func TestDetectionRateVacuous(t *testing.T) {
	var s Stats
	if r := s.DetectionRate(Replay); r != 1 {
		t.Fatalf("vacuous detection rate = %v, want 1", r)
	}
	s.Injected[Replay] = 2
	s.Detected[Replay] = 1
	if r := s.DetectionRate(Replay); r != 0.5 {
		t.Fatalf("detection rate = %v, want 0.5", r)
	}
}

func TestParsePlan(t *testing.T) {
	p, err := ParsePlan("bitflip@fetch:100,replay@instr:50000@addr:0x1f000,rollback@addr:0x2000/0xff000,nodecorrupt@cycle:9")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Attacks) != 4 {
		t.Fatalf("parsed %d attacks, want 4", len(p.Attacks))
	}
	a := p.Attacks[0]
	if a.Kind != BitFlip || a.Trigger.Fetch != 100 {
		t.Fatalf("attack 0 = %+v", a)
	}
	a = p.Attacks[1]
	if a.Kind != Replay || a.Trigger.Instr != 50000 ||
		a.Trigger.AddrMatch != 0x1f000 || a.Trigger.AddrMask != ^uint64(0) {
		t.Fatalf("attack 1 = %+v", a)
	}
	a = p.Attacks[2]
	if a.Kind != Rollback || a.Trigger.AddrMatch != 0x2000 || a.Trigger.AddrMask != 0xff000 {
		t.Fatalf("attack 2 = %+v", a)
	}
	if p.Attacks[3].Kind != NodeCorrupt || p.Attacks[3].Trigger.Cycle != 9 {
		t.Fatalf("attack 3 = %+v", p.Attacks[3])
	}
}

func TestParsePlanErrors(t *testing.T) {
	for _, bad := range []string{
		"",                  // empty plan
		"meltdown",          // unknown kind
		"bitflip@when:5",    // unknown condition
		"bitflip@fetch",     // condition without value
		"bitflip@fetch:xyz", // bad number
	} {
		if _, err := ParsePlan(bad); err == nil {
			t.Errorf("ParsePlan(%q) accepted", bad)
		}
	}
}

func TestParseKindRoundTrip(t *testing.T) {
	for _, k := range Kinds() {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Fatalf("ParseKind(%q) = %v, %v", k.String(), got, err)
		}
	}
	if _, err := ParseKind("nope"); err == nil {
		t.Fatal("ParseKind accepted an unknown name")
	}
}
