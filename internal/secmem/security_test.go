package secmem

import (
	"errors"
	"testing"

	"ctrpred/internal/dram"
	"ctrpred/internal/faults"
	"ctrpred/internal/integrity"
	"ctrpred/internal/predictor"
)

func newSecurityRig(t *testing.T, policy RecoveryPolicy) *rig {
	t.Helper()
	r := newRig(predictor.SchemeRegular, 0, false)
	r.ctrl.cfg.Recovery = policy
	r.ctrl.cfg.Scheme = "test"
	tree := integrity.New(integrity.DefaultConfig(), dram.New(dram.DefaultConfig()))
	r.ctrl.AttachIntegrity(tree)
	return r
}

func TestHaltRecordsTypedError(t *testing.T) {
	r := newSecurityRig(t, RecoveryHalt)
	r.image.Store(0x1000, 8, 7)
	r.ctrl.FetchLine(0, 0x1000)
	r.ctrl.TamperData(0x1000, 13)
	res := r.ctrl.FetchLine(1000, 0x1000)
	if res.Authentic || res.Recovered {
		t.Fatalf("halt policy produced res = %+v", res)
	}
	err := r.ctrl.SecurityErr()
	if err == nil {
		t.Fatal("no security error recorded")
	}
	if !errors.Is(err, ErrTamperDetected) {
		t.Fatalf("err = %v, want errors.Is(err, ErrTamperDetected)", err)
	}
	var serr *SecurityError
	if !errors.As(err, &serr) {
		t.Fatalf("err %T is not a *SecurityError", err)
	}
	if serr.Kind != KindTamper || serr.LineAddr != 0x1000 || serr.Scheme != "test" {
		t.Fatalf("serr = %+v", serr)
	}
	if serr.Cycle != 1000 {
		t.Fatalf("serr.Cycle = %d, want 1000", serr.Cycle)
	}
}

func TestSecurityErrNilWhenClean(t *testing.T) {
	r := newSecurityRig(t, RecoveryHalt)
	r.ctrl.FetchLine(0, 0x1000)
	// The typed-nil trap: a nil *SecurityError must come back as a nil
	// error interface.
	if err := r.ctrl.SecurityErr(); err != nil {
		t.Fatalf("clean controller returned %v", err)
	}
}

func TestFirstSecurityErrorKept(t *testing.T) {
	r := newSecurityRig(t, RecoveryHalt)
	r.ctrl.FetchLine(0, 0x1000)
	r.ctrl.FetchLine(0, 0x2000)
	r.ctrl.TamperData(0x1000, 1)
	r.ctrl.TamperData(0x2000, 1)
	r.ctrl.FetchLine(100, 0x1000)
	r.ctrl.FetchLine(200, 0x2000)
	var serr *SecurityError
	if !errors.As(r.ctrl.SecurityErr(), &serr) {
		t.Fatal("no security error")
	}
	if serr.LineAddr != 0x1000 {
		t.Fatalf("kept error for %#x, want the first detection (0x1000)", serr.LineAddr)
	}
	if r.ctrl.SecurityStats().Violations != 2 {
		t.Fatalf("violations = %d, want 2", r.ctrl.SecurityStats().Violations)
	}
}

func TestQuarantineHealsAndContinues(t *testing.T) {
	r := newSecurityRig(t, RecoveryQuarantine)
	r.image.Store(0x3000, 8, 99)
	r.ctrl.FetchLine(0, 0x3000)
	r.ctrl.TamperData(0x3000, 21)
	res := r.ctrl.FetchLine(1000, 0x3000)
	if res.Authentic {
		t.Fatal("tampered fetch reported authentic")
	}
	if !res.Recovered {
		t.Fatal("quarantine did not recover the fetch")
	}
	if res.Plain != r.image.LineAt(0x3000) {
		t.Fatal("recovered plaintext differs from the architectural image")
	}
	if err := r.ctrl.SecurityErr(); err != nil {
		t.Fatalf("quarantine recorded a halt error: %v", err)
	}
	s := r.ctrl.SecurityStats()
	if s.Quarantined != 1 || s.Healed != 1 || s.Retries != uint64(DefaultRetryBudget) {
		t.Fatalf("stats = %+v", s)
	}
	// The healed line verifies on the next fetch.
	res = r.ctrl.FetchLine(5000, 0x3000)
	if !res.Authentic || res.Plain != r.image.LineAt(0x3000) {
		t.Fatalf("healed line failed re-fetch: %+v", res)
	}
}

func TestQuarantineRecoveryCostsCycles(t *testing.T) {
	clean := newSecurityRig(t, RecoveryQuarantine)
	dirty := newSecurityRig(t, RecoveryQuarantine)
	clean.ctrl.FetchLine(0, 0x4000)
	dirty.ctrl.FetchLine(0, 0x4000)
	dirty.ctrl.TamperData(0x4000, 3)
	a := clean.ctrl.FetchLine(1000, 0x4000)
	b := dirty.ctrl.FetchLine(1000, 0x4000)
	if b.Done <= a.Done {
		t.Fatalf("recovery was free: clean done %d, recovered done %d", a.Done, b.Done)
	}
}

func TestCounterRollbackDetected(t *testing.T) {
	r := newSecurityRig(t, RecoveryHalt)
	addr := uint64(0x5000)
	r.image.Store(addr, 8, 1)
	r.ctrl.EvictLine(0, addr) // advance the counter past the root
	if !r.ctrl.TamperCounter(addr, 1) {
		t.Fatal("counter rollback refused in counter mode")
	}
	res := r.ctrl.FetchLine(1000, addr)
	if res.Authentic {
		t.Fatal("rolled-back counter accepted")
	}
	if !errors.Is(r.ctrl.SecurityErr(), ErrTamperDetected) {
		t.Fatalf("err = %v", r.ctrl.SecurityErr())
	}
}

// TestRollbackDecryptsUnderStaleCounter: a fetch decrypts under the pad
// of the counter it reads from RAM. The line still holds the pad of its
// legitimate counter, which no longer applies after a rollback, so the
// fetch recomputes the stale counter's pad and sees the wrong plaintext —
// corruption that only the integrity tree (absent here) can catch.
func TestRollbackDecryptsUnderStaleCounter(t *testing.T) {
	r := newRig(predictor.SchemeRegular, 0, false)
	addr := uint64(0x5000)
	r.image.Store(addr, 8, 1)
	r.ctrl.EvictLine(0, addr) // advance the counter past the root
	enc := r.ctrl.EncryptedLine(addr)
	stale := r.ctrl.Seq(addr) - 1
	if !r.ctrl.TamperCounter(addr, 1) {
		t.Fatal("counter rollback refused in counter mode")
	}
	res := r.ctrl.FetchLine(1000, addr)
	if res.TrueSeq != stale {
		t.Fatalf("fetch read counter %d, want the rolled-back %d", res.TrueSeq, stale)
	}
	if want := r.ctrl.ks.DecryptLine(enc, addr, stale); res.Plain != want {
		t.Fatal("fetch after a rollback did not decrypt under the stale counter's pad")
	}
	if res.Plain == r.image.LineAt(addr) {
		t.Fatal("rolled-back fetch decrypted to the architectural contents")
	}
}

func TestRollbackNeverReusesPad(t *testing.T) {
	// After an adversarial rollback, recovery and later writebacks must
	// advance from the last legitimate counter — never re-encrypt under a
	// counter value that already carried data.
	r := newSecurityRig(t, RecoveryQuarantine)
	addr := uint64(0x6000)
	r.image.Store(addr, 8, 1)
	r.ctrl.EvictLine(0, addr)
	seqAfterWriteback := r.ctrl.Seq(addr)
	r.ctrl.TamperCounter(addr, 1)
	r.ctrl.FetchLine(1000, addr) // detect + heal
	if got := r.ctrl.Seq(addr); got <= seqAfterWriteback {
		t.Fatalf("heal re-used counter %d (last legitimate %d)", got, seqAfterWriteback)
	}
	if r.ctrl.Stats().SelfCheckFails != 0 {
		t.Fatalf("pad-reuse check tripped: %+v", r.ctrl.Stats())
	}
}

func TestOversizedRollbackSaturatesAndHealsFresh(t *testing.T) {
	// A rollback larger than the counter's value must saturate to zero,
	// not wrap to ~2^64, and recovery must still pick a fresh counter
	// above the last legitimate one, never a previously used pad.
	r := newSecurityRig(t, RecoveryQuarantine)
	addr := uint64(0xe000)
	r.image.Store(addr, 8, 1)
	r.ctrl.EvictLine(0, addr)
	good := r.ctrl.Seq(addr)
	if !r.ctrl.TamperCounter(addr, good+1000) {
		t.Fatal("oversized rollback refused on a nonzero counter")
	}
	if got := r.ctrl.Seq(addr); got != 0 {
		t.Fatalf("counter = %d after oversized rollback, want 0 (saturated)", got)
	}
	// A zero counter has nothing left to roll back: refuse the no-op so
	// the injector keeps the attack armed instead of counting a phantom
	// injection.
	if r.ctrl.TamperCounter(addr, 1) {
		t.Fatal("rollback of a zero counter applied")
	}
	res := r.ctrl.FetchLine(1000, addr)
	if res.Authentic {
		t.Fatal("rolled-back counter accepted")
	}
	if !res.Recovered {
		t.Fatal("quarantine did not recover the fetch")
	}
	if got := r.ctrl.Seq(addr); got <= good {
		t.Fatalf("heal re-used counter %d (last legitimate %d)", got, good)
	}
	if r.ctrl.PadViolations() != 0 || r.ctrl.Stats().SelfCheckFails != 0 {
		t.Fatalf("recovery violated pad/self-check invariants: %+v", r.ctrl.Stats())
	}
}

func TestSpliceDetected(t *testing.T) {
	r := newSecurityRig(t, RecoveryHalt)
	r.image.Store(0x7000, 8, 1)
	r.image.Store(0x8000, 8, 2)
	r.ctrl.FetchLine(0, 0x7000)
	r.ctrl.FetchLine(0, 0x8000)
	if !r.ctrl.SpliceLines(0x7000, 0x8000) {
		t.Fatal("splice refused")
	}
	if res := r.ctrl.FetchLine(1000, 0x7000); res.Authentic {
		t.Fatal("spliced line accepted")
	}
}

func TestSpliceSameLineRefused(t *testing.T) {
	r := newSecurityRig(t, RecoveryHalt)
	if r.ctrl.SpliceLines(0x7000, 0x7000) {
		t.Fatal("self-splice accepted")
	}
}

func TestTreeNodeCorruptionDetected(t *testing.T) {
	r := newSecurityRig(t, RecoveryHalt)
	r.image.Store(0x9000, 8, 3)
	r.ctrl.FetchLine(0, 0x9000)
	if !r.ctrl.TamperTreeNode(0x9000, 5) {
		t.Fatal("tree-node corruption refused with a tree attached")
	}
	if res := r.ctrl.FetchLine(1000, 0x9000); res.Authentic {
		t.Fatal("fetch with corrupted integrity node accepted")
	}
}

func TestTamperTreeNodeWithoutTree(t *testing.T) {
	r := newRig(predictor.SchemeRegular, 0, false)
	if r.ctrl.TamperTreeNode(0x1000, 0) {
		t.Fatal("tree-node corruption applied without a tree")
	}
}

func TestReplayStaleDetected(t *testing.T) {
	r := newSecurityRig(t, RecoveryHalt)
	addr := uint64(0xa000)
	r.image.Store(addr, 8, 1)
	r.ctrl.FetchLine(0, addr)
	oldEnc := r.ctrl.EncryptedLine(addr)
	oldSeq := r.ctrl.Seq(addr)
	r.image.Store(addr, 8, 2)
	r.ctrl.EvictLine(100, addr) // new pair lands off chip
	if !r.ctrl.ReplayStale(addr, oldEnc, oldSeq) {
		t.Fatal("stale replay refused despite a newer off-chip pair")
	}
	if res := r.ctrl.FetchLine(1000, addr); res.Authentic {
		t.Fatal("replayed stale pair accepted")
	}
}

func TestReplayIdenticalPairRefused(t *testing.T) {
	r := newSecurityRig(t, RecoveryHalt)
	addr := uint64(0xb000)
	r.ctrl.FetchLine(0, addr)
	if r.ctrl.ReplayStale(addr, r.ctrl.EncryptedLine(addr), r.ctrl.Seq(addr)) {
		t.Fatal("replay of the current pair accepted (a no-op, not a replay)")
	}
}

func TestDirectModeTamperTyped(t *testing.T) {
	r := newDirectRig()
	r.ctrl.cfg.Scheme = "direct"
	tree := integrity.New(integrity.DefaultConfig(), dram.New(dram.DefaultConfig()))
	r.ctrl.AttachIntegrity(tree)
	r.image.Store(0x1000, 8, 5)
	r.ctrl.FetchLine(0, 0x1000)
	if r.ctrl.TamperCounter(0x1000, 1) {
		t.Fatal("counter rollback applied in direct mode (no counters exist)")
	}
	r.ctrl.TamperData(0x1000, 9)
	if res := r.ctrl.FetchLine(1000, 0x1000); res.Authentic {
		t.Fatal("tampered direct fetch accepted")
	}
	var serr *SecurityError
	if !errors.As(r.ctrl.SecurityErr(), &serr) || serr.Scheme != "direct" {
		t.Fatalf("err = %v", r.ctrl.SecurityErr())
	}
}

func TestDirectQuarantineRequalifiesWithCounterZero(t *testing.T) {
	// Direct mode keys the integrity tree with counter 0 everywhere; the
	// quarantine re-verify must do the same or a transient fault could
	// never requalify once the rejected pair holds a stray nonzero counter
	// (e.g. from a replayed pair).
	r := newDirectRig()
	r.ctrl.cfg.Recovery = RecoveryQuarantine
	tree := integrity.New(integrity.DefaultConfig(), dram.New(dram.DefaultConfig()))
	r.ctrl.AttachIntegrity(tree)
	addr := uint64(0x2000)
	r.image.Store(addr, 8, 5)
	r.ctrl.FetchLine(0, addr)
	_, ps := r.ctrl.materialize(addr)
	// The off-chip line itself is intact — the model of a transient
	// verification fault that cleared by the re-read — but its counter is
	// stray state; direct mode has no counters.
	plain, _ := r.ctrl.quarantine(1000, addr, 12345, ps)
	if plain != r.image.LineAt(addr) {
		t.Fatal("requalified plaintext differs from the architectural image")
	}
	s := r.ctrl.SecurityStats()
	if s.Requalified != 1 || s.Healed != 0 {
		t.Fatalf("stats = %+v, want a requalification and no heal", s)
	}
}

func TestSelfCheckFailureReturnsTypedError(t *testing.T) {
	// Corrupt the architectural image relative to the off-chip state
	// without forging the line's pair: decryption then mismatches the
	// image, which is the simulator invariant the self-check guards. No
	// panic — a typed *SecurityError wrapping ErrSelfCheckFailed.
	r := newRig(predictor.SchemeRegular, 0, false)
	addr := uint64(0xc000)
	r.image.Store(addr, 8, 1)
	r.ctrl.FetchLine(0, addr) // materialize with image value 1
	r.image.Store(addr, 8, 2) // image changes with no writeback
	res := r.ctrl.FetchLine(1000, addr)
	if res.Plain == r.image.LineAt(addr) {
		t.Fatal("test setup: decryption unexpectedly matches the image")
	}
	if r.ctrl.Stats().SelfCheckFails != 1 {
		t.Fatalf("stats = %+v", r.ctrl.Stats())
	}
	err := r.ctrl.SecurityErr()
	if !errors.Is(err, ErrSelfCheckFailed) {
		t.Fatalf("err = %v, want errors.Is(err, ErrSelfCheckFailed)", err)
	}
}

func TestSelfCheckFailureHaltsEvenUnderQuarantine(t *testing.T) {
	r := newRig(predictor.SchemeRegular, 0, false)
	r.ctrl.cfg.Recovery = RecoveryQuarantine
	addr := uint64(0xd000)
	r.image.Store(addr, 8, 1)
	r.ctrl.FetchLine(0, addr)
	r.image.Store(addr, 8, 2)
	r.ctrl.FetchLine(1000, addr)
	// A self-check failure is an invariant violation, not an attack:
	// quarantine must not mask it.
	if !errors.Is(r.ctrl.SecurityErr(), ErrSelfCheckFailed) {
		t.Fatalf("err = %v", r.ctrl.SecurityErr())
	}
}

// TestConstructorNilPredictorPanics: a nil predictor is a programmer error,
// not a runtime security event, so New documents it as a panic and keeps it
// so even when the rest of the controller is wired up.
func TestConstructorNilPredictorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(nil predictor) did not panic")
		}
	}()
	New(DefaultConfig(), dram.New(dram.DefaultConfig()), nil, nil, nil, nil)
}

func TestInjectorEndToEnd(t *testing.T) {
	r := newSecurityRig(t, RecoveryQuarantine)
	inj := faults.NewInjector(faults.Plan{Attacks: []faults.Attack{
		{Kind: faults.BitFlip, Trigger: faults.Trigger{Fetch: 2}},
	}}, 1)
	r.ctrl.ArmFaults(inj)
	r.image.Store(0x1000, 8, 1)
	r.ctrl.FetchLine(0, 0x1000)
	res := r.ctrl.FetchLine(1000, 0x2000) // fetch 2: bitflip strikes this line
	if res.Authentic {
		t.Fatal("injected bit flip not detected")
	}
	s := inj.Stats()
	if s.Injected[faults.BitFlip] != 1 || s.Detected[faults.BitFlip] != 1 {
		t.Fatalf("injector stats = %+v", s)
	}
	if s.LatencySum[faults.BitFlip] == 0 {
		t.Fatal("detection latency not recorded")
	}
	if r.ctrl.FaultInjector() != inj {
		t.Fatal("FaultInjector accessor mismatch")
	}
}

func TestErrorKindStrings(t *testing.T) {
	if KindTamper.String() != "tamper" || KindSelfCheck.String() != "self-check" {
		t.Fatalf("kind strings: %q %q", KindTamper, KindSelfCheck)
	}
	if RecoveryHalt.String() != "halt" || RecoveryQuarantine.String() != "quarantine" {
		t.Fatalf("policy strings: %q %q", RecoveryHalt, RecoveryQuarantine)
	}
	for _, name := range []string{"halt", "quarantine"} {
		p, err := ParseRecovery(name)
		if err != nil || p.String() != name {
			t.Fatalf("ParseRecovery(%q) = %v, %v", name, p, err)
		}
	}
	if _, err := ParseRecovery("retreat"); err == nil {
		t.Fatal("ParseRecovery accepted an unknown policy")
	}
	serr := &SecurityError{Kind: KindTamper, LineAddr: 0x40, Seq: 3, Cycle: 9, Scheme: "baseline"}
	if serr.Error() == "" || !errors.Is(serr, ErrTamperDetected) {
		t.Fatalf("serr = %v", serr)
	}
}
