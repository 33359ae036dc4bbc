package sim

import (
	"context"
	"errors"
	"testing"
	"time"

	"ctrpred/internal/predictor"
	"ctrpred/internal/workload"
)

func testConfig(s Scheme) Config {
	cfg := DefaultConfig(s)
	cfg.Scale = workload.TestScale()
	// Small L2 so tiny test footprints still miss.
	cfg.Mem.L2Size = 16 << 10
	cfg.Mem.FlushInterval = 20_000
	return cfg
}

func TestAllBenchmarksRunAllSchemes(t *testing.T) {
	schemes := []Scheme{
		SchemeBaseline(),
		SchemeSeqCache(4 << 10),
		SchemePred(predictor.SchemeRegular),
		SchemePred(predictor.SchemeTwoLevel),
		SchemePred(predictor.SchemeContext),
		SchemeCombined(4<<10, predictor.SchemeRegular),
		SchemeOracle(),
	}
	for _, bench := range workload.Names() {
		for _, sch := range schemes {
			res, err := Run(bench, testConfig(sch))
			if err != nil {
				t.Fatalf("%s/%s: %v", bench, sch.Name, err)
			}
			if res.CPU.Instructions == 0 {
				t.Fatalf("%s/%s: executed no instructions", bench, sch.Name)
			}
			if res.PadViolations != 0 {
				t.Fatalf("%s/%s: %d pad violations", bench, sch.Name, res.PadViolations)
			}
			if res.Ctrl.SelfCheckFails != 0 {
				t.Fatalf("%s/%s: self-check failures", bench, sch.Name)
			}
			if res.Ctrl.Fetches == 0 {
				t.Fatalf("%s/%s: no memory fetches — workload too small to measure", bench, sch.Name)
			}
		}
	}
}

func TestHitRateModeMatchesFetchDynamics(t *testing.T) {
	// HitRate and Performance modes must see the same access stream,
	// hence closely similar fetch/prediction counts.
	perf, err := Run("mcf", testConfig(SchemePred(predictor.SchemeRegular)))
	if err != nil {
		t.Fatal(err)
	}
	hr, err := Run("mcf", testConfig(SchemePred(predictor.SchemeRegular)).WithMode(HitRate))
	if err != nil {
		t.Fatal(err)
	}
	if hr.Ctrl.Fetches == 0 {
		t.Fatal("hit-rate mode saw no fetches")
	}
	ratio := float64(hr.Ctrl.Fetches) / float64(perf.Ctrl.Fetches)
	if ratio < 0.9 || ratio > 1.1 {
		t.Fatalf("fetch counts diverge: perf=%d hitrate=%d", perf.Ctrl.Fetches, hr.Ctrl.Fetches)
	}
}

func TestOracleFastestPredictionBeatsBaseline(t *testing.T) {
	// The ordering the whole paper rests on, on a pointer-chasing
	// read-mostly kernel: oracle ≥ prediction > baseline.
	base, _ := Run("mcf", testConfig(SchemeBaseline()))
	pred, _ := Run("mcf", testConfig(SchemePred(predictor.SchemeRegular)))
	orac, _ := Run("mcf", testConfig(SchemeOracle()))
	if !(orac.IPC() >= pred.IPC()) {
		t.Fatalf("oracle IPC %.3f < pred IPC %.3f", orac.IPC(), pred.IPC())
	}
	if !(pred.IPC() > base.IPC()) {
		t.Fatalf("pred IPC %.3f not above baseline %.3f", pred.IPC(), base.IPC())
	}
}

func TestPredictionRateHighOnReadMostly(t *testing.T) {
	res, _ := Run("mcf", testConfig(SchemePred(predictor.SchemeRegular)).WithMode(HitRate))
	if res.PredRate() < 0.9 {
		t.Fatalf("mcf prediction rate = %.3f, want ≳0.9 (read-mostly)", res.PredRate())
	}
}

func TestContextBeatsRegularOnWriteHeavy(t *testing.T) {
	cfg := testConfig(SchemePred(predictor.SchemeRegular)).WithMode(HitRate)
	reg, _ := Run("gzip", cfg)
	cfgCtx := testConfig(SchemePred(predictor.SchemeContext)).WithMode(HitRate)
	ctx, _ := Run("gzip", cfgCtx)
	if ctx.PredRate() < reg.PredRate() {
		t.Fatalf("context rate %.3f below regular %.3f on gzip", ctx.PredRate(), reg.PredRate())
	}
}

func TestSeqCacheSizeMonotone(t *testing.T) {
	small, _ := Run("mcf", testConfig(SchemeSeqCache(1<<10)).WithMode(HitRate))
	big, _ := Run("mcf", testConfig(SchemeSeqCache(64<<10)).WithMode(HitRate))
	if big.SeqHitRate() < small.SeqHitRate() {
		t.Fatalf("bigger seq cache worse: %v vs %v", big.SeqHitRate(), small.SeqHitRate())
	}
}

func TestSchemeNames(t *testing.T) {
	cases := map[string]Scheme{
		"baseline":                  SchemeBaseline(),
		"oracle":                    SchemeOracle(),
		"seqcache-128K":             SchemeSeqCache(128 << 10),
		"pred-regular":              SchemePred(predictor.SchemeRegular),
		"pred-context":              SchemePred(predictor.SchemeContext),
		"seqcache-32K+pred-regular": SchemeCombined(32<<10, predictor.SchemeRegular),
	}
	for want, s := range cases {
		if s.Name != want {
			t.Errorf("scheme name %q, want %q", s.Name, want)
		}
	}
}

func TestSchemeLabelSubKiB(t *testing.T) {
	// Sub-1-KiB capacities used to truncate to the nonsensical "0K".
	cases := map[string]string{
		SchemeSeqCache(512).Name:                             "seqcache-512B",
		SchemeSeqCache(1).Name:                               "seqcache-1B",
		SchemeSeqCache(1 << 10).Name:                         "seqcache-1K",
		SchemeSeqCache(1 << 20).Name:                         "seqcache-1024K",
		SchemeCombined(768, predictor.SchemeRegular).Name:    "seqcache-768B+pred-regular",
		SchemeCombined(32<<10, predictor.SchemeContext).Name: "seqcache-32K+pred-context",
	}
	for got, want := range cases {
		if got != want {
			t.Errorf("scheme label %q, want %q", got, want)
		}
	}
	if sizeLabel(1023) != "1023B" || sizeLabel(1024) != "1K" || sizeLabel(2048) != "2K" {
		t.Error("sizeLabel boundary wrong")
	}
}

func TestWithL2AndMode(t *testing.T) {
	cfg := DefaultConfig(SchemeBaseline()).WithL2(1 << 20).WithMode(HitRate)
	if cfg.Mem.L2Size != 1<<20 || cfg.Mem.L2Latency() != 8 || cfg.Mode != HitRate {
		t.Fatalf("cfg = %+v", cfg)
	}
	if Performance.String() != "performance" || HitRate.String() != "hitrate" {
		t.Fatal("mode strings wrong")
	}
}

func TestUnknownBenchmark(t *testing.T) {
	if _, err := Run("nonesuch", testConfig(SchemeBaseline())); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestResultPlumbing(t *testing.T) {
	res, err := Run("swim", testConfig(SchemeCombined(4<<10, predictor.SchemeRegular)))
	if err != nil {
		t.Fatal(err)
	}
	if res.SeqCache == nil {
		t.Fatal("combined scheme missing seq-cache stats")
	}
	if res.L2.Accesses == 0 || res.DRAM.Reads == 0 || res.Engine.IssuedTotal() == 0 {
		t.Fatalf("stats not plumbed: %+v", res)
	}
	if res.Benchmark != "swim" || res.Mode != Performance {
		t.Fatalf("metadata wrong: %+v", res)
	}
}

func TestDeterministicResults(t *testing.T) {
	a, _ := Run("twolf", testConfig(SchemePred(predictor.SchemeContext)))
	b, _ := Run("twolf", testConfig(SchemePred(predictor.SchemeContext)))
	if a.CPU.Cycles != b.CPU.Cycles || a.Pred.Hits != b.Pred.Hits {
		t.Fatalf("nondeterministic results: %+v vs %+v", a.CPU, b.CPU)
	}
}

func TestCustomPredictorConfig(t *testing.T) {
	pc := predictor.DefaultConfig()
	pc.Depth = 0 // only the root guess
	s := SchemePred(predictor.SchemeRegular)
	s.PredConfig = &pc
	res, err := Run("swim", testConfig(s).WithMode(HitRate))
	if err != nil {
		t.Fatal(err)
	}
	wide, _ := Run("swim", testConfig(SchemePred(predictor.SchemeRegular)).WithMode(HitRate))
	if res.Pred.Guesses >= wide.Pred.Guesses {
		t.Fatalf("depth-0 made %d guesses vs depth-5 %d", res.Pred.Guesses, wide.Pred.Guesses)
	}
}

func TestIntegrityPlumbing(t *testing.T) {
	cfg := testConfig(SchemePred(predictor.SchemeRegular)).WithIntegrity()
	res, err := Run("mcf", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Integrity == nil {
		t.Fatal("integrity stats missing")
	}
	if res.Integrity.Verifies == 0 || res.Integrity.Updates == 0 {
		t.Fatalf("tree idle: %+v", res.Integrity)
	}
	if res.Integrity.TamperDetected != 0 {
		t.Fatalf("false tamper alarms: %d", res.Integrity.TamperDetected)
	}
	// Verification costs cycles: same run without the tree is faster.
	plain, err := Run("mcf", testConfig(SchemePred(predictor.SchemeRegular)))
	if err != nil {
		t.Fatal(err)
	}
	if res.CPU.Cycles <= plain.CPU.Cycles {
		t.Fatalf("tree run (%d cycles) not slower than plain (%d)", res.CPU.Cycles, plain.CPU.Cycles)
	}
	if plain.Integrity != nil {
		t.Fatal("plain run reports integrity stats")
	}
}

// pollCountdownCtx is a context whose Err flips to Canceled after a
// fixed number of Err() calls — a deterministic stand-in for "the caller
// cancelled mid-run" that lets the checkpoint-promptness bound be
// asserted exactly.
type pollCountdownCtx struct {
	context.Context
	remaining int
}

func (c *pollCountdownCtx) Done() <-chan struct{} { return make(chan struct{}) }

func (c *pollCountdownCtx) Err() error {
	if c.remaining <= 0 {
		return context.Canceled
	}
	c.remaining--
	return nil
}

func TestRunContextCancelWithinOneInterval(t *testing.T) {
	const interval = 1_000
	for _, mode := range []Mode{Performance, HitRate} {
		cfg := testConfig(SchemeBaseline()).WithMode(mode)
		cfg.CheckInterval = interval
		cfg.Scale.Instructions = 200_000
		// RunContext calls Err once on entry, then once per checkpoint:
		// budget 1 entry call + 3 clean polls, so the 4th checkpoint stops
		// the run.
		ctx := &pollCountdownCtx{Context: context.Background(), remaining: 4}
		res, err := RunContext(ctx, "mcf", cfg)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("mode %v: err = %v, want context.Canceled", mode, err)
		}
		// HitRate mode widens the instruction window, so normalize: the
		// run must have stopped at the 4th checkpoint, within one
		// commit-width of 4 intervals, far short of the budget.
		got := res.CPU.Instructions
		if got < 3*interval || got > 4*interval+8 {
			t.Fatalf("mode %v: stopped at %d instructions, want ~%d (within one checkpoint interval)",
				mode, got, 4*interval)
		}
	}
}

func TestRunContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RunContext(ctx, "mcf", testConfig(SchemeBaseline()))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res.CPU.Instructions != 0 {
		t.Fatalf("pre-cancelled run executed %d instructions", res.CPU.Instructions)
	}
}

func TestRunContextDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	time.Sleep(time.Millisecond) // make sure the deadline has passed
	cfg := testConfig(SchemeBaseline())
	cfg.Scale.Instructions = 500_000
	_, err := RunContext(ctx, "mcf", cfg)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

func TestRunMatchesRunContextBackground(t *testing.T) {
	cfg := testConfig(SchemePred(predictor.SchemeRegular))
	a, err := Run("mcf", cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunContext(context.Background(), "mcf", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.CPU.Cycles != b.CPU.Cycles || a.Ctrl.Fetches != b.Ctrl.Fetches || a.Pred.Hits != b.Pred.Hits {
		t.Fatalf("Run and RunContext(Background) diverge:\n%+v\nvs\n%+v", a.CPU, b.CPU)
	}
}

func TestResultSnapshot(t *testing.T) {
	res, err := Run("swim", testConfig(SchemeCombined(4<<10, predictor.SchemeRegular)).WithIntegrity())
	if err != nil {
		t.Fatal(err)
	}
	snap := res.Snapshot()
	if snap.Name != "run" {
		t.Fatalf("root name %q", snap.Name)
	}
	cpu := snap.Lookup("cpu")
	if cpu == nil {
		t.Fatal("snapshot missing cpu child")
	}
	if v, ok := cpu.CounterValue("instructions"); !ok || v != res.CPU.Instructions {
		t.Fatalf("cpu.instructions = %d, %v; want %d", v, ok, res.CPU.Instructions)
	}
	for _, child := range []string{"controller", "predictor", "engine", "dram", "hierarchy", "l1d", "l2", "seqcache", "integrity"} {
		if snap.Lookup(child) == nil {
			t.Fatalf("snapshot missing %s child", child)
		}
	}
	// Schemes without a seq cache / tree must omit the optional children.
	plain, err := Run("swim", testConfig(SchemeBaseline()))
	if err != nil {
		t.Fatal(err)
	}
	if s := plain.Snapshot(); s.Lookup("seqcache") != nil || s.Lookup("integrity") != nil {
		t.Fatal("baseline snapshot has optional children")
	}
	// The tree serializes without error and is byte-stable.
	j1, err := snap.JSON()
	if err != nil {
		t.Fatal(err)
	}
	j2, err := res.Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(j1) != string(j2) {
		t.Fatal("snapshot JSON not reproducible")
	}
}

func TestContextSwitchPlumbing(t *testing.T) {
	cfg := testConfig(SchemeSeqCache(4 << 10))
	cfg.Mem.ContextSwitchInterval = 10_000
	res, err := Run("mcf", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Hierarchy.ContextSwitches == 0 {
		t.Fatal("no context switches occurred")
	}
	if res.PadViolations != 0 || res.Ctrl.SelfCheckFails != 0 {
		t.Fatal("correctness violated under context switching")
	}
}
