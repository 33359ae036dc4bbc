package sim

import (
	"testing"

	"ctrpred/internal/ctr"
	"ctrpred/internal/faults"
	"ctrpred/internal/predictor"
	"ctrpred/internal/workload"
)

// TestSteadyStateAccessAllocFree pins the memory-system hot path: once a
// working set is resident, loads and stores that hit in the L2 must not
// allocate. The two addresses alias in the direct-mapped L1D (8 KiB
// apart) so every access misses L1 and exercises the L2-hit path, the
// common case in every measured run. Periodic flushing is disabled so the
// measured region contains no batch writebacks.
func TestSteadyStateAccessAllocFree(t *testing.T) {
	cfg := DefaultConfig(SchemePred(predictor.SchemeContext))
	cfg.Scale = workload.Scale{Footprint: 1 << 16, Instructions: 1_000}
	cfg.Mem.FlushInterval = 0
	m, err := NewMachine("mcf", cfg)
	if err != nil {
		t.Fatal(err)
	}

	a := uint64(1 << 20)
	b := a + uint64(cfg.Mem.L1DSize) // same L1 set, different L2 set
	now := m.Sys.Access(0, a, false)
	now = m.Sys.Access(now, b, false)
	now = m.Sys.Access(now, a, true)
	now = m.Sys.Access(now, b, true)

	if n := testing.AllocsPerRun(500, func() {
		now = m.Sys.Access(now, a, false)
		now = m.Sys.Access(now, b, false)
		now = m.Sys.Access(now, a, true)
		now = m.Sys.Access(now, b, true)
	}); n != 0 {
		t.Errorf("steady-state L2-hit access allocates %v times per run, want 0", n)
	}
}

// TestSteadyStateMissAllocFree pins the counter-mode fetch and
// writeback paths: five stores whose lines share one L2 set (64 KiB
// apart) and one L1D set cycle through the 4-way L2, so every store
// misses the L2, fetches and decrypts its line, and evicts a dirty line,
// which re-encrypts under a fresh pad. Self-check is off because its
// pad tracker's table doubles as it records new pads, an amortized
// growth this guard does not pin.
func TestSteadyStateMissAllocFree(t *testing.T) {
	cfg := DefaultConfig(SchemePred(predictor.SchemeContext))
	cfg.Scale = workload.Scale{Footprint: 1 << 16, Instructions: 1_000}
	cfg.Mem.FlushInterval = 0
	cfg.SelfCheck = false
	m, err := NewMachine("mcf", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	stride := uint64(cfg.Mem.L2Size / cfg.Mem.L2Ways)
	var now uint64
	cycle := func() {
		for i := range uint64(cfg.Mem.L2Ways + 1) {
			now = m.Sys.Access(now, 1<<20+i*stride, true)
		}
	}
	cycle()
	cycle()
	before := m.Ctrl.Stats()
	if n := testing.AllocsPerRun(200, cycle); n != 0 {
		t.Errorf("steady-state L2-miss fetch and writeback allocate %v times per run, want 0", n)
	}
	after := m.Ctrl.Stats()
	if after.Fetches == before.Fetches || after.Evictions == before.Evictions {
		t.Fatalf("measured loop fetched %d and evicted %d lines, want both > 0",
			after.Fetches-before.Fetches, after.Evictions-before.Evictions)
	}
}

// TestPadOnStackAllocFree pins pad generation to the caller's stack: a
// pad declared inside the measured function must stay there, although
// the AES kernel is reached through an interface that would move any
// buffer handed to it to the heap.
func TestPadOnStackAllocFree(t *testing.T) {
	ks := ctr.NewKeystream(machineKey(1))
	if n := testing.AllocsPerRun(100, func() {
		var pad ctr.Pad
		ks.PadInto(&pad, 1<<20, 42)
		sinkByte ^= pad[0]
	}); n != 0 {
		t.Errorf("PadInto into a stack pad allocates %v times per run, want 0", n)
	}
}

// TestDirectCipherAllocFree pins direct-mode encryption, which runs on
// every fetch and writeback of a direct-mode machine, to the stack.
func TestDirectCipherAllocFree(t *testing.T) {
	dc := ctr.NewDirectCipher(machineKey(1))
	if n := testing.AllocsPerRun(100, func() {
		var plain ctr.Line
		plain[0] = 1
		enc := dc.EncryptLine(plain, 1<<20)
		dec := dc.DecryptLine(enc, 1<<20)
		sinkByte ^= dec[0]
	}); n != 0 {
		t.Errorf("DirectCipher round trip allocates %v times per run, want 0", n)
	}
}

var sinkByte byte

// TestHitRateSteadyStateAllocs pins the per-run allocation behavior the
// functional-mode sweeps depend on: once the (benchmark, scale, seed)
// template is cached, every further run attaches copy-on-write views and
// recycles its pages through the template's free lists on Close, so the
// steady-state cost is a few hundred small allocations (machine wiring),
// not megabytes of line-state tables. Measured ~340 allocs/run; the
// bound leaves an order of magnitude of headroom so it only trips on a
// real regression (e.g. a path that stops releasing pages or rebuilds
// the template per run).
func TestHitRateSteadyStateAllocs(t *testing.T) {
	cfg := DefaultConfig(SchemePred(predictor.SchemeRegular)).WithMode(HitRate)
	cfg.Scale = workload.Scale{Footprint: 1 << 20, Instructions: 200_000}
	cfg.SelfCheck = false
	// Warm the template cache and the page free lists.
	if _, err := Run("mcf", cfg); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(5, func() {
		if _, err := Run("mcf", cfg); err != nil {
			t.Error(err)
		}
	})
	t.Logf("steady-state allocs/run = %.0f", avg)
	if avg > 5000 {
		t.Fatalf("steady-state HitRate run allocates %.0f objects; the template/arena path should stay in the hundreds", avg)
	}
}

// TestCountersOnlyGating pins when sim selects the controller's
// counters-only model: functional mode with nothing needing the
// plaintext path — and never in performance mode, under self-check,
// integrity, faults, or direct encryption, all of which need real
// ciphertext.
func TestCountersOnlyGating(t *testing.T) {
	base := DefaultConfig(SchemePred(predictor.SchemeRegular)).WithMode(HitRate)
	base.Scale = workload.Scale{Footprint: 1 << 18, Instructions: 1000}
	base.SelfCheck = false

	cases := []struct {
		name string
		mut  func(*Config)
		want bool
	}{
		{"hitrate", func(c *Config) {}, true},
		{"performance", func(c *Config) { c.Mode = Performance }, false},
		{"selfcheck", func(c *Config) { c.SelfCheck = true }, false},
		{"integrity", func(c *Config) { c.Integrity = true }, false},
		{"faults", func(c *Config) {
			c.Faults = &faults.Plan{Attacks: []faults.Attack{{Kind: faults.BitFlip, Trigger: faults.Trigger{Fetch: 10}}}}
		}, false},
		{"direct", func(c *Config) { c.Scheme = SchemeDirect() }, false},
	}
	for _, tc := range cases {
		cfg := base
		tc.mut(&cfg)
		m, err := NewMachine("gzip", cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := m.Ctrl.CountersOnly(); got != tc.want {
			t.Errorf("%s: CountersOnly = %v, want %v", tc.name, got, tc.want)
		}
		m.Close()
	}
}
