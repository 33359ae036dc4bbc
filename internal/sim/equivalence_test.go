package sim

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ctrpred/internal/faults"
	"ctrpred/internal/predictor"
	"ctrpred/internal/rng"
	"ctrpred/internal/secmem"
	"ctrpred/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/equivalence.golden")

const equivalenceGolden = "equivalence.golden"

// equivalenceCase is one frozen configuration of TestEquivalenceGolden.
type equivalenceCase struct {
	name  string
	bench string
	cfg   Config
}

// equivalenceCases returns the configurations TestEquivalenceGolden pins.
// The first fourteen come from a seeded random draw over benchmarks,
// schemes, modes, self-check and integrity, plus armed fault plans under
// quarantine recovery. The rest reach paths that draw barely touches:
// interior-node corruption (alone and after a replay), direct
// encryption with integrity, direct-mode tamper healing, and the
// counters-only hit-rate model under every counter-availability scheme.
func equivalenceCases() []equivalenceCase {
	var cases []equivalenceCase
	benches := []string{"gzip", "mcf", "gcc", "twolf", "swim"}
	schemes := []Scheme{
		SchemeBaseline(),
		SchemeOracle(),
		SchemePred(predictor.SchemeRegular),
		SchemePred(predictor.SchemeTwoLevel),
		SchemePred(predictor.SchemeContext),
		SchemeSeqCache(32 << 10),
		SchemeCombined(64<<10, predictor.SchemeRegular),
		SchemeDirect(),
	}
	r := rng.New(0x5eed_e901)
	for i := 0; i < 10; i++ {
		bench := benches[r.Intn(len(benches))]
		cfg := DefaultConfig(schemes[r.Intn(len(schemes))])
		cfg.Scale = workload.Scale{
			Footprint:    (256 + r.Intn(768)) << 10,
			Instructions: uint64(100_000 + r.Intn(100_000)),
		}
		cfg.Seed = r.Uint64()
		if r.Bool(0.5) {
			cfg.Mode = HitRate
		}
		cfg.SelfCheck = r.Bool(0.5)
		if r.Bool(0.25) && !cfg.Scheme.Direct {
			cfg.Integrity = true
		}
		name := fmt.Sprintf("%02d-%s-%s-mode%d-sc%v-int%v",
			i, bench, cfg.Scheme.Name, cfg.Mode, cfg.SelfCheck, cfg.Integrity)
		cases = append(cases, equivalenceCase{name, bench, cfg})
	}

	// Adversarial draws: integrity on so every attack is detected,
	// quarantine recovery so the runs complete.
	kinds := []faults.Kind{faults.BitFlip, faults.Splice, faults.Rollback}
	for i := 0; i < 4; i++ {
		bench := benches[r.Intn(len(benches))]
		cfg := DefaultConfig(SchemePred(predictor.SchemeRegular))
		cfg.Scale = workload.Scale{
			Footprint:    (256 + r.Intn(256)) << 10,
			Instructions: uint64(100_000 + r.Intn(50_000)),
		}
		cfg.Seed = r.Uint64()
		cfg.Integrity = true
		cfg.Recovery = secmem.RecoveryQuarantine
		kind := kinds[r.Intn(len(kinds))]
		cfg.Faults = &faults.Plan{Attacks: []faults.Attack{
			{Kind: kind, Trigger: faults.Trigger{Fetch: uint64(10 + r.Intn(200))}},
		}}
		cases = append(cases, equivalenceCase{fmt.Sprintf("faults-%02d-%s-%s", i, bench, kind), bench, cfg})
	}

	// The draw above never corrupts a tree node; these two do, so the
	// tree's CorruptPath ordering against pending updates is frozen too.
	nodeCorrupt := DefaultConfig(SchemePred(predictor.SchemeContext)).
		WithIntegrity().WithRecovery(secmem.RecoveryQuarantine).WithSeed(77)
	nodeCorrupt.Scale = workload.Scale{Footprint: 256 << 10, Instructions: 120_000}
	nodeCorrupt.Faults = &faults.Plan{Attacks: []faults.Attack{
		{Kind: faults.NodeCorrupt, Trigger: faults.Trigger{Fetch: 40}},
		{Kind: faults.NodeCorrupt, Trigger: faults.Trigger{Fetch: 120}},
	}}
	cases = append(cases, equivalenceCase{"faults-nodecorrupt-swim", "swim", nodeCorrupt})

	replay := DefaultConfig(SchemePred(predictor.SchemeRegular)).WithL2(64 << 10).
		WithIntegrity().WithRecovery(secmem.RecoveryQuarantine).WithSeed(77)
	replay.Scale = workload.Scale{Footprint: 256 << 10, Instructions: 200_000}
	replay.Mem.FlushInterval = 20_000
	replay.Faults = &faults.Plan{Attacks: []faults.Attack{
		{Kind: faults.Replay, Trigger: faults.Trigger{Fetch: 50}},
		{Kind: faults.NodeCorrupt, Trigger: faults.Trigger{Fetch: 90}},
	}}
	cases = append(cases, equivalenceCase{"faults-replay-nodecorrupt-bzip2", "bzip2", replay})

	direct := DefaultConfig(SchemeDirect()).WithIntegrity()
	direct.Scale = workload.Scale{Footprint: 512 << 10, Instructions: 120_000}
	cases = append(cases, equivalenceCase{"direct-swim-integrity", "swim", direct})

	heal := DefaultConfig(SchemeDirect()).WithIntegrity().WithRecovery(secmem.RecoveryQuarantine)
	heal.Scale = workload.Scale{Footprint: 256 << 10, Instructions: 150_000}
	heal.Faults = &faults.Plan{Attacks: []faults.Attack{
		{Kind: faults.BitFlip, Trigger: faults.Trigger{Fetch: 50}},
		{Kind: faults.Splice, Trigger: faults.Trigger{Fetch: 120}},
	}}
	cases = append(cases, equivalenceCase{"direct-twolf-quarantine", "twolf", heal})

	for _, s := range []Scheme{
		SchemeBaseline(),
		SchemeOracle(),
		SchemePred(predictor.SchemeRegular),
		SchemePred(predictor.SchemeTwoLevel),
		SchemePred(predictor.SchemeContext),
		SchemeCombined(32<<10, predictor.SchemeContext),
	} {
		cfg := DefaultConfig(s).WithMode(HitRate)
		cfg.Scale = workload.Scale{Footprint: 1 << 20, Instructions: 150_000}
		cfg.SelfCheck = false
		cases = append(cases, equivalenceCase{"ctronly-bzip2-" + s.Name, "bzip2", cfg})
	}
	return cases
}

// TestEquivalenceGolden pins the full Result.Snapshot of every
// equivalenceCases configuration by sha256 against
// testdata/equivalence.golden: one "name digest" line per case. Any
// change to timing, statistics or recovery behavior on these paths shows
// up as a digest mismatch. Regenerate with
//
//	go test ./internal/sim -run TestEquivalenceGolden -update
//
// only when an intentional modeling change alters the numbers.
func TestEquivalenceGolden(t *testing.T) {
	want := map[string]string{}
	if !*updateGolden {
		want = readEquivalenceGolden(t)
	}
	cases := equivalenceCases()
	var out bytes.Buffer
	for _, tc := range cases {
		var digest string
		t.Run(tc.name, func(t *testing.T) {
			res, err := Run(tc.bench, tc.cfg)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			js, err := res.Snapshot().JSON()
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(js)
			digest = hex.EncodeToString(sum[:])
			if *updateGolden {
				return
			}
			if w, ok := want[tc.name]; !ok {
				t.Errorf("no digest in %s (run with -update)", equivalenceGolden)
			} else if digest != w {
				t.Errorf("snapshot digest %s, golden %s", digest, w)
			}
		})
		fmt.Fprintf(&out, "%s %s\n", tc.name, digest)
	}
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join("testdata", equivalenceGolden), out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if len(want) != len(cases) {
		t.Errorf("%s holds %d digests, want %d (run with -update)", equivalenceGolden, len(want), len(cases))
	}
}

func readEquivalenceGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", equivalenceGolden))
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, digest, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("malformed golden line %q", sc.Text())
		}
		want[name] = digest
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestCountersOnlyMatchesFullModel pins the counters-only model against
// the full ciphertext model. The same hit-rate run with self-check off
// skips the controller's payload stage; with self-check on it runs it.
// The payload stage moves data bits, never time or statistics, so the
// two snapshots must be byte-identical.
func TestCountersOnlyMatchesFullModel(t *testing.T) {
	schemes := []Scheme{
		SchemeBaseline(),
		SchemePred(predictor.SchemeContext),
		SchemeCombined(64<<10, predictor.SchemeRegular),
		SchemeOracle(),
	}
	for _, bench := range []string{"gzip", "mcf", "swim"} {
		for _, s := range schemes {
			t.Run(bench+"/"+s.Name, func(t *testing.T) {
				cfg := DefaultConfig(s).WithMode(HitRate)
				cfg.Scale = workload.Scale{Footprint: 512 << 10, Instructions: 100_000}
				cfg.SelfCheck = false
				countersOnly := runSnapshotJSON(t, bench, cfg, true)
				cfg.SelfCheck = true
				full := runSnapshotJSON(t, bench, cfg, false)
				if countersOnly != full {
					t.Errorf("counters-only snapshot diverges from the full model\ncounters-only:\n%s\nfull:\n%s", countersOnly, full)
				}
			})
		}
	}
}

// runSnapshotJSON runs bench under cfg, requiring the controller to run
// the counters-only model exactly when countersOnly is set, and returns
// the result's snapshot JSON.
func runSnapshotJSON(t *testing.T, bench string, cfg Config, countersOnly bool) string {
	t.Helper()
	m, err := NewMachine(bench, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if got := m.Ctrl.CountersOnly(); got != countersOnly {
		t.Fatalf("CountersOnly = %v, want %v", got, countersOnly)
	}
	res, err := m.RunContext(context.Background())
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	js, err := res.Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	return string(js)
}

// TestCheckpointPromptness pins the RunContext cancellation contract in
// both modes: a context cancel is observed within one CheckInterval of
// committed instructions, not at run granularity, and the partial
// result reflects where the run actually stopped.
func TestCheckpointPromptness(t *testing.T) {
	for _, mode := range []Mode{Performance, HitRate} {
		name := "performance"
		if mode == HitRate {
			name = "hitrate"
		}
		t.Run(name, func(t *testing.T) {
			const interval = 10_000
			cfg := DefaultConfig(SchemePred(predictor.SchemeRegular)).WithMode(mode)
			cfg.Scale = workload.Scale{Footprint: 1 << 18, Instructions: 500_000}
			cfg.CheckInterval = interval
			m, err := NewMachine("gzip", cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var cancelAt uint64
			m.OnProgress(func(committed uint64) {
				// Cancel at the third checkpoint, mid-run: far from both
				// the start and the instruction budget.
				if committed >= 3*interval && cancelAt == 0 {
					cancelAt = committed
					cancel()
				}
			})
			res, err := m.RunContext(ctx)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("RunContext error = %v, want context.Canceled", err)
			}
			stopped := res.CPU.Instructions
			if cancelAt == 0 {
				t.Fatal("progress callback never reached the cancel point")
			}
			if stopped < cancelAt {
				t.Errorf("stopped at %d instructions, before the cancel at %d", stopped, cancelAt)
			}
			if stopped > cancelAt+interval {
				t.Errorf("cancel at %d instructions observed only at %d; want within one CheckInterval (%d)",
					cancelAt, stopped, interval)
			}
			if stopped >= cfg.Scale.Instructions {
				t.Errorf("run consumed the full %d-instruction budget despite the cancel", cfg.Scale.Instructions)
			}
		})
	}
}
