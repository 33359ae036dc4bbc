package sim

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"ctrpred/internal/cryptoengine"
	"ctrpred/internal/predictor"
)

// TestEngineModelsRunClean: every engine model decrypts correctly end to
// end (the self-check is on in testConfig), because pad bits come from
// the shared keystream regardless of the timing model.
func TestEngineModelsRunClean(t *testing.T) {
	for _, spec := range []string{"aes:lat=24", "sealer", "sealer:banks=2,lat=64", "bipbip"} {
		eng, err := cryptoengine.ParseEngine(spec)
		if err != nil {
			t.Fatalf("ParseEngine(%q): %v", spec, err)
		}
		res, err := Run("mcf", testConfig(SchemePred(predictor.SchemeContext)).WithEngine(eng))
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if res.CPU.Instructions == 0 || res.Ctrl.Fetches == 0 {
			t.Fatalf("%s: ran nothing", spec)
		}
		if res.PadViolations != 0 || res.Ctrl.SelfCheckFails != 0 {
			t.Fatalf("%s: decryption broke (%d pad violations, %d self-check fails)",
				spec, res.PadViolations, res.Ctrl.SelfCheckFails)
		}
		if res.Engine.Model != eng.Model {
			t.Fatalf("%s: result carries engine model %q", spec, res.Engine.Model)
		}
	}
}

// TestEngineLatencyOrdersCycles: on the same workload and scheme, a
// near-free cipher must finish in fewer cycles than the default AES
// pipe, which must beat a doubled-latency pipe — the monotonicity the
// engines experiment's latency ladder rests on.
func TestEngineLatencyOrdersCycles(t *testing.T) {
	cycles := func(spec string) uint64 {
		t.Helper()
		eng, err := cryptoengine.ParseEngine(spec)
		if err != nil {
			t.Fatalf("ParseEngine(%q): %v", spec, err)
		}
		res, err := Run("mcf", testConfig(SchemeBaseline()).WithEngine(eng))
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		return res.CPU.Cycles
	}
	fast, def, slow := cycles("bipbip"), cycles("aes"), cycles("aes:lat=192")
	if !(fast < def && def < slow) {
		t.Fatalf("cycle counts not ordered by engine latency: bipbip %d, aes %d, aes:lat=192 %d", fast, def, slow)
	}
}

// TestNewMachineRejectsUnknownEngine: a config naming no known model
// fails construction with the sentinel, before any simulation state is
// built, in both modes: a HitRate machine builds no engine but still
// checks the spec.
func TestNewMachineRejectsUnknownEngine(t *testing.T) {
	cfg := testConfig(SchemeBaseline())
	cfg.Engine = cryptoengine.Spec{Model: "quantum"}
	if _, err := NewMachine("mcf", cfg); !errors.Is(err, cryptoengine.ErrUnknownEngine) {
		t.Fatalf("NewMachine = %v, want errors.Is(err, cryptoengine.ErrUnknownEngine)", err)
	}
	if _, err := NewMachine("mcf", cfg.WithMode(HitRate)); !errors.Is(err, cryptoengine.ErrUnknownEngine) {
		t.Fatalf("HitRate NewMachine = %v, want errors.Is(err, cryptoengine.ErrUnknownEngine)", err)
	}
}

// TestHitRateBooksNoTime pins what a HitRate run leaves out: it has no
// engine and no DRAM channel, so its snapshot is byte-identical under
// every engine model, with the self-check on (the full model) and off
// (counters only), and carries no engine or dram child and no fetch
// timing. The same configurations in performance mode still differ by
// engine.
func TestHitRateBooksNoTime(t *testing.T) {
	engines := []string{"aes", "sealer", "bipbip"}
	for _, bench := range []string{"mcf", "swim"} {
		for _, sch := range []Scheme{SchemePred(predictor.SchemeContext), SchemeCombined(32<<10, predictor.SchemeRegular)} {
			for _, selfCheck := range []bool{false, true} {
				name := fmt.Sprintf("%s/%s/sc%v", bench, sch.Name, selfCheck)
				var hitRate string
				perf := map[string]string{}
				for _, spec := range engines {
					eng, err := cryptoengine.ParseEngine(spec)
					if err != nil {
						t.Fatal(err)
					}
					cfg := testConfig(sch).WithEngine(eng)
					cfg.SelfCheck = selfCheck
					m, err := NewMachine(bench, cfg.WithMode(HitRate))
					if err != nil {
						t.Fatal(err)
					}
					if m.Engine != nil || m.DRAM != nil {
						t.Fatalf("%s/%s: HitRate machine has an engine or a DRAM channel", name, spec)
					}
					res := m.Run()
					m.Close()
					if res.Ctrl.Fetches == 0 {
						t.Fatalf("%s/%s: no fetches", name, spec)
					}
					snap := res.Snapshot()
					if snap.Lookup("engine") != nil || snap.Lookup("dram") != nil {
						t.Fatalf("%s/%s: HitRate snapshot has an engine or dram child", name, spec)
					}
					ctl := snap.Lookup("controller")
					if _, ok := ctl.CounterValue("decrypt_exposed_cycles"); ok || len(ctl.Histograms) != 0 {
						t.Fatalf("%s/%s: HitRate controller node carries fetch timing", name, spec)
					}
					js, err := snap.JSON()
					if err != nil {
						t.Fatal(err)
					}
					if hitRate == "" {
						hitRate = string(js)
					} else if string(js) != hitRate {
						t.Errorf("%s: HitRate snapshot under %s differs from aes's", name, spec)
					}
					if perf[spec], err = snapshotOf(bench, cfg); err != nil {
						t.Fatal(err)
					}
				}
				for i, a := range engines {
					for _, b := range engines[i+1:] {
						if perf[a] == perf[b] {
							t.Errorf("%s: performance snapshots under %s and %s are identical", name, a, b)
						}
					}
				}
			}
		}
	}
}

// TestHitRateRefusesSlices: a HitRate machine books no time for the
// timing core to wait on, so running it in slices is an error.
func TestHitRateRefusesSlices(t *testing.T) {
	m, err := NewMachine("mcf", testConfig(SchemeBaseline()).WithMode(HitRate))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, err := m.RunSliceContext(context.Background(), 1000); err == nil {
		t.Fatal("RunSliceContext on a HitRate machine succeeded")
	}
	if m.Core.Committed() != 0 {
		t.Fatalf("the refused slice committed %d instructions", m.Core.Committed())
	}
}
