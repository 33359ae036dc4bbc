package sim

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"ctrpred/internal/cryptoengine"
	"ctrpred/internal/faults"
	"ctrpred/internal/predictor"
	"ctrpred/internal/workload"
)

// groupConfig is a counters-only hit-rate config at the group tests'
// scale, with the figure harness's window-proportional flush.
func groupConfig(s Scheme, l2 int, switchEvery uint64) Config {
	cfg := DefaultConfig(s).WithL2(l2).WithMode(HitRate)
	cfg.Scale = workload.Scale{Footprint: 1 << 20, Instructions: 40_000}
	cfg.SelfCheck = false
	cfg.Mem.FlushInterval = cfg.Scale.Instructions / 20
	cfg.Mem.ContextSwitchInterval = switchEvery
	return cfg
}

// groupSchemeSets are the rows TestGroupMatchesSolo runs as groups: the
// scheme sets of Figures 7 and 12, the sequence-number cache sweep with
// its prediction reference, custom predictor configs (the ablation's
// variants) and the remaining schemes.
func groupSchemeSets() [][]Scheme {
	return [][]Scheme{
		{SchemeSeqCache(128 << 10), SchemeSeqCache(512 << 10), SchemePred(predictor.SchemeRegular)},
		{SchemePred(predictor.SchemeRegular), SchemePred(predictor.SchemeTwoLevel), SchemePred(predictor.SchemeContext)},
		{SchemeSeqCache(4 << 10), SchemeSeqCache(64 << 10), SchemeSeqCache(1 << 20), SchemePred(predictor.SchemeRegular)},
		{
			predVariant("non-adaptive", predictor.SchemeRegular, func(c *predictor.Config) { c.Adaptive = false }),
			predVariant("depth=1", predictor.SchemeRegular, func(c *predictor.Config) { c.Depth = 1 }),
			predVariant("history=2", predictor.SchemeRegular, func(c *predictor.Config) { c.HistoryDepth = 2 }),
			predVariant("context swing=1", predictor.SchemeContext, func(c *predictor.Config) { c.Swing = 1 }),
		},
		{SchemeCombined(32<<10, predictor.SchemeRegular), SchemeOracle(), SchemeBaseline()},
	}
}

// snapshotJSON is the full exported form of a result, the byte-identity
// unit the group contract is stated in.
func snapshotJSON(t *testing.T, r Result) string {
	t.Helper()
	b, err := r.Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestGroupMatchesSolo checks the group contract: every member of a row
// that shares one front end produces a snapshot byte-identical to its
// own solo run. It covers every benchmark under five scheme sets, at
// both L2 sizes, with and without context switches — 952 configs. The
// rows run in parallel, so rows of one template share it concurrently
// (make race runs this test).
func TestGroupMatchesSolo(t *testing.T) {
	for _, bench := range workload.Names() {
		for _, l2 := range []int{256 << 10, 1 << 20} {
			for _, switchEvery := range []uint64{0, 40_000 / 8} {
				for si, set := range groupSchemeSets() {
					name := fmt.Sprintf("%s/L2=%dK/switch=%d/set=%d", bench, l2>>10, switchEvery, si)
					t.Run(name, func(t *testing.T) {
						t.Parallel()
						cfgs := make([]Config, len(set))
						for i, s := range set {
							cfgs[i] = groupConfig(s, l2, switchEvery)
						}
						group, err := RunGroupContext(context.Background(), bench, cfgs)
						if err != nil {
							t.Fatal(err)
						}
						if len(group) != len(cfgs) {
							t.Fatalf("%d results for %d configs", len(group), len(cfgs))
						}
						for i, cfg := range cfgs {
							solo, err := Run(bench, cfg)
							if err != nil {
								t.Fatal(err)
							}
							if got, want := snapshotJSON(t, group[i]), snapshotJSON(t, solo); got != want {
								t.Errorf("%s: group result differs from solo run:\ngroup %s\nsolo  %s", cfg.Scheme.Name, got, want)
							}
						}
					})
				}
			}
		}
	}
}

// TestGroupOfOneMatchesSolo checks the degenerate group: one config is
// the solo run.
func TestGroupOfOneMatchesSolo(t *testing.T) {
	cfg := groupConfig(SchemePred(predictor.SchemeContext), 256<<10, 0)
	group, err := RunGroupContext(context.Background(), "mcf", []Config{cfg})
	if err != nil {
		t.Fatal(err)
	}
	solo, err := Run("mcf", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(group) != 1 || snapshotJSON(t, group[0]) != snapshotJSON(t, solo) {
		t.Fatalf("group of one differs from the solo run:\n%+v\nvs\n%+v", group, solo)
	}
}

// TestGroupRejects checks that configs which cannot share one front end
// fail the group with an error: never a panic, never solo fallbacks.
func TestGroupRejects(t *testing.T) {
	sealer, err := cryptoengine.ParseEngine("sealer")
	if err != nil {
		t.Fatal(err)
	}
	every := func(mod func(*Config)) func([]Config) {
		return func(cfgs []Config) {
			for i := range cfgs {
				mod(&cfgs[i])
			}
		}
	}
	second := func(mod func(*Config)) func([]Config) {
		return func(cfgs []Config) { mod(&cfgs[1]) }
	}
	cases := []struct {
		name string
		mod  func([]Config)
		want string
	}{
		{"performance mode", every(func(c *Config) { c.Mode = Performance }), "counters-only"},
		{"self-check", every(func(c *Config) { c.SelfCheck = true }), "counters-only"},
		{"integrity", every(func(c *Config) { c.Integrity = true }), "counters-only"},
		{"faults", every(func(c *Config) { c.Faults = &faults.Plan{} }), "counters-only"},
		{"direct", second(func(c *Config) { c.Scheme = SchemeDirect() }), "counters-only"},
		{"L2 size", second(func(c *Config) { *c = c.WithL2(1 << 20) }), "more than its scheme"},
		{"seed", second(func(c *Config) { c.Seed = 2 }), "more than its scheme"},
		{"scale", second(func(c *Config) { c.Scale.Instructions *= 2 }), "more than its scheme"},
		{"flush interval", second(func(c *Config) { c.Mem.FlushInterval++ }), "more than its scheme"},
		{"context-switch interval", second(func(c *Config) { c.Mem.ContextSwitchInterval = 5000 }), "more than its scheme"},
		{"prefetch degree", second(func(c *Config) { c.Mem.PrefetchDegree = 1 }), "more than its scheme"},
		{"engine", second(func(c *Config) { *c = c.WithEngine(sealer) }), "more than its scheme"},
		{"empty", nil, "empty group"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var cfgs []Config
			if tc.mod != nil {
				cfgs = []Config{
					groupConfig(SchemeSeqCache(128<<10), 256<<10, 0),
					groupConfig(SchemePred(predictor.SchemeRegular), 256<<10, 0),
				}
				tc.mod(cfgs)
			}
			var res []Result
			func() {
				defer func() {
					if v := recover(); v != nil {
						t.Fatalf("RunGroupContext panicked: %v", v)
					}
				}()
				res, err = RunGroupContext(context.Background(), "gzip", cfgs)
			}()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want an error mentioning %q", err, tc.want)
			}
			if res != nil {
				t.Fatalf("rejected group returned results: %v", res)
			}
		})
	}
}

// TestGroupCancel checks that a cancelled context stops the shared run
// and reaches every member: a pre-cancelled group runs nothing, and a
// cancel mid-run returns every member's partial result with the error.
func TestGroupCancel(t *testing.T) {
	cfgs := []Config{
		groupConfig(SchemeSeqCache(128<<10), 256<<10, 0),
		groupConfig(SchemePred(predictor.SchemeRegular), 256<<10, 0),
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if res, err := RunGroupContext(ctx, "mcf", cfgs); !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("pre-cancelled group = %v, %v; want no results and context.Canceled", res, err)
	}

	const interval = 1_000
	for i := range cfgs {
		cfgs[i].CheckInterval = interval
	}
	// One Err call on entry, then one per checkpoint: the 4th stops the
	// shared run.
	res, err := RunGroupContext(&pollCountdownCtx{Context: context.Background(), remaining: 4}, "mcf", cfgs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(res) != len(cfgs) {
		t.Fatalf("%d partial results for %d configs", len(res), len(cfgs))
	}
	for _, r := range res {
		if got := r.CPU.Instructions; got != res[0].CPU.Instructions || got < 3*interval || got > 4*interval+8 {
			t.Fatalf("%s stopped at %d instructions (first member %d), want both ~%d",
				r.Scheme, got, res[0].CPU.Instructions, 4*interval)
		}
	}
}
