package sim

import (
	"bytes"
	"fmt"
	"testing"

	"ctrpred/internal/cpu"
	"ctrpred/internal/integrity"
	"ctrpred/internal/mem"
	"ctrpred/internal/memsys"
	"ctrpred/internal/predictor"
	"ctrpred/internal/workload"
)

// eagerMachine is the reference the aged template replaced: bench's
// machine under cfg with a fresh data channel in performance mode (and
// a fresh tree), aged line by
// line by Controller.AgeLine and Predictor.WarmRange over the template's
// sample list, every other line created at its first touch. NewMachine
// must agree with it unless a page's root resets before a template line
// of that page is first touched (see template.go).
func eagerMachine(bench string, cfg Config) (*Machine, error) {
	tmpl, err := getTemplate(bench, cfg)
	if err != nil {
		return nil, err
	}
	image := mem.NewView(tmpl.image)
	d := dataChannel(cfg)
	var tree *integrity.Tree
	if cfg.Integrity {
		tree = integrity.New(integrity.DefaultConfig(), d)
	}
	s, err := wireSide(cfg, d, tree, image)
	if err != nil {
		return nil, err
	}
	for _, a := range tmpl.ageList {
		s.Ctrl.AgeLine(a.Addr, a.Offset)
		s.Pred.WarmRange(a.Addr, a.Offset)
	}
	sys := memsys.New(cfg.Mem, s.Ctrl)
	core := cpu.New(cfg.CPU, tmpl.prog, image, sys)
	if s.Faults != nil {
		s.Faults.SetInstrSource(core.Committed)
	}
	return &Machine{Config: cfg, Benchmark: bench, Image: image, Core: core, Sys: sys, side: s}, nil
}

// predVariant is a prediction scheme with a modified predictor config,
// the shape of the ablation experiment's variants.
func predVariant(name string, scheme predictor.Scheme, mod func(*predictor.Config)) Scheme {
	pc := predictor.DefaultConfig()
	mod(&pc)
	return Scheme{Name: name, Pred: scheme, PredConfig: &pc}
}

// ablationVariants are the ablation experiment's nine non-default
// predictor variants.
func ablationVariants() []Scheme {
	return []Scheme{
		predVariant("non-adaptive", predictor.SchemeRegular, func(c *predictor.Config) { c.Adaptive = false }),
		predVariant("depth=1", predictor.SchemeRegular, func(c *predictor.Config) { c.Depth = 1 }),
		predVariant("depth=11", predictor.SchemeRegular, func(c *predictor.Config) { c.Depth = 11 }),
		predVariant("history=1", predictor.SchemeRegular, func(c *predictor.Config) { c.HistoryDepth = 1 }),
		predVariant("history=2", predictor.SchemeRegular, func(c *predictor.Config) { c.HistoryDepth = 2 }),
		predVariant("threshold=4", predictor.SchemeRegular, func(c *predictor.Config) { c.ResetThreshold = 4 }),
		predVariant("threshold=16", predictor.SchemeRegular, func(c *predictor.Config) { c.ResetThreshold = 16 }),
		predVariant("context swing=1", predictor.SchemeContext, func(c *predictor.Config) { c.Swing = 1 }),
		predVariant("context swing=7", predictor.SchemeContext, func(c *predictor.Config) { c.Swing = 7 }),
	}
}

// eagerConfig is cfg's base for the eager comparisons: the unit-test
// machine at a 20k-instruction window.
func eagerConfig(s Scheme, seed uint64) Config {
	cfg := testConfig(s).WithSeed(seed)
	cfg.Scale.Instructions = 20_000
	return cfg
}

// matchEager builds bench under cfg from the template and eagerly, and
// reports every difference: an integrity machine's tree root and data
// channel statistics right after construction, and the snapshot after
// the run. It returns the template machine's result.
func matchEager(t *testing.T, name, bench string, cfg Config) Result {
	t.Helper()
	tm, err := NewMachine(bench, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer tm.Close()
	em, err := eagerMachine(bench, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer em.Close()
	if cfg.Integrity {
		if tm.Ctrl.IntegrityTree().Root() != em.Ctrl.IntegrityTree().Root() {
			t.Errorf("%s: loaded tree root differs from eager aging", name)
		}
		if ts, es := tm.DRAM.Stats(), em.DRAM.Stats(); ts != es {
			t.Errorf("%s: loaded DRAM stats %+v, eager %+v", name, ts, es)
		}
	}
	tres, eres := tm.Run(), em.Run()
	tjs, err := tres.Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	ejs, err := eres.Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(tjs, ejs) {
		t.Errorf("%s: snapshot differs from eager aging", name)
	}
	return tres
}

// TestTemplateMatchesEager holds every way a machine without a tree
// attaches the template to the eager aging loop: the counters-only
// hit-rate model, and the full model with the self-check in both modes,
// over the canonical counter schemes and the ablation's predictor
// variants, on every benchmark. TestIntegrityTemplateMatchesEager covers
// the machines with a tree.
func TestTemplateMatchesEager(t *testing.T) {
	schemes := append([]Scheme{
		SchemeBaseline(),
		SchemeOracle(),
		SchemeSeqCache(32 << 10),
		SchemePred(predictor.SchemeRegular),
		SchemePred(predictor.SchemeTwoLevel),
		SchemeCombined(32<<10, predictor.SchemeContext),
	}, ablationVariants()...)
	modes := []struct {
		mode      Mode
		selfCheck bool
	}{{HitRate, false}, {HitRate, true}, {Performance, true}}
	n := 0
	for bi, bench := range workload.Names() {
		for _, s := range schemes {
			for _, m := range modes {
				cfg := eagerConfig(s, 0x1e7+uint64(bi)).WithMode(m.mode)
				cfg.SelfCheck = m.selfCheck
				if m.mode == HitRate && !m.selfCheck && !countersOnly(cfg) {
					t.Fatalf("%s/%s: not a counters-only config", bench, s.Name)
				}
				name := fmt.Sprintf("%s/%s/%s/sc%v", bench, s.Name, m.mode, m.selfCheck)
				matchEager(t, name, bench, cfg)
				n++
			}
		}
	}
	if want := len(workload.Names()) * len(schemes) * len(modes); n != want {
		t.Fatalf("compared %d configurations, want %d", n, want)
	}
}
