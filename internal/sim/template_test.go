package sim

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"ctrpred/internal/dram"
	"ctrpred/internal/faults"
	"ctrpred/internal/integrity"
	"ctrpred/internal/predictor"
	"ctrpred/internal/secmem"
	"ctrpred/internal/workload"
)

// forgetTemplate drops (bench, scale, seed) from the template cache so
// the next NewMachine for it builds afresh.
func forgetTemplate(bench string, cfg Config) {
	tmplMu.Lock()
	dropTemplate(templateKey{bench: bench, scale: cfg.Scale, seed: cfg.Seed})
	tmplMu.Unlock()
}

// snapshotOf runs bench under cfg and returns its snapshot JSON.
func snapshotOf(bench string, cfg Config) (string, error) {
	m, err := NewMachine(bench, cfg)
	if err != nil {
		return "", err
	}
	defer m.Close()
	js, err := m.Run().Snapshot().JSON()
	return string(js), err
}

// templateMix is one run per way a machine can use a template: the
// counters-only hit-rate model, the full model in both modes, and the
// two-level predictor's range warm-up. All share one scale, hence one
// template per (bench, seed).
func templateMix(seed uint64) []Config {
	cfg := func(s Scheme, mode Mode, selfCheck bool) Config {
		c := DefaultConfig(s).WithMode(mode).WithSeed(seed)
		c.Scale = workload.Scale{Footprint: 256 << 10, Instructions: 20_000}
		c.SelfCheck = selfCheck
		return c
	}
	return []Config{
		cfg(SchemePred(predictor.SchemeRegular), HitRate, false),
		cfg(SchemeSeqCache(32<<10), HitRate, false),
		cfg(SchemePred(predictor.SchemeTwoLevel), HitRate, false),
		cfg(SchemeCombined(32<<10, predictor.SchemeContext), HitRate, true),
		cfg(SchemePred(predictor.SchemeContext), Performance, true),
	}
}

// TestTemplateConcurrentAttach races counters-only and full-model
// machines onto one fresh template while other keys build alongside —
// the full-model ones fetch overlapping lines, so they race to seal the
// same slots — and checks every snapshot against the same run made
// sequentially from a template built without contention.
func TestTemplateConcurrentAttach(t *testing.T) {
	const seed = 0x7e3a17
	const bench = "gzip"
	cfgs := templateMix(seed)
	const attachers = 10
	full := 0
	for i := 0; i < attachers; i++ {
		if cfgs[i%len(cfgs)].SelfCheck { // templateMix's full-model runs
			full++
		}
	}
	if full < 4 {
		t.Fatalf("only %d full-model attachers race on the template", full)
	}
	want := make([]string, len(cfgs))
	for i, cfg := range cfgs {
		js, err := snapshotOf(bench, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = js
	}
	forgetTemplate(bench, cfgs[0])

	others := []string{"mcf", "swim", "twolf"}
	got := make([]string, attachers)
	errs := make([]error, attachers+len(others))
	var wg sync.WaitGroup
	for i := 0; i < attachers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = snapshotOf(bench, cfgs[i%len(cfgs)])
		}(i)
	}
	for j, other := range others {
		wg.Add(1)
		go func(j int, other string) {
			defer wg.Done()
			_, errs[attachers+j] = snapshotOf(other, cfgs[len(cfgs)-1-j])
		}(j, other)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	for i, js := range got {
		if js != want[i%len(cfgs)] {
			t.Errorf("attacher %d: snapshot differs from its sequential twin", i)
		}
	}
	tmpl, err := getTemplate(bench, cfgs[0])
	if err != nil {
		t.Fatal(err)
	}
	if n := tmpl.aged.SealedLines(); n == 0 || n >= tmpl.aged.Lines() {
		t.Errorf("racing machines sealed %d of %d template lines", n, tmpl.aged.Lines())
	}
	forgetTemplate(bench, cfgs[0])
	for _, other := range others {
		forgetTemplate(other, cfgs[0])
	}
}

// TestTemplateBuildErrorNotCached checks that a failed build leaves no
// cache entry, so the next call for the key retries instead of replaying
// the error.
func TestTemplateBuildErrorNotCached(t *testing.T) {
	cfg := testConfig(SchemeBaseline())
	for i := 0; i < 2; i++ {
		if _, err := NewMachine("nonesuch", cfg); !errors.Is(err, workload.ErrUnknownBenchmark) {
			t.Fatalf("call %d: err = %v, want ErrUnknownBenchmark", i, err)
		}
	}
	key := templateKey{bench: "nonesuch", scale: cfg.Scale, seed: cfg.Seed}
	tmplMu.Lock()
	defer tmplMu.Unlock()
	if _, ok := tmplCache[key]; ok {
		t.Error("failed build left a cache entry")
	}
	for _, k := range tmplOrder {
		if k == key {
			t.Error("failed build left its key in the eviction order")
		}
	}
}

// TestHitRateSweepLeavesPadsUnbuilt runs a Figure-7-shaped grid — the
// counters-only hit-rate model over seq caches and prediction — and
// checks that it sealed no template line; a full-model machine then
// seals the lines it touches, not the whole image.
func TestHitRateSweepLeavesPadsUnbuilt(t *testing.T) {
	const seed = 0x5f1e7
	for _, bench := range []string{"mcf", "swim"} {
		var cfg Config
		for _, s := range []Scheme{
			SchemeSeqCache(128 << 10),
			SchemeSeqCache(512 << 10),
			SchemePred(predictor.SchemeRegular),
		} {
			cfg = DefaultConfig(s).WithL2(256 << 10).WithMode(HitRate).WithSeed(seed)
			cfg.Scale = workload.Scale{Footprint: 1 << 20, Instructions: 20_000}
			cfg.SelfCheck = false
			if _, err := Run(bench, cfg); err != nil {
				t.Fatal(err)
			}
		}
		tmpl, err := getTemplate(bench, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if n := tmpl.aged.SealedLines(); n != 0 {
			t.Fatalf("%s: a counters-only sweep sealed %d template lines", bench, n)
		}
		cfg.SelfCheck = true
		if _, err := Run(bench, cfg); err != nil {
			t.Fatal(err)
		}
		if n, all := tmpl.aged.SealedLines(), tmpl.aged.Lines(); n == 0 || n >= all {
			t.Fatalf("%s: a full-model run sealed %d of %d template lines", bench, n, all)
		}
		if n := tmpl.treeLoads.Load(); n != 0 {
			t.Fatalf("%s: machines without a tree loaded %d tree images", bench, n)
		}
		forgetTemplate(bench, cfg)
	}
}

// integrityPair is one configuration of TestIntegrityTemplateMatchesEager
// and its eager twin: the same machine forced down the eager aging loop
// by a custom predictor config of the default geometry.
func integrityPair(s Scheme, dcfg dram.Config, seed uint64) (Config, Config) {
	cfg := testConfig(s).WithSeed(seed).WithIntegrity()
	cfg.Scale.Instructions = 20_000
	cfg.DRAM = dcfg
	eager := cfg
	pc := predictor.DefaultConfig(s.Pred)
	eager.Scheme.PredConfig = &pc
	return cfg, eager
}

// loadedState is what an integrity machine holds right after NewMachine
// that its run would reveal only indirectly: the tree root and the data
// channel's statistics.
func loadedState(t *testing.T, bench string, cfg Config) (*Machine, integrity.Digest, dram.Stats) {
	t.Helper()
	m, err := NewMachine(bench, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m, m.Ctrl.IntegrityTree().Root(), m.DRAM.Stats()
}

// TestIntegrityTemplateMatchesEager pins an integrity machine built from
// the template (a clone of its loaded tree and data channel, leaves of
// unaged lines installed at first touch) to the eager aging loop it
// replaces: the same tree root and DRAM statistics right after
// NewMachine and the same snapshot after the run, over every benchmark,
// four counter schemes and two DRAM geometries, with the self-check
// alternating and one fault plan of each kind armed under quarantine.
func TestIntegrityTemplateMatchesEager(t *testing.T) {
	schemes := []Scheme{
		SchemePred(predictor.SchemeContext),
		SchemePred(predictor.SchemeTwoLevel),
		SchemeBaseline(),
		SchemeSeqCache(32 << 10),
	}
	small := dram.DefaultConfig()
	small.Banks, small.RowBytes = 4, 1<<10
	drams := []dram.Config{dram.DefaultConfig(), small}
	kinds := faults.Kinds()
	armed := map[faults.Kind]bool{}
	n := 0
	for bi, bench := range workload.Names() {
		for si, s := range schemes {
			for di, dcfg := range drams {
				cfg, eagerCfg := integrityPair(s, dcfg, 0x1e7+uint64(bi))
				cfg.SelfCheck = n%2 == 0
				eagerCfg.SelfCheck = cfg.SelfCheck
				n++
				if si == 0 && di == 1 {
					kind := kinds[bi%len(kinds)]
					plan := &faults.Plan{Attacks: []faults.Attack{
						{Kind: kind, Trigger: faults.Trigger{Fetch: uint64(5 + 3*bi)}},
					}}
					cfg = cfg.WithFaults(plan).WithRecovery(secmem.RecoveryQuarantine)
					eagerCfg = eagerCfg.WithFaults(plan).WithRecovery(secmem.RecoveryQuarantine)
				}
				name := fmt.Sprintf("%s/%s/dram%d/sc%v", bench, s.Name, di, cfg.SelfCheck)

				tm, troot, tdram := loadedState(t, bench, cfg)
				em, eroot, edram := loadedState(t, bench, eagerCfg)
				if troot != eroot {
					t.Errorf("%s: loaded tree root differs from eager aging", name)
				}
				if tdram != edram {
					t.Errorf("%s: loaded DRAM stats %+v, eager %+v", name, tdram, edram)
				}
				tres, eres := tm.Run(), em.Run()
				tm.Close()
				em.Close()
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
				if cfg.Faults != nil && tres.Faults.TotalInjected() > 0 {
					armed[cfg.Faults.Attacks[0].Kind] = true
				}
			}
		}
	}
	if len(armed) != len(kinds) {
		t.Errorf("only %d of %d fault kinds fired", len(armed), len(kinds))
	}
}

// TestIntegrityTemplateConcurrentAttach races integrity machines onto one
// fresh template, mixed with full-model and counters-only ones (run
// under -race by make race): every snapshot matches its sequential twin,
// the tree image is loaded exactly once, and no machine seals a slot of
// the template's shared pad half for an integrity run.
func TestIntegrityTemplateConcurrentAttach(t *testing.T) {
	const seed = 0x1d7e6
	const bench = "twolf"
	mix := templateMix(seed)
	integ := mix[len(mix)-1].WithIntegrity()
	baseline := integ
	baseline.Scheme = SchemeBaseline()
	cfgs := []Config{integ, mix[0], baseline, mix[len(mix)-1], mix[1]}
	want := make([]string, len(cfgs))
	for i, cfg := range cfgs {
		js, err := snapshotOf(bench, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = js
	}
	forgetTemplate(bench, cfgs[0])

	const attachers = 10
	got := make([]string, attachers)
	errs := make([]error, attachers)
	var wg sync.WaitGroup
	for i := 0; i < attachers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = snapshotOf(bench, cfgs[i%len(cfgs)])
		}(i)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	for i, js := range got {
		if js != want[i%len(cfgs)] {
			t.Errorf("attacher %d: snapshot differs from its sequential twin", i)
		}
	}
	tmpl, err := getTemplate(bench, cfgs[0])
	if err != nil {
		t.Fatal(err)
	}
	if n := tmpl.treeLoads.Load(); n != 1 {
		t.Errorf("%d integrity machines loaded %d tree images, want 1", attachers*2/len(cfgs), n)
	}
	forgetTemplate(bench, cfgs[0])
}

// TestIntegrityTemplateOnly runs integrity machines alone on a fresh
// template: they load one tree image per DRAM configuration and seal no
// slot of the template's pad half.
func TestIntegrityTemplateOnly(t *testing.T) {
	cfg := testConfig(SchemePred(predictor.SchemeContext)).WithIntegrity().WithSeed(0x0a1e)
	small := cfg
	small.DRAM.Banks = 4
	for _, c := range []Config{cfg, small, cfg} {
		if _, err := Run("bzip2", c); err != nil {
			t.Fatal(err)
		}
	}
	tmpl, err := getTemplate("bzip2", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n := tmpl.treeLoads.Load(); n != 2 {
		t.Errorf("two DRAM configurations loaded %d tree images, want 2", n)
	}
	if n := tmpl.aged.SealedLines(); n != 0 {
		t.Errorf("integrity machines sealed %d shared template slots", n)
	}
	forgetTemplate("bzip2", cfg)
}

// TestIntegrityTreeImageErrorNotCached loads a tree image over a DRAM
// geometry the channel model rejects: the panic reaches the caller and
// leaves no cache entry, so the next machine retries the load.
func TestIntegrityTreeImageErrorNotCached(t *testing.T) {
	cfg := testConfig(SchemeBaseline()).WithIntegrity().WithSeed(0xbad)
	cfg.DRAM.Banks = 3
	tmpl, err := getTemplate("gzip", cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("call %d: a 3-bank channel did not panic", i)
				}
			}()
			NewMachine("gzip", cfg)
		}()
		tmpl.treeMu.Lock()
		_, cached := tmpl.trees[cfg.DRAM]
		tmpl.treeMu.Unlock()
		if cached {
			t.Fatalf("call %d: the failed load left a cache entry", i)
		}
	}
	if n := tmpl.treeLoads.Load(); n != 2 {
		t.Errorf("two calls started %d loads, want 2 (the failure was cached)", n)
	}
	forgetTemplate("gzip", cfg)
}
