package sim

import (
	"errors"
	"sync"
	"testing"

	"ctrpred/internal/predictor"
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
		forgetTemplate(bench, cfg)
	}
}
