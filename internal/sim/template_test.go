package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"ctrpred/internal/dram"
	"ctrpred/internal/faults"
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

// TestIntegrityTemplateMatchesEager pins an integrity machine built from
// the template (a clone of its loaded tree and data channel, leaves of
// unaged lines installed at first touch) to the eager aging loop it
// replaces (eagerMachine): the same tree root and DRAM statistics right
// after NewMachine and the same snapshot after the run, over every
// benchmark, four counter schemes and two DRAM geometries, with the
// self-check alternating and one fault plan of each kind armed under
// quarantine.
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
				cfg := eagerConfig(s, 0x1e7+uint64(bi)).WithIntegrity()
				cfg.DRAM = dcfg
				cfg.SelfCheck = n%2 == 0
				n++
				if si == 0 && di == 1 {
					kind := kinds[bi%len(kinds)]
					plan := &faults.Plan{Attacks: []faults.Attack{
						{Kind: kind, Trigger: faults.Trigger{Fetch: uint64(5 + 3*bi)}},
					}}
					cfg = cfg.WithFaults(plan).WithRecovery(secmem.RecoveryQuarantine)
				}
				name := fmt.Sprintf("%s/%s/dram%d/sc%v", bench, s.Name, di, cfg.SelfCheck)
				res := matchEager(t, name, bench, cfg)
				if cfg.Faults != nil && res.Faults.TotalInjected() > 0 {
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
// under -race by make race): they race to seal the same slots of the
// template's shared pad half, every snapshot matches its sequential
// twin, and the tree image is loaded exactly once.
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
// template: they load one tree image per DRAM configuration and share
// the template's sealed slots, so a run repeating an earlier one's
// configuration seals no slot.
func TestIntegrityTemplateOnly(t *testing.T) {
	cfg := testConfig(SchemePred(predictor.SchemeContext)).WithIntegrity().WithSeed(0x0a1e)
	small := cfg
	small.DRAM.Banks = 4
	tmpl, err := getTemplate("bzip2", cfg)
	if err != nil {
		t.Fatal(err)
	}
	var sealed int
	for i, c := range []Config{cfg, small, cfg} {
		sealed = tmpl.aged.SealedLines()
		if _, err := Run("bzip2", c); err != nil {
			t.Fatal(err)
		}
		if n := tmpl.aged.SealedLines(); i == 0 && n == 0 {
			t.Error("the first integrity run sealed no template slot")
		}
	}
	if n := tmpl.aged.SealedLines() - sealed; n != 0 {
		t.Errorf("repeating the first run's configuration sealed %d more template slots", n)
	}
	if n := tmpl.treeLoads.Load(); n != 2 {
		t.Errorf("two DRAM configurations loaded %d tree images, want 2", n)
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

const countersGolden = "counters.golden"

// TestCounterHalfGolden pins every template's counter half, not just the
// lines a run touches: for each benchmark at service scale (seeds 1 and
// 2) and at the hit-rate figures' 8 MiB (seed 1), a sha256 over
// (line, counter) of every image line and every aged line, in ascending
// address order, against testdata/counters.golden. The counters are the
// page roots drawn in template order plus each aged line's offset, so a
// slip in root-draw order on a line no run fetches still fails here.
// Regenerate with
//
//	go test ./internal/sim -run TestCounterHalfGolden -update
//
// only for an intended change to images, aging or root draws.
func TestCounterHalfGolden(t *testing.T) {
	want := map[string]string{}
	if !*updateGolden {
		want = readGolden(t, countersGolden)
	}
	type point struct {
		scale workload.Scale
		seed  uint64
	}
	points := []point{
		{workload.Scale{Footprint: 512 << 10, Instructions: 20_000}, 1},
		{workload.Scale{Footprint: 512 << 10, Instructions: 20_000}, 2},
		{workload.Scale{Footprint: 8 << 20, Instructions: 1_000_000}, 1},
	}
	var out bytes.Buffer
	rows := 0
	for _, bench := range workload.Names() {
		for _, p := range points {
			key := fmt.Sprintf("%s/%dK/%d/%d", bench, p.scale.Footprint>>10, p.scale.Instructions, p.seed)
			cfg := DefaultConfig(SchemePred(predictor.SchemeRegular)).WithMode(HitRate).WithSeed(p.seed)
			cfg.Scale = p.scale
			cfg.SelfCheck = false
			m, err := NewMachine(bench, cfg)
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			tmpl, _ := getTemplate(bench, cfg)
			var las []uint64
			tmpl.image.ForEachLine(func(la uint64) { las = append(las, la) })
			for _, s := range tmpl.ageList {
				las = append(las, s.Addr)
			}
			slices.Sort(las)
			las = slices.Compact(las)
			if len(las) != tmpl.aged.Lines() {
				t.Errorf("%s: counter half holds %d lines, image and aged lines %d", key, tmpl.aged.Lines(), len(las))
			}
			h := sha256.New()
			var w [16]byte
			for _, la := range las {
				binary.LittleEndian.PutUint64(w[:8], la)
				binary.LittleEndian.PutUint64(w[8:], m.Ctrl.Seq(la))
				h.Write(w[:])
			}
			m.Close()
			forgetTemplate(bench, cfg)
			digest := hex.EncodeToString(h.Sum(nil))
			fmt.Fprintf(&out, "%s %s\n", key, digest)
			rows++
			if *updateGolden {
				continue
			}
			if w, ok := want[key]; !ok {
				t.Errorf("%s: no digest in %s (run with -update)", key, countersGolden)
			} else if digest != w {
				t.Errorf("%s: counter-half digest %s, golden %s", key, digest, w)
			}
		}
	}
	if *updateGolden {
		if err := os.WriteFile(filepath.Join("testdata", countersGolden), out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if len(want) != rows {
		t.Errorf("%s holds %d digests, want %d (run with -update)", countersGolden, len(want), rows)
	}
}
