package experiments

import (
	"bytes"
	"context"
	"errors"
	"slices"
	"strings"
	"testing"

	"ctrpred/internal/cryptoengine"
	"ctrpred/internal/workload"
)

// quickOpts keeps experiment tests fast: a few benchmarks, small windows.
func quickOpts() Options {
	return Options{
		// Big enough that a 128 KB counter cache cannot cover the working
		// set (the Figure 7 contrast), small enough for fast tests.
		Scale:      workload.Scale{Footprint: 4 << 20, Instructions: 30_000},
		Benchmarks: []string{"mcf", "gzip", "swim"},
		Seed:       3,
	}
}

// TestIDsRoundTrip: every listed id dispatches (a cancelled context
// keeps the runs from simulating anything), no id is listed twice, and
// the unknown-id error names every id.
func TestIDsRoundTrip(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	seen := map[string]bool{}
	for _, id := range IDs() {
		if seen[id] {
			t.Errorf("id %q listed twice", id)
		}
		seen[id] = true
		if _, err := ByID(ctx, id, quickOpts()); errors.Is(err, ErrUnknownExperiment) {
			t.Errorf("listed id %q does not resolve: %v", id, err)
		}
	}
	_, err := ByID(context.Background(), "bogus", quickOpts())
	if !errors.Is(err, ErrUnknownExperiment) {
		t.Fatalf("ByID(bogus) = %v, want errors.Is(err, ErrUnknownExperiment)", err)
	}
	for _, id := range IDs() {
		if !strings.Contains(err.Error(), id) {
			t.Errorf("unknown-id error %q does not name %q", err, id)
		}
	}
	if len(IDs()) != 22 {
		t.Fatalf("IDs() has %d entries", len(IDs()))
	}
}

// TestByIDRejectsRepeatedBenchmark: a library caller listing a
// benchmark twice gets spec.Sweep.Resolve's error before anything runs,
// for a grid and for an experiment whose rows are not benchmarks alike,
// instead of a table that counts the repeat twice in its Average.
func TestByIDRejectsRepeatedBenchmark(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // nothing may run either way
	opt := Options{Benchmarks: []string{"gzip", "mcf", "mcf"}}
	for _, id := range []string{"fig9", "fig10", "ablation", "integrity"} {
		_, err := ByID(ctx, id, opt)
		if err == nil || err.Error() != `benchmarks: "mcf" listed twice` {
			t.Errorf("ByID(%q) over gzip,mcf,mcf: err = %v, want the repeat rejected", id, err)
		}
	}
	if err := CheckBenchmarks([]string{"gzip", "mcf"}); err != nil {
		t.Errorf("CheckBenchmarks rejects distinct benchmarks: %v", err)
	}
}

func TestTable1(t *testing.T) {
	res := Table1()
	s := res.Table.String()
	for _, want := range []string{"Fetch/Decode width", "AES latency", "Prediction depth", "96"} {
		if !strings.Contains(s, want) {
			t.Errorf("Table 1 missing %q:\n%s", want, s)
		}
	}
}

func TestFigure4Timeline(t *testing.T) {
	res, err := Figure4Timeline(context.Background(), quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	base := res.Series["baseline"]["data_ready"]
	pred := res.Series["otp-prediction"]["data_ready"]
	warm := res.Series["seqcache(warm)"]["data_ready"]
	orac := res.Series["oracle"]["data_ready"]
	if !(pred < base) {
		t.Fatalf("prediction (%v) not faster than baseline (%v)", pred, base)
	}
	if !(warm < base) || !(orac < base) {
		t.Fatalf("warm cache (%v) / oracle (%v) not faster than baseline (%v)", warm, orac, base)
	}
}

// TestFigure4Engine runs Figure 4 under each cipher engine: the
// baseline miss waits for the counter and then for its engine's pad, so
// its data_ready moves with the engine's latency (96-cycle AES, 128-cycle
// sealer bank, 4-cycle bipbip).
func TestFigure4Engine(t *testing.T) {
	for _, tc := range []struct {
		engine string
		want   float64
	}{{"aes", 177}, {"sealer", 209}, {"bipbip", 85}} {
		opt := quickOpts()
		eng, err := cryptoengine.ParseEngine(tc.engine)
		if err != nil {
			t.Fatal(err)
		}
		opt.Engine = eng
		res, err := Figure4Timeline(context.Background(), opt)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Series["baseline"]["data_ready"]; got != tc.want {
			t.Errorf("%s: baseline data_ready %v, want %v", tc.engine, got, tc.want)
		}
	}
}

func TestFigure7Shape(t *testing.T) {
	res, err := ByID(context.Background(), "fig7", quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	predAvg := res.Series["Pred"]["Average"]
	c128 := res.Series["128K_Seq#_Cache"]["Average"]
	if predAvg <= c128 {
		t.Fatalf("prediction average %.3f not above 128K cache %.3f", predAvg, c128)
	}
	if predAvg < 0.5 || predAvg > 1.0 {
		t.Fatalf("prediction average %.3f implausible", predAvg)
	}
	// Table has one row per benchmark plus Average.
	if res.Table.NumRows() != len(quickOpts().Benchmarks)+1 {
		t.Fatalf("rows = %d", res.Table.NumRows())
	}
}

func TestFigure9Shape(t *testing.T) {
	res, err := ByID(context.Background(), "fig9", quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, bench := range quickOpts().Benchmarks {
		total := res.Series["Pred_Hit"][bench] + res.Series["Seq_Only"][bench] + res.Series["Both_Hit"][bench]
		if total < 0 || total > 1.0001 {
			t.Fatalf("%s: coverage fractions sum to %v", bench, total)
		}
	}
}

func TestFigure10Shape(t *testing.T) {
	opt := quickOpts()
	opt.Benchmarks = []string{"mcf"} // keep the perf-mode run count low
	res, err := ByID(context.Background(), "fig10", opt)
	if err != nil {
		t.Fatal(err)
	}
	for name, series := range res.Series {
		v := series["mcf"]
		if v <= 0 || v > 1.15 {
			t.Fatalf("%s normalized IPC = %v, want (0, ~1]", name, v)
		}
	}
	if res.Series["Pred"]["mcf"] <= res.Series["Seq_Cache_4K"]["mcf"] {
		t.Fatalf("prediction (%v) not above 4K cache (%v) on mcf",
			res.Series["Pred"]["mcf"], res.Series["Seq_Cache_4K"]["mcf"])
	}
}

func TestFigure12Shape(t *testing.T) {
	res, err := ByID(context.Background(), "fig12", quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	reg := res.Series["Regular"]["Average"]
	two := res.Series["Two-level"]["Average"]
	ctx := res.Series["Context"]["Average"]
	if two < reg-0.02 {
		t.Fatalf("two-level average %.3f below regular %.3f", two, reg)
	}
	if ctx < reg-0.02 {
		t.Fatalf("context average %.3f below regular %.3f", ctx, reg)
	}
}

func TestFigure14Shape(t *testing.T) {
	res, err := ByID(context.Background(), "fig14", quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	small := res.Series["256KB_L2"]["Average"]
	big := res.Series["1MB_L2"]["Average"]
	if big > small {
		t.Fatalf("1MB L2 issued more predictions (%v) than 256KB (%v)", big, small)
	}
}

func TestAblationShape(t *testing.T) {
	opt := quickOpts()
	opt.Benchmarks = []string{"gzip", "mcf"}
	res, err := Ablation(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	rates := res.Series["pred_rate"]
	if rates["regular (default)"] < rates["non-adaptive"]-0.02 {
		t.Fatalf("adaptive (%v) worse than non-adaptive (%v)", rates["regular (default)"], rates["non-adaptive"])
	}
	if rates["depth=11"] < rates["depth=1"]-0.02 {
		t.Fatalf("depth=11 (%v) worse than depth=1 (%v)", rates["depth=11"], rates["depth=1"])
	}
	if len(rates) != 10 {
		t.Fatalf("ablation has %d variants", len(rates))
	}
}

func TestContextSwitchShape(t *testing.T) {
	opt := quickOpts()
	opt.Benchmarks = []string{"mcf", "vpr"}
	res, err := ContextSwitch(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	cacheNone := res.Series["seqcache-128K"]["none"]
	cacheFast := res.Series["seqcache-128K"]["window/128"]
	predNone := res.Series["pred-regular"]["none"]
	predFast := res.Series["pred-regular"]["window/128"]
	if cacheFast > cacheNone+0.01 {
		t.Fatalf("cache coverage rose under switching: %.3f -> %.3f", cacheNone, cacheFast)
	}
	// Prediction must degrade far less than caching does.
	cacheLoss := cacheNone - cacheFast
	predLoss := predNone - predFast
	if predLoss > cacheLoss/2+0.02 {
		t.Fatalf("prediction lost %.3f vs cache loss %.3f — asymmetry missing", predLoss, cacheLoss)
	}
}

func TestIntegrityShape(t *testing.T) {
	opt := quickOpts()
	opt.Benchmarks = []string{"mcf"}
	res, err := Integrity(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	for scheme, ratio := range map[string]float64{
		"baseline":     res.Series["normalized_ipc"]["baseline"],
		"pred-regular": res.Series["normalized_ipc"]["pred-regular"],
	} {
		if ratio <= 0 || ratio > 1.0001 {
			t.Fatalf("%s tree/no-tree IPC ratio = %.3f, want (0, 1]", scheme, ratio)
		}
	}
}

func TestHybridShape(t *testing.T) {
	opt := quickOpts()
	opt.Benchmarks = []string{"mcf"}
	res, err := Hybrid(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	v := res.Series["normalized_ipc"]
	if v["prediction-only"] <= v["baseline"] {
		t.Fatalf("prediction (%.3f) not above baseline (%.3f)", v["prediction-only"], v["baseline"])
	}
	if v["hybrid"] < v["prediction-only"]-0.02 {
		t.Fatalf("hybrid (%.3f) below prediction alone (%.3f)", v["hybrid"], v["prediction-only"])
	}
}

func TestSeqCacheSweepShape(t *testing.T) {
	opt := quickOpts()
	opt.Benchmarks = []string{"mcf", "vpr"}
	res, err := SeqCacheSweep(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	h := res.Series["hit_rate"]
	if h["1024KB"] < h["4KB"] {
		t.Fatalf("hit rate fell with size: %.3f -> %.3f", h["4KB"], h["1024KB"])
	}
	// The motivating contrast: prediction with zero storage beats the
	// mid-sized caches on these pointer-chasing benchmarks.
	if h["prediction (0KB)"] <= h["128KB"] {
		t.Fatalf("prediction (%.3f) not above 128KB cache (%.3f)", h["prediction (0KB)"], h["128KB"])
	}
}

func TestValuePredictionShape(t *testing.T) {
	opt := quickOpts()
	opt.Benchmarks = []string{"mcf"}
	res, err := ValuePrediction(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	v := res.Series["normalized_ipc"]
	// On pointer chasing, value locality is poor: LVP alone cannot match
	// counter prediction (the paper's §9.3 distinction).
	if v["lvp-only"] >= v["otp-pred-only"] {
		t.Fatalf("LVP alone (%.3f) matched OTP prediction (%.3f) on mcf", v["lvp-only"], v["otp-pred-only"])
	}
	if v["otp-pred+lvp"] < v["otp-pred-only"]-0.02 {
		t.Fatalf("adding LVP hurt (%.3f vs %.3f)", v["otp-pred+lvp"], v["otp-pred-only"])
	}
}

// TestGridsResolveOmittedDefaults: every grid resolves zero-valued
// options to DefaultOptions' values, as Options.Scale's doc promises, so
// omitting a default and spelling it out give byte-equal snapshots.
func TestGridsResolveOmittedDefaults(t *testing.T) {
	omitted := Options{Benchmarks: []string{"parser"}, Scale: workload.Scale{Instructions: 2_000}}
	spelled := DefaultOptions()
	spelled.Benchmarks = omitted.Benchmarks
	spelled.Scale.Instructions = omitted.Scale.Instructions
	spelled.MaxTenants, spelled.SLOMaxSlowdown = 8, 8
	for _, id := range IDs() {
		if !Partitionable(id) {
			continue
		}
		t.Run(id, func(t *testing.T) {
			var snaps [2][]byte
			for i, opt := range []Options{omitted, spelled} {
				res, err := ByID(context.Background(), id, opt)
				if err != nil {
					t.Fatal(err)
				}
				if snaps[i], err = res.Snapshot().JSON(); err != nil {
					t.Fatal(err)
				}
			}
			if !bytes.Equal(snaps[0], snaps[1]) {
				t.Errorf("omitted defaults differ from spelled defaults:\n%s\nvs\n%s", snaps[0], snaps[1])
			}
		})
	}
}

func TestOptionsNormalized(t *testing.T) {
	o := Options{}.normalized()
	if o.Scale.Footprint == 0 || o.Scale.Instructions == 0 || len(o.Benchmarks) != 14 || o.Seed == 0 {
		t.Fatalf("normalized options incomplete: %+v", o)
	}
}

func TestL2Name(t *testing.T) {
	if l2Name(256<<10) != "256KB" || l2Name(1<<20) != "1MB" {
		t.Fatal("l2Name wrong")
	}
}

// TestBenchmarkOrderIrrelevant runs every experiment over a benchmark
// list and its reverse: the snapshots must match byte for byte. The
// averaged studies sum one value per benchmark, and floating-point sums
// depend on their order, so they must sum in one order whatever the
// caller's. At this scale and seed, summing in request order makes all
// six of them (ablation, ctxswitch, integrity, hybrid, seqsweep,
// valuepred) differ.
func TestBenchmarkOrderIrrelevant(t *testing.T) {
	benchmarks := []string{"gzip", "mcf", "swim", "twolf", "art"}
	for _, id := range IDs() {
		t.Run(id, func(t *testing.T) {
			var snaps [2][]byte
			for i := range snaps {
				opt := Options{
					Scale:      workload.Scale{Footprint: 64 << 10, Instructions: 5_000},
					Benchmarks: slices.Clone(benchmarks),
					Seed:       5,
					Workers:    2,
				}
				if i == 1 {
					slices.Reverse(opt.Benchmarks)
				}
				res, err := ByID(context.Background(), id, opt)
				if err != nil {
					t.Fatal(err)
				}
				if snaps[i], err = res.Snapshot().JSON(); err != nil {
					t.Fatal(err)
				}
			}
			if !bytes.Equal(snaps[0], snaps[1]) {
				t.Errorf("%v and its reverse export different snapshots", benchmarks)
			}
		})
	}
}
