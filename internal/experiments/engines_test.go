package experiments

import (
	"context"
	"reflect"
	"testing"

	"ctrpred/internal/cryptoengine"
	"ctrpred/internal/sim"
)

// enginesOpts shrinks the engines grid for tests: two benchmarks at the
// quick scale. Performance mode is what the experiment runs, so no
// window stretching applies.
func enginesOpts() Options {
	opt := quickOpts()
	opt.Benchmarks = []string{"mcf", "gzip"}
	return opt
}

// TestEnginesDeterministic: the engines experiment's table and series
// are byte-identical at -j 1 and -j 4 for the same seed.
func TestEnginesDeterministic(t *testing.T) {
	seq := enginesOpts()
	seq.Workers = 1
	par := enginesOpts()
	par.Workers = 4

	a, err := ByID(context.Background(), "engines", seq)
	if err != nil {
		t.Fatalf("sequential: %v", err)
	}
	b, err := ByID(context.Background(), "engines", par)
	if err != nil {
		t.Fatalf("parallel: %v", err)
	}
	if a.Table.String() != b.Table.String() {
		t.Fatalf("parallel table differs from sequential:\n--- j=1 ---\n%s\n--- j=4 ---\n%s", a.Table, b.Table)
	}
	if !reflect.DeepEqual(a.Series, b.Series) {
		t.Fatalf("parallel series differ from sequential:\n%v\nvs\n%v", a.Series, b.Series)
	}
	if a.Notes != b.Notes {
		t.Fatalf("notes differ: %q vs %q", a.Notes, b.Notes)
	}
}

// TestEnginesShape checks the experiment's structure and the claims it
// exists to make: one column per engine spec, every edge positive, the
// bipbip column's average edge at or below the slowest AES column's
// (when decryption is nearly free there is nearly nothing to predict
// around), and a crossover series present.
func TestEnginesShape(t *testing.T) {
	res, err := ByID(context.Background(), "engines", enginesOpts())
	if err != nil {
		t.Fatal(err)
	}
	specs := enginesColumns()
	for _, spec := range specs {
		col, ok := res.Series[spec.String()]
		if !ok {
			t.Fatalf("missing series %q", spec.String())
		}
		for bench, v := range col {
			if v <= 0 {
				t.Errorf("%s/%s edge = %v, want > 0", spec, bench, v)
			}
		}
	}
	slowest := cryptoengine.Spec{Model: cryptoengine.ModelAES, LatencyCycles: 192}.Normalized()
	bipbip := cryptoengine.Spec{Model: cryptoengine.ModelBipBip}.Normalized()
	if res.Series[bipbip.String()]["Average"] > res.Series[slowest.String()]["Average"] {
		t.Errorf("bipbip average edge %v above aes:lat=192's %v — prediction should matter least when decryption is cheapest",
			res.Series[bipbip.String()]["Average"], res.Series[slowest.String()]["Average"])
	}
	if _, ok := res.Series["crossover"]["aes_latency_cycles"]; !ok {
		t.Error("missing crossover series")
	}
	if res.Notes == "" {
		t.Error("missing interpretation note")
	}
}

// TestOptionsEngineThreads: Options.Engine reaches the per-simulation
// configs of ordinary experiments (the engines experiment ignores it).
func TestOptionsEngineThreads(t *testing.T) {
	opt := quickOpts().normalized()
	opt.Engine = cryptoengine.Spec{Model: cryptoengine.ModelBipBip}
	for name, engine := range map[string]cryptoengine.Spec{
		"perf":    perfConfig(opt, sim.SchemeBaseline(), 256<<10).Engine,
		"hitrate": hitRateConfig(opt, sim.SchemeBaseline(), 256<<10).Engine,
	} {
		if engine.Model != cryptoengine.ModelBipBip {
			t.Errorf("%sConfig engine = %+v, want bipbip", name, engine)
		}
	}
}
