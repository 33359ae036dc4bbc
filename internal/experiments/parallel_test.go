package experiments

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"ctrpred/internal/runpool"
)

// TestParallelSweepDeterministic is the tentpole guarantee: a sweep at
// Workers=4 produces byte-identical tables and identical series to
// Workers=1 for the same seed.
func TestParallelSweepDeterministic(t *testing.T) {
	for _, id := range []string{"fig7", "fig10", "seqsweep"} {
		opt := quickOpts()
		if id == "fig10" {
			opt.Benchmarks = []string{"mcf", "gzip", "swim"}
		}

		seq := opt
		seq.Workers = 1
		par := opt
		par.Workers = 4

		a, err := ByID(context.Background(), id, seq)
		if err != nil {
			t.Fatalf("%s sequential: %v", id, err)
		}
		b, err := ByID(context.Background(), id, par)
		if err != nil {
			t.Fatalf("%s parallel: %v", id, err)
		}
		if a.Table.String() != b.Table.String() {
			t.Fatalf("%s: parallel table differs from sequential:\n--- j=1 ---\n%s\n--- j=4 ---\n%s",
				id, a.Table, b.Table)
		}
		if !reflect.DeepEqual(a.Series, b.Series) {
			t.Fatalf("%s: parallel series differ from sequential:\n%v\nvs\n%v", id, a.Series, b.Series)
		}
	}
}

// TestSweepProgressUpdates checks the per-simulation progress plumbing:
// one update per (benchmark, scheme) cell — also where a benchmark's
// cells run as one row — labels carrying the figure id, and Done
// counting cells from 1 to the grid's size.
func TestSweepProgressUpdates(t *testing.T) {
	// quickOpts runs 3 benchmarks.
	for _, tc := range []struct {
		id, prefix string
		cells      int
	}{
		{"fig7", "Figure 7 ", 3 * 3},
		{"fig12", "Figure 12 ", 3 * 3},
		{"seqsweep", "SeqCacheSweep ", 3 * 8},
		{"ctxswitch", "ContextSwitch ", 3 * 4 * 2},
		{"ablation", "Ablation ", 3 * 10},
	} {
		t.Run(tc.id, func(t *testing.T) {
			opt := quickOpts()
			opt.Workers = 2
			var updates []runpool.Update
			opt.Progress = func(u runpool.Update) { updates = append(updates, u) }
			if _, err := ByID(context.Background(), tc.id, opt); err != nil {
				t.Fatal(err)
			}
			if len(updates) != tc.cells {
				t.Fatalf("%d progress updates, want %d", len(updates), tc.cells)
			}
			for i, u := range updates {
				if !strings.HasPrefix(u.Label, tc.prefix) {
					t.Fatalf("progress label %q missing figure id %q", u.Label, tc.prefix)
				}
				if u.Done != i+1 || u.Total != tc.cells {
					t.Fatalf("update %d reads %d/%d, want %d/%d", i, u.Done, u.Total, i+1, tc.cells)
				}
			}
		})
	}
}

// TestSweepErrorLabeled checks a failing simulation fails its sweep with
// the figure/benchmark/scheme context, not a bare error.
func TestSweepErrorLabeled(t *testing.T) {
	opt := quickOpts()
	opt.Benchmarks = []string{"nonesuch"}
	opt.Workers = 4
	_, err := Figure7(context.Background(), opt)
	if err == nil {
		t.Fatal("sweep over an unknown benchmark succeeded")
	}
	for _, want := range []string{"Figure 7", "nonesuch"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q missing %q", err, want)
		}
	}
}
