package experiments

import (
	"context"
	"errors"
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

// TestOracleCellsInFigurePool checks that the oracle runs a
// normalized-IPC experiment divides by are cells of its one pool: at one
// worker, progress counts every cell once from 1 to the whole set, each
// label carries the experiment's id, and a run cancelled at its first
// cell reports a PartialError over the whole set.
func TestOracleCellsInFigurePool(t *testing.T) {
	for _, tc := range []struct {
		id, prefix string
		cells      int // per benchmark: the oracle plus the table's columns or rows
	}{
		{"fig10", "Figure 10 ", 1 + 4},
		{"fig15", "Figure 15 ", 1 + 3},
		{"hybrid", "Hybrid ", 1 + 4},
		{"valuepred", "ValuePrediction ", 1 + 4},
	} {
		t.Run(tc.id, func(t *testing.T) {
			opt := quickOpts()
			opt.Scale.Instructions = 5_000
			opt.Benchmarks = []string{"mcf", "gzip"}
			opt.Workers = 1
			total := tc.cells * len(opt.Benchmarks)
			var updates []runpool.Update
			opt.Progress = func(u runpool.Update) { updates = append(updates, u) }
			if _, err := ByID(context.Background(), tc.id, opt); err != nil {
				t.Fatal(err)
			}
			if len(updates) != total {
				t.Fatalf("%d progress updates, want %d", len(updates), total)
			}
			oracles := 0
			for i, u := range updates {
				if !strings.HasPrefix(u.Label, tc.prefix) {
					t.Fatalf("progress label %q missing id %q", u.Label, tc.prefix)
				}
				if u.Done != i+1 || u.Total != total {
					t.Fatalf("update %d (%s) reads %d/%d, want %d/%d", i, u.Label, u.Done, u.Total, i+1, total)
				}
				if strings.HasSuffix(u.Label, "/oracle") {
					oracles++
				}
			}
			if oracles != len(opt.Benchmarks) {
				t.Fatalf("%d oracle cells, want one per benchmark", oracles)
			}

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var first []string
			opt.Progress = func(u runpool.Update) {
				first = append(first, u.Label)
				cancel()
			}
			_, err := ByID(ctx, tc.id, opt)
			var pe *runpool.PartialError
			if !errors.As(err, &pe) {
				t.Fatalf("cancelled run: %v, want a *runpool.PartialError", err)
			}
			if pe.Total != total || !reflect.DeepEqual(pe.Completed, first) {
				t.Fatalf("partial progress %v of %d, want %v of %d", pe.Completed, pe.Total, first, total)
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
	_, err := ByID(context.Background(), "fig7", opt)
	if err == nil {
		t.Fatal("sweep over an unknown benchmark succeeded")
	}
	for _, want := range []string{"Figure 7", "nonesuch"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q missing %q", err, want)
		}
	}
}
