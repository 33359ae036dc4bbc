package experiments

import (
	"bytes"
	"context"
	"testing"

	"ctrpred/internal/workload"
)

// mergeOpts keeps the split/merge tests fast: three benchmarks at a
// tiny instruction window (hit-rate figures still multiply it by 20).
func mergeOpts() Options {
	return Options{
		Scale:      workload.Scale{Footprint: 1 << 20, Instructions: 2_000},
		Benchmarks: []string{"gzip", "mcf", "swim"},
		Seed:       5,
	}
}

// runParts runs id once per benchmark and round-trips each part through
// its snapshot JSON — the wire form a cluster worker returns — so the
// merge sees exactly what a coordinator would.
func runParts(t *testing.T, id string, opt Options) []Result {
	t.Helper()
	parts := make([]Result, 0, len(opt.Benchmarks))
	for _, bench := range opt.Benchmarks {
		sub := opt
		sub.Benchmarks = []string{bench}
		res, err := ByID(context.Background(), id, sub)
		if err != nil {
			t.Fatalf("%s part %s: %v", id, bench, err)
		}
		body, err := res.Snapshot().JSON()
		if err != nil {
			t.Fatalf("%s part %s snapshot: %v", id, bench, err)
		}
		part, err := DecodeResultSnapshot(body)
		if err != nil {
			t.Fatalf("%s part %s decode: %v", id, bench, err)
		}
		parts = append(parts, part)
	}
	return parts
}

// TestMergePartsByteIdentical is the distribution contract: running an
// experiment one benchmark at a time (each part serialized over the
// wire form) and merging must reproduce the full-grid run byte for byte
// — rendered table and snapshot JSON both.
func TestMergePartsByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-experiment sweep in -short mode")
	}
	opt := mergeOpts()
	for _, id := range IDs() {
		if !Partitionable(id) {
			continue
		}
		t.Run(id, func(t *testing.T) {
			full, err := ByID(context.Background(), id, opt)
			if err != nil {
				t.Fatalf("full %s: %v", id, err)
			}
			wantTable := full.Table.String()
			wantJSON, err := full.Snapshot().JSON()
			if err != nil {
				t.Fatalf("full snapshot: %v", err)
			}

			merged, err := MergeParts(id, runParts(t, id, opt))
			if err != nil {
				t.Fatalf("MergeParts: %v", err)
			}
			if got := merged.Table.String(); got != wantTable {
				t.Errorf("merged table differs from full run:\n--- merged ---\n%s\n--- full ---\n%s", got, wantTable)
			}
			gotJSON, err := merged.Snapshot().JSON()
			if err != nil {
				t.Fatalf("merged snapshot: %v", err)
			}
			if !bytes.Equal(gotJSON, wantJSON) {
				t.Errorf("merged snapshot differs from full run:\n--- merged ---\n%s\n--- full ---\n%s", gotJSON, wantJSON)
			}
		})
	}
}

// TestPartitionable pins the whitelist: per-benchmark experiments
// partition, everything whose rows are not benchmarks does not.
func TestPartitionable(t *testing.T) {
	for _, id := range []string{"fig7", "fig8", "fig9", "fig10", "fig11",
		"fig12", "fig13", "fig14", "fig15", "fig16", "engines", "tenants",
		"capacity"} {
		if !Partitionable(id) {
			t.Errorf("Partitionable(%q) = false, want true", id)
		}
	}
	for _, id := range []string{"table1", "fig4", "ablation", "ctxswitch",
		"integrity", "hybrid", "seqsweep", "valuepred", "attack", "bogus"} {
		if Partitionable(id) {
			t.Errorf("Partitionable(%q) = true, want false", id)
		}
	}
}

// TestMergePartsValidation covers the failure modes a coordinator must
// surface instead of assembling a wrong table.
func TestMergePartsValidation(t *testing.T) {
	if _, err := MergeParts("attack", nil); err == nil {
		t.Error("MergeParts on a non-partitionable id succeeded")
	}
	if _, err := MergeParts("fig7", nil); err == nil {
		t.Error("MergeParts with no parts succeeded")
	}
	// A part missing one column's value for its benchmark is incomplete.
	broken := Result{ID: "Figure 7", Series: map[string]map[string]float64{
		"128K_Seq#_Cache": {"mcf": 0.5},
		"512K_Seq#_Cache": {"mcf": 0.6},
		// "Pred" column absent for mcf
	}}
	if _, err := MergeParts("fig7", []Result{broken}); err == nil {
		t.Error("MergeParts with a missing column succeeded")
	}
	// Parts that disagree on a shared cell must be rejected, not merged.
	a := Result{ID: "Figure 7", Series: map[string]map[string]float64{
		"128K_Seq#_Cache": {"mcf": 0.5}, "512K_Seq#_Cache": {"mcf": 0.6}, "Pred": {"mcf": 0.7},
	}}
	b := Result{ID: "Figure 7", Series: map[string]map[string]float64{
		"128K_Seq#_Cache": {"mcf": 0.4}, "512K_Seq#_Cache": {"mcf": 0.6}, "Pred": {"mcf": 0.7},
	}}
	if _, err := MergeParts("fig7", []Result{a, b}); err == nil {
		t.Error("MergeParts with disagreeing parts succeeded")
	}
	// A part of another grid is rejected, even as the only part.
	if _, err := MergeParts("fig8", []Result{a}); err == nil {
		t.Error("MergeParts merged a Figure 7 part as fig8")
	}
}
