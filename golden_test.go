// Determinism guard: the fast paths (the standard library's AES and
// SHA-256 kernels, batched pads, map-free memory state and tree nodes)
// must not change a single byte of experiment output. These
// tests pin the fig7 and fig10 tables and a Result.Snapshot JSON at the
// 100k-instruction bench scale (fixed seed) against golden fixtures in
// testdata/. Regenerate with
//
//	go test -run TestGolden -update
//
// only when an intentional modeling change alters the numbers.
package ctrpred

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden fixtures in testdata/")

// goldenOptions matches benchOptions: default (paper-scale) footprint,
// 100k-instruction window, seed 1.
func goldenOptions() ExperimentOptions {
	opt := DefaultOptions()
	opt.Scale.Instructions = 100_000
	return opt
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden fixture (run `go test -run TestGolden -update`): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden fixture (-want +got):\n--- want ---\n%s\n--- got ---\n%s", name, want, got)
	}
}

// TestGoldenFig7Table pins the Figure 7 hit-rate table byte-for-byte.
func TestGoldenFig7Table(t *testing.T) {
	res, err := RunExperiment("fig7", goldenOptions())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "golden_fig7.txt", []byte(fmt.Sprintf("%s\n", res.Table)))
}

// TestGoldenFig10Table pins the Figure 10 normalized-IPC table.
func TestGoldenFig10Table(t *testing.T) {
	res, err := RunExperiment("fig10", goldenOptions())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "golden_fig10.txt", []byte(fmt.Sprintf("%s\n", res.Table)))
}

// TestGoldenTenantsTable pins the multi-tenant interference matrix on a
// small grid (two benchmarks, 20k-instruction slices): the seeded
// arrival schedules, global-virtual-time slowdowns and SLO percentiles
// must reproduce byte-for-byte across machines and worker counts.
func TestGoldenTenantsTable(t *testing.T) {
	opt := goldenOptions()
	opt.Benchmarks = []string{"gzip", "mcf"}
	opt.Scale.Instructions = 20_000
	res, err := RunExperiment("tenants", opt)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "golden_tenants.txt", []byte(fmt.Sprintf("%s\n", res.Table)))
}

// TestGoldenRunSnapshot pins the full metrics snapshot of a single run —
// every counter in every component — so any behavioral drift in the
// caches, DRAM, engine, predictor or controller is caught, not just the
// figures' headline numbers.
func TestGoldenRunSnapshot(t *testing.T) {
	cfg := DefaultConfig(SchemePred(PredContext))
	cfg.Scale = Scale{Footprint: 1 << 20, Instructions: 100_000}
	res, err := Run("mcf", cfg)
	if err != nil {
		t.Fatal(err)
	}
	js, err := res.Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "golden_mcf_context_snapshot.json", append(js, '\n'))
}
