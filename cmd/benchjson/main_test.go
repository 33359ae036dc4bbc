package main

import (
	"io"
	"strconv"
	"strings"
	"testing"
)

func TestParseBenchLine(t *testing.T) {
	b, ok := parseBenchLine("BenchmarkSingleRunMcfContext-8 \t       5\t  15519015 ns/op\t   3221904 sim_instrs/s\t 4546041 B/op\t     533 allocs/op")
	if !ok {
		t.Fatal("line not recognized")
	}
	if b.Name != "SingleRunMcfContext" {
		t.Errorf("Name = %q", b.Name)
	}
	if b.Iterations != 5 {
		t.Errorf("Iterations = %d", b.Iterations)
	}
	want := map[string]float64{
		"ns/op": 15519015, "sim_instrs/s": 3221904, "B/op": 4546041, "allocs/op": 533,
	}
	for unit, v := range want {
		if b.Metrics[unit] != v {
			t.Errorf("Metrics[%q] = %v, want %v", unit, b.Metrics[unit], v)
		}
	}
}

func TestParseBenchLineNoProcsSuffix(t *testing.T) {
	b, ok := parseBenchLine("BenchmarkFigure4Timeline \t 3\t 123456 ns/op")
	if !ok || b.Name != "Figure4Timeline" {
		t.Fatalf("parse = %+v, %v", b, ok)
	}
}

// TestCheckLabelRejectsDuplicates pins the duplicate-label guard: an
// existing label is refused, a fresh one is fine, and -force overrides.
func TestCheckLabelRejectsDuplicates(t *testing.T) {
	ledger := &Ledger{Runs: []RunEntry{
		{Label: "before", Date: "2026-01-01T00:00:00Z"},
		{Label: "after", Date: "2026-01-02T00:00:00Z"},
	}}
	if err := checkLabel(ledger, "after", false); err == nil {
		t.Error("duplicate label accepted without -force")
	}
	if err := checkLabel(ledger, "after", true); err != nil {
		t.Errorf("-force still rejected duplicate: %v", err)
	}
	if err := checkLabel(ledger, "after-v2", false); err != nil {
		t.Errorf("fresh label rejected: %v", err)
	}
	if err := checkLabel(&Ledger{}, "first", false); err != nil {
		t.Errorf("empty ledger rejected: %v", err)
	}
}

// TestCompareRuns pins the regression-warning logic: cost metrics warn
// when they rise >10%, throughput metrics when they fall >10%, moves
// inside the threshold and improvements stay quiet. A benchmark present
// in only one run is reported as added or removed (units without a
// counterpart are still skipped silently — a new b.ReportMetric is not
// a suite change).
func TestCompareRuns(t *testing.T) {
	prev := RunEntry{Label: "before", Date: "2026-01-01T00:00:00Z", Benchmarks: []Benchmark{
		{Name: "Hot", Metrics: map[string]float64{"ns/op": 100, "sim_instrs/s": 10_000_000, "B/op": 1000}},
		{Name: "Gone", Metrics: map[string]float64{"ns/op": 50}},
	}}
	cur := RunEntry{Label: "after", Benchmarks: []Benchmark{
		{Name: "Hot", Metrics: map[string]float64{
			"ns/op":        125,       // +25%: cost regression, warn
			"sim_instrs/s": 8_000_000, // -20%: throughput regression, warn
			"B/op":         1050,      // +5%: inside threshold, quiet
			"allocs/op":    999,       // no counterpart unit in prev, skip
		}},
		{Name: "New", Metrics: map[string]float64{"ns/op": 1}}, // report as added
	}}
	warnings := compareRuns(prev, cur)
	if len(warnings) != 4 {
		t.Fatalf("got %d warnings %v, want 4", len(warnings), warnings)
	}
	for _, want := range []string{
		"ns/op regressed +25.0%",
		"sim_instrs/s regressed -20.0%",
		"New added",
		"Gone removed",
	} {
		found := false
		for _, w := range warnings {
			if strings.Contains(w, want) {
				found = true
			}
		}
		if !found {
			t.Errorf("no warning containing %q in %v", want, warnings)
		}
	}

	// Improvements never warn, in either direction; only the dropped
	// benchmark is reported.
	better := RunEntry{Label: "faster", Benchmarks: []Benchmark{
		{Name: "Hot", Metrics: map[string]float64{"ns/op": 50, "sim_instrs/s": 20_000_000}},
	}}
	if w := compareRuns(prev, better); len(w) != 1 || !strings.Contains(w[0], "Gone removed") {
		t.Errorf("improvement run: warnings = %v, want only the removal of Gone", w)
	}
}

// TestCompareRunsDisjointSuites reproduces the ledger shape that
// motivated the added/removed reporting: the pr8-cluster entry
// (ClusterSweepNodes1/2/4) followed by the pr9-chaos entry
// (ClusterChaosNodes1/2/4) share no benchmark at all. The old
// compareRuns returned nothing — indistinguishable from "compared
// everything, no movement" — where it must now say every benchmark
// changed hands.
func TestCompareRunsDisjointSuites(t *testing.T) {
	m := func() map[string]float64 { return map[string]float64{"ns/op": 1e9, "sim_instrs/s": 1e7} }
	prev := RunEntry{Label: "pr8-cluster", Date: "2026-01-01T00:00:00Z", Benchmarks: []Benchmark{
		{Name: "ClusterSweepNodes1", Metrics: m()},
		{Name: "ClusterSweepNodes2", Metrics: m()},
		{Name: "ClusterSweepNodes4", Metrics: m()},
	}}
	cur := RunEntry{Label: "pr9-chaos", Benchmarks: []Benchmark{
		{Name: "ClusterChaosNodes1", Metrics: m()},
		{Name: "ClusterChaosNodes2", Metrics: m()},
		{Name: "ClusterChaosNodes4", Metrics: m()},
	}}
	warnings := compareRuns(prev, cur)
	if len(warnings) != 6 {
		t.Fatalf("got %d warnings %v, want 6 (3 added + 3 removed)", len(warnings), warnings)
	}
	for _, n := range []int{1, 2, 4} {
		wantAdd := "ClusterChaosNodes" + strconv.Itoa(n) + " added"
		wantGone := "ClusterSweepNodes" + strconv.Itoa(n) + " removed"
		for _, want := range []string{wantAdd, wantGone} {
			found := false
			for _, w := range warnings {
				if strings.Contains(w, want) {
					found = true
				}
			}
			if !found {
				t.Errorf("no warning containing %q in %v", want, warnings)
			}
		}
	}
	// No spurious metric regressions between unrelated benchmarks.
	for _, w := range warnings {
		if strings.Contains(w, "regressed") {
			t.Errorf("disjoint suites produced a metric regression: %q", w)
		}
	}
}

// TestCompareRunsMultiRound pins that a multi-round entry (-count N, or
// concatenated runs) is compared once per name: an added or removed
// benchmark is one line, not one per round, and a metric is judged on
// its mean over the rounds.
func TestCompareRunsMultiRound(t *testing.T) {
	rounds := func(n int, bs ...Benchmark) []Benchmark {
		var out []Benchmark
		for i := 0; i < n; i++ {
			out = append(out, bs...)
		}
		return out
	}
	ns := func(v float64) map[string]float64 { return map[string]float64{"ns/op": v} }
	prev := RunEntry{Label: "before", Date: "2026-01-01T00:00:00Z", Benchmarks: rounds(3,
		Benchmark{Name: "Hot", Metrics: ns(100)},
		Benchmark{Name: "Gone", Metrics: ns(50)},
	)}
	for _, tc := range []struct {
		name string
		cur  []Benchmark
		want []string
	}{
		{"added and removed", rounds(3,
			Benchmark{Name: "Hot", Metrics: ns(100)},
			Benchmark{Name: "New", Metrics: ns(1)},
		), []string{"Gone removed", "New added"}},
		{"rounds averaged", append(rounds(2,
			Benchmark{Name: "Hot", Metrics: ns(130)}, // each round +30%
			Benchmark{Name: "Gone", Metrics: ns(50)},
		), Benchmark{Name: "Hot", Metrics: ns(40)}), // mean 100: no movement
			nil},
		{"one regression per metric", rounds(3,
			Benchmark{Name: "Hot", Metrics: ns(125)},
			Benchmark{Name: "Gone", Metrics: ns(50)},
		), []string{"Hot ns/op regressed +25.0%"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			warnings := compareRuns(prev, RunEntry{Label: "after", Benchmarks: tc.cur})
			if len(warnings) != len(tc.want) {
				t.Fatalf("got %d warnings %v, want %d", len(warnings), warnings, len(tc.want))
			}
			for i, want := range tc.want {
				if !strings.Contains(warnings[i], want) {
					t.Errorf("warning %d = %q, want it to contain %q", i, warnings[i], want)
				}
			}
		})
	}
}

// TestReadRunRounds feeds readRun two concatenated rounds of `go test
// -bench` output: the goos/goarch/cpu headers each round repeats are
// recorded once, every result line is kept, and a FAIL or an empty
// stream is refused.
func TestReadRunRounds(t *testing.T) {
	round := `goos: linux
goarch: amd64
pkg: ctrpred
cpu: Test CPU @ 2.00GHz
BenchmarkHot-2   	       1	   1000 ns/op	  2000 sim_instrs/s
BenchmarkCold-2  	       1	   3000 ns/op
PASS
ok  	ctrpred	1.234s
`
	var echo strings.Builder
	entry, err := readRun(strings.NewReader(round+round), &echo)
	if err != nil {
		t.Fatal(err)
	}
	if entry.Go != "goos: linux goarch: amd64" {
		t.Errorf("Go = %q, want each header once", entry.Go)
	}
	if entry.CPU != "Test CPU @ 2.00GHz" {
		t.Errorf("CPU = %q", entry.CPU)
	}
	if len(entry.Benchmarks) != 4 {
		t.Errorf("got %d benchmarks, want 4 (two per round)", len(entry.Benchmarks))
	}
	if echo.String() != round+round {
		t.Error("input stream not echoed verbatim")
	}
	for _, bad := range []string{round + "FAIL\tctrpred\n", "goos: linux\nPASS\n"} {
		if _, err := readRun(strings.NewReader(bad), io.Discard); err == nil {
			t.Errorf("readRun(%q) accepted", bad)
		}
	}
}

func TestParseBenchLineRejectsNonResults(t *testing.T) {
	for _, line := range []string{
		"goos: linux",
		"BenchmarkFoo", // no fields
		"PASS",
		"BenchmarkBar \t x\t 5 ns/op",
		"--- BENCH: BenchmarkBaz",
	} {
		if _, ok := parseBenchLine(line); ok {
			t.Errorf("parseBenchLine(%q) accepted", line)
		}
	}
}
