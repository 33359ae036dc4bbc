package main

import (
	"io"
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
// inside the threshold and improvements stay quiet, and units without a
// counterpart are skipped silently (a new b.ReportMetric is not a suite
// change).
func TestCompareRuns(t *testing.T) {
	prev := RunEntry{Label: "before", Date: "2026-01-01T00:00:00Z", Benchmarks: []Benchmark{
		{Name: "Hot", Metrics: map[string]float64{"ns/op": 100, "sim_instrs/s": 10_000_000, "B/op": 1000}},
		{Name: "Cold", Metrics: map[string]float64{"ns/op": 50}},
	}}
	cur := RunEntry{Label: "after", Benchmarks: []Benchmark{
		{Name: "Hot", Metrics: map[string]float64{
			"ns/op":        125,       // +25%: cost regression, warn
			"sim_instrs/s": 8_000_000, // -20%: throughput regression, warn
			"B/op":         1050,      // +5%: inside threshold, quiet
			"allocs/op":    999,       // no counterpart unit in prev, skip
		}},
		{Name: "Cold", Metrics: map[string]float64{"ns/op": 50}},
	}}
	warnings := compareRuns(prev, cur)
	if len(warnings) != 2 {
		t.Fatalf("got %d warnings %v, want 2", len(warnings), warnings)
	}
	for _, want := range []string{
		"ns/op regressed +25.0%",
		"sim_instrs/s regressed -20.0%",
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

	// Improvements never warn, in either direction.
	better := RunEntry{Label: "faster", Benchmarks: []Benchmark{
		{Name: "Hot", Metrics: map[string]float64{"ns/op": 50, "sim_instrs/s": 20_000_000}},
		{Name: "Cold", Metrics: map[string]float64{"ns/op": 40}},
	}}
	if w := compareRuns(prev, better); len(w) != 0 {
		t.Errorf("improvement run: warnings = %v, want none", w)
	}
}

// TestCompareRunsMultiRound pins that a multi-round entry (-count N, or
// concatenated runs) is compared once per name: a metric is judged on
// its mean over the rounds and warns at most once.
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
		Benchmark{Name: "Cold", Metrics: ns(50)},
	)}
	for _, tc := range []struct {
		name string
		cur  []Benchmark
		want []string
	}{
		{"rounds averaged", append(rounds(2,
			Benchmark{Name: "Hot", Metrics: ns(130)}, // each round +30%
			Benchmark{Name: "Cold", Metrics: ns(50)},
		), Benchmark{Name: "Hot", Metrics: ns(40)}), // mean 100: no movement
			nil},
		{"one regression per metric", rounds(3,
			Benchmark{Name: "Hot", Metrics: ns(125)},
			Benchmark{Name: "Cold", Metrics: ns(50)},
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

// TestBaselineSameSuite pins the baseline choice: the most recent
// earlier entry that ran exactly the fresh entry's benchmark names, in
// any order and any number of rounds, past more recent entries of other
// suites; with none, report says so in one warning line.
func TestBaselineSameSuite(t *testing.T) {
	ns := map[string]float64{"ns/op": 1}
	suite := func(label string, names ...string) RunEntry {
		e := RunEntry{Label: label}
		for _, n := range names {
			e.Benchmarks = append(e.Benchmarks, Benchmark{Name: n, Metrics: ns})
		}
		return e
	}
	runs := []RunEntry{
		suite("old-ab", "A", "B"),
		suite("full", "A", "B", "C"),
		suite("ab", "B", "A", "B", "A"), // two rounds
		suite("cluster", "X"),
		suite("subset", "A"),
	}
	for _, tc := range []struct {
		cur  RunEntry
		want string // "" for no baseline
	}{
		{suite("new-ab", "A", "B"), "ab"},
		{suite("new-full", "C", "B", "A"), "full"},
		{suite("new-cluster", "X"), "cluster"},
		{suite("new-subset", "A"), "subset"},
		{suite("other", "A", "Z"), ""},
	} {
		base, ok := baselineFor(runs, tc.cur)
		if got := map[bool]string{true: base.Label}[ok]; got != tc.want {
			t.Errorf("%s: baseline %q, want %q", tc.cur.Label, got, tc.want)
		}
	}

	var out strings.Builder
	report(&out, "BENCH_sim.json", runs, suite("other", "A", "Z"))
	if want := "benchjson: WARNING: no earlier entry in BENCH_sim.json ran the same 2 benchmarks; nothing compared\n"; out.String() != want {
		t.Errorf("report without a baseline = %q, want %q", out.String(), want)
	}
}

// TestVerdicts pins the per-benchmark verdict: the rounds the fresh entry
// won on ns/op, round by round, and both medians; a benchmark whose
// entries ran different numbers of rounds gets no verdict.
func TestVerdicts(t *testing.T) {
	entry := func(label string, hot, cold []float64) RunEntry {
		e := RunEntry{Label: label}
		for _, v := range hot {
			e.Benchmarks = append(e.Benchmarks, Benchmark{Name: "Hot", Metrics: map[string]float64{"ns/op": v}})
		}
		for _, v := range cold {
			e.Benchmarks = append(e.Benchmarks, Benchmark{Name: "Cold", Metrics: map[string]float64{"ns/op": v}})
		}
		return e
	}
	base := entry("x-parent", []float64{100, 110, 90, 105}, []float64{50, 50})
	base.Date = "2026-01-01T00:00:00Z"
	cur := entry("x", []float64{95, 112, 80, 100}, []float64{40})
	got := verdicts(base, cur)
	want := []string{`Hot ns/op: won 3 of 4 rounds against "x-parent"; median 102.5 -> 97.5`}
	if len(got) != len(want) || got[0] != want[0] {
		t.Fatalf("verdicts = %q, want %q", got, want)
	}

	// report prints the verdict after any regression warning, against
	// the baseline it chose.
	cur = entry("x", []float64{130, 140, 120, 135}, []float64{50, 50})
	var out strings.Builder
	report(&out, "BENCH_sim.json", []RunEntry{base}, cur)
	lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	wantLines := []string{
		`benchjson: WARNING: Hot ns/op regressed +29.6% vs "x-parent" (2026-01-01T00:00:00Z): 101.25 -> 131.25`,
		`benchjson: Cold ns/op: won 0 of 2 rounds against "x-parent"; median 50 -> 50`,
		`benchjson: Hot ns/op: won 0 of 4 rounds against "x-parent"; median 102.5 -> 132.5`,
	}
	if strings.Join(lines, "\n") != strings.Join(wantLines, "\n") {
		t.Errorf("report =\n%s\nwant\n%s", out.String(), strings.Join(wantLines, "\n"))
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
