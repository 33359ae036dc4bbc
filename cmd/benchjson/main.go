// Command benchjson converts `go test -bench` output into the tracked
// benchmark ledger BENCH_sim.json. It reads benchmark output on stdin,
// parses every result line — including custom metrics such as
// sim_instrs/s — and appends one labeled run entry to the ledger, so
// before/after comparisons live in the repository next to the code they
// measure.
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem . | go run ./cmd/benchjson -label after -o BENCH_sim.json
//
// The input stream is echoed to stderr so piping through benchjson does
// not hide benchmark progress.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Benchmark is one parsed result line: the benchmark name, its iteration
// count, and every reported metric keyed by unit (ns/op, B/op,
// allocs/op, and any custom b.ReportMetric unit).
type Benchmark struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// RunEntry is one labeled invocation of the benchmark suite.
type RunEntry struct {
	Label      string      `json:"label"`
	Date       string      `json:"date"`
	Go         string      `json:"go,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// Ledger is the whole BENCH_sim.json file.
type Ledger struct {
	Runs []RunEntry `json:"runs"`
}

func main() {
	var (
		label = flag.String("label", "local", "label for this run entry (e.g. before, after, ci)")
		out   = flag.String("o", "BENCH_sim.json", "ledger file to append to (created if absent)")
		quiet = flag.Bool("q", false, "do not echo the input stream to stderr")
		force = flag.Bool("force", false, "record even if the ledger already has an entry with this label")
	)
	flag.Parse()

	echo := io.Writer(os.Stderr)
	if *quiet {
		echo = io.Discard
	}
	entry, err := readRun(os.Stdin, echo)
	if err != nil {
		fatal(err)
	}
	entry.Label = *label
	entry.Date = time.Now().UTC().Format(time.RFC3339)

	var ledger Ledger
	if data, err := os.ReadFile(*out); err == nil {
		if err := json.Unmarshal(data, &ledger); err != nil {
			fatal(fmt.Errorf("parsing existing %s: %w", *out, err))
		}
	} else if !os.IsNotExist(err) {
		fatal(err)
	}
	if err := checkLabel(&ledger, entry.Label, *force); err != nil {
		fatal(fmt.Errorf("%w in %s; pick a new label or pass -force to append anyway", err, *out))
	}
	// Non-blocking regression check: compare the fresh entry against the
	// ledger's previous last run and warn about >10% movements in the
	// wrong direction. Advisory only — benchmark hosts are noisy, so the
	// exit status never depends on it; authoritative comparisons remain
	// deliberate before/after entries (see EXPERIMENTS.md).
	if len(ledger.Runs) > 0 {
		prev := ledger.Runs[len(ledger.Runs)-1]
		for _, w := range compareRuns(prev, entry) {
			fmt.Fprintln(os.Stderr, "benchjson: WARNING:", w)
		}
	}
	ledger.Runs = append(ledger.Runs, entry)

	data, err := json.MarshalIndent(&ledger, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "benchjson: recorded %d benchmarks as %q in %s\n",
		len(entry.Benchmarks), *label, *out)
}

// readRun parses a `go test -bench` stream into a run entry's Go, CPU
// and Benchmarks fields, echoing every line to echo. The stream may hold
// several rounds (-count N, or concatenated invocations); each round
// repeats the goos/goarch/cpu headers, and each header is recorded once.
// A FAIL line anywhere, or a stream without result lines, is an error:
// such a run is not recorded.
func readRun(r io.Reader, echo io.Writer) (RunEntry, error) {
	var entry RunEntry
	seen := map[string]bool{}
	failed := false
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintln(echo, line)
		switch {
		case strings.HasPrefix(line, "cpu:"):
			entry.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "goos:"), strings.HasPrefix(line, "goarch:"):
			if h := strings.TrimSpace(line); !seen[h] {
				seen[h] = true
				entry.Go = strings.TrimSpace(entry.Go + " " + h)
			}
		case strings.HasPrefix(line, "FAIL"):
			failed = true
		}
		if b, ok := parseBenchLine(line); ok {
			entry.Benchmarks = append(entry.Benchmarks, b)
		}
	}
	if err := sc.Err(); err != nil {
		return RunEntry{}, err
	}
	if failed {
		return RunEntry{}, fmt.Errorf("benchmark run reported FAIL; not recording")
	}
	if len(entry.Benchmarks) == 0 {
		return RunEntry{}, fmt.Errorf("no benchmark result lines found on stdin")
	}
	return entry, nil
}

// checkLabel refuses to append a run whose label the ledger already
// holds: labels address entries in before/after comparisons, and a
// silent duplicate would make "the <label> run" ambiguous. force
// overrides for deliberate re-recording.
func checkLabel(ledger *Ledger, label string, force bool) error {
	if force {
		return nil
	}
	for _, run := range ledger.Runs {
		if run.Label == label {
			return fmt.Errorf("ledger already has a run labeled %q (recorded %s)", label, run.Date)
		}
	}
	return nil
}

// regressionThreshold is the relative movement past which compareRuns
// flags a metric: 10%, chosen to sit above typical same-host run-to-run
// noise while still catching real slowdowns.
const regressionThreshold = 0.10

// compareRuns diffs cur against prev benchmark-by-benchmark and
// returns one warning line per metric that moved more than
// regressionThreshold in the wrong direction. Throughput units
// (anything ending in "/s") regress downward; cost units (ns/op, B/op,
// allocs/op, …) regress upward. A multi-round entry lists each name
// once per round; its rounds are averaged first (roundMeans), so every
// name and metric is compared, and warned about, once. A benchmark
// present in only one run has no numbers to compare, but its appearance
// or disappearance is itself worth a line: two consecutive entries with
// disjoint suites (it happened — a cluster-only run following a
// chaos-only run) would otherwise diff as "no movement" when really
// nothing was compared at all.
func compareRuns(prev, cur RunEntry) []string {
	prevBy, curBy := roundMeans(prev.Benchmarks), roundMeans(cur.Benchmarks)
	var warnings []string
	for name := range prevBy {
		if _, ok := curBy[name]; !ok {
			warnings = append(warnings, fmt.Sprintf(
				"%s removed: present in %q (%s) but not in this run",
				name, prev.Label, prev.Date))
		}
	}
	for name, metrics := range curBy {
		pm, ok := prevBy[name]
		if !ok {
			warnings = append(warnings, fmt.Sprintf(
				"%s added: no baseline in %q (%s) to compare against",
				name, prev.Label, prev.Date))
			continue
		}
		for unit, v := range metrics {
			pv, ok := pm[unit]
			if !ok || pv == 0 {
				continue
			}
			higherIsBetter := strings.HasSuffix(unit, "/s")
			change := (v - pv) / pv
			regressed := change > regressionThreshold
			if higherIsBetter {
				regressed = change < -regressionThreshold
			}
			if regressed {
				warnings = append(warnings, fmt.Sprintf(
					"%s %s regressed %+.1f%% vs %q (%s): %g -> %g",
					name, unit, 100*change, prev.Label, prev.Date, pv, v))
			}
		}
	}
	sort.Strings(warnings)
	return warnings
}

// roundMeans folds an entry's rounds into one metric set per benchmark
// name, each metric averaged over the rounds that report it; a
// single-round entry's metrics come back unchanged.
func roundMeans(bs []Benchmark) map[string]map[string]float64 {
	means := map[string]map[string]float64{}
	rounds := map[[2]string]float64{} // {name, unit} -> rounds reporting it
	for _, b := range bs {
		if means[b.Name] == nil {
			means[b.Name] = map[string]float64{}
		}
		for unit, v := range b.Metrics {
			means[b.Name][unit] += v
			rounds[[2]string{b.Name, unit}]++
		}
	}
	for k, n := range rounds {
		means[k[0]][k[1]] /= n
	}
	return means
}

// parseBenchLine parses one `go test -bench` result line:
//
//	BenchmarkName-8   5   15519015 ns/op   3221904 sim_instrs/s   533 allocs/op
//
// Fields after the iteration count come in (value, unit) pairs.
func parseBenchLine(line string) (Benchmark, bool) {
	if !strings.HasPrefix(line, "Benchmark") {
		return Benchmark{}, false
	}
	fields := strings.Fields(line)
	if len(fields) < 4 || len(fields)%2 != 0 {
		return Benchmark{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	name := strings.TrimPrefix(fields[0], "Benchmark")
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i] // strip the -GOMAXPROCS suffix
		}
	}
	b := Benchmark{Name: name, Iterations: iters, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		b.Metrics[fields[i+1]] = v
	}
	return b, true
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
