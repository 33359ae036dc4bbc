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
// not hide benchmark progress. Before appending, it compares the entry
// with the most recent earlier entry that ran the same benchmarks: a
// "benchjson: WARNING:" line per metric that moved >10% the wrong way,
// then per benchmark the rounds this entry won on ns/op and both medians.
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
	// Non-blocking: benchmark hosts are noisy, so the exit status never
	// depends on the comparison (see EXPERIMENTS.md).
	report(os.Stderr, *out, ledger.Runs, entry)
	ledger.Runs = append(ledger.Runs, entry)

	data, err := json.MarshalIndent(&ledger, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "benchjson: recorded %d results of %d benchmarks as %q in %s\n",
		len(entry.Benchmarks), len(roundMeans(entry.Benchmarks)), *label, *out)
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

// report compares the fresh entry cur with its baseline among the
// ledger's runs (see baselineFor) and writes the result to w: a
// "WARNING:" line per >10% movement in the wrong direction, then per
// benchmark the rounds cur won on ns/op and both medians (see
// verdicts). With no baseline it writes one warning line saying so.
func report(w io.Writer, ledgerName string, runs []RunEntry, cur RunEntry) {
	base, ok := baselineFor(runs, cur)
	if !ok {
		fmt.Fprintf(w, "benchjson: WARNING: no earlier entry in %s ran the same %d benchmarks; nothing compared\n",
			ledgerName, len(roundMeans(cur.Benchmarks)))
		return
	}
	for _, line := range compareRuns(base, cur) {
		fmt.Fprintln(w, "benchjson: WARNING:", line)
	}
	for _, line := range verdicts(base, cur) {
		fmt.Fprintln(w, "benchjson:", line)
	}
}

// baselineFor returns the most recent of runs that ran exactly the
// benchmark names cur ran, and whether there is one. The ledger
// interleaves unrelated suites (a full `make bench` run, a bench-ab
// pair over a few names, a cluster-only run), and diffing entries that
// share few or no names compares nothing.
func baselineFor(runs []RunEntry, cur RunEntry) (RunEntry, bool) {
	names := roundMeans(cur.Benchmarks)
	for i := len(runs) - 1; i >= 0; i-- {
		prev := roundMeans(runs[i].Benchmarks)
		same := len(prev) == len(names)
		for name := range names {
			if _, ok := prev[name]; !ok {
				same = false
			}
		}
		if same {
			return runs[i], true
		}
	}
	return RunEntry{}, false
}

// verdicts returns a line per benchmark of cur, in name order, that base
// ran for as many rounds: how many rounds cur won on ns/op, round i of
// one entry against round i of the other (bench-ab runs the two sides'
// rounds back to back), and the median ns/op of each.
func verdicts(base, cur RunEntry) []string {
	baseNs, curNs := roundValues(base.Benchmarks, "ns/op"), roundValues(cur.Benchmarks, "ns/op")
	names := make([]string, 0, len(curNs))
	for name := range curNs {
		names = append(names, name)
	}
	sort.Strings(names)
	var lines []string
	for _, name := range names {
		b, c := baseNs[name], curNs[name]
		if len(b) != len(c) {
			continue
		}
		won := 0
		for i := range c {
			if c[i] < b[i] {
				won++
			}
		}
		lines = append(lines, fmt.Sprintf("%s ns/op: won %d of %d rounds against %q; median %g -> %g",
			name, won, len(c), base.Label, median(b), median(c)))
	}
	return lines
}

// roundValues lists each benchmark's value of unit, one per round that
// reports it, in round order.
func roundValues(bs []Benchmark, unit string) map[string][]float64 {
	vals := map[string][]float64{}
	for _, b := range bs {
		if v, ok := b.Metrics[unit]; ok {
			vals[b.Name] = append(vals[b.Name], v)
		}
	}
	return vals
}

// median returns the median of vs, the mean of the middle two for an
// even count. vs must not be empty; it is left unsorted.
func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
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
// name and metric is compared, and warned about, once. The two entries
// ran the same benchmarks (see baselineFor).
func compareRuns(prev, cur RunEntry) []string {
	prevBy, curBy := roundMeans(prev.Benchmarks), roundMeans(cur.Benchmarks)
	var warnings []string
	for name, metrics := range curBy {
		pm := prevBy[name]
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
