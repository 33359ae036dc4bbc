// Package stats provides the rate and percentile helpers, histograms,
// fixed-width table rendering and the metrics snapshot tree used by the
// simulator to report experiment results in the same shape as the
// paper's tables and figures.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Rate returns num/den as a float64, or 0 when den is zero. It is the
// single definition of "rate" used across every experiment so that hit
// rates, prediction rates and IPC ratios are all computed identically.
func Rate(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// Histogram is a fixed-bucket histogram over non-negative integer samples.
// The final bucket is open-ended.
type Histogram struct {
	Bounds []uint64 // bucket i holds samples in [Bounds[i-1]+1 … Bounds[i]]
	Counts []uint64 // len(Counts) == len(Bounds)+1
	Total  uint64
	Sum    uint64
	Max    uint64
}

// NewHistogram builds a histogram with the given ascending upper bounds.
func NewHistogram(bounds ...uint64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("stats: histogram bounds must be strictly ascending")
		}
	}
	return &Histogram{
		Bounds: append([]uint64(nil), bounds...),
		Counts: make([]uint64, len(bounds)+1),
	}
}

// Observe records one sample.
func (h *Histogram) Observe(v uint64) {
	h.Counts[h.bucket(v)]++
	h.Total++
	h.Sum += v
	if v > h.Max {
		h.Max = v
	}
}

// bucket returns the index of the bucket holding v. Bucket counts in
// this codebase are single digits, so a linear scan beats sort.Search's
// closure-per-probe on the hot paths (engine queue waits, fetch
// latencies, hit depths).
func (h *Histogram) bucket(v uint64) int {
	for i, b := range h.Bounds {
		if v <= b {
			return i
		}
	}
	return len(h.Bounds)
}

// ObserveRange records the arithmetic run v, v+1, …, v+n-1 (n samples)
// in one pass — the shape produced by consecutive pipeline slots, where
// the i-th queued request waits one cycle longer than its predecessor.
// It is equivalent to calling Observe on each value individually.
func (h *Histogram) ObserveRange(v uint64, n uint64) {
	if n == 0 {
		return
	}
	last := v + n - 1
	h.Total += n
	// Sum of the run: n*v + (0+1+…+(n-1)).
	h.Sum += v*n + n*(n-1)/2
	if last > h.Max {
		h.Max = last
	}
	// Split the run across buckets: each bucket takes the slice of the
	// run at or below its bound.
	lo := v
	for i, b := range h.Bounds {
		if lo > last {
			return
		}
		if lo <= b {
			hi := b
			if hi > last {
				hi = last
			}
			h.Counts[i] += hi - lo + 1
			lo = hi + 1
		}
	}
	if lo <= last {
		h.Counts[len(h.Bounds)] += last - lo + 1
	}
}

// Mean returns the mean of all observed samples.
func (h *Histogram) Mean() float64 {
	if h.Total == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Total)
}

// String renders a compact single-line summary.
func (h *Histogram) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "n=%d mean=%.2f max=%d [", h.Total, h.Mean(), h.Max)
	for i, c := range h.Counts {
		if i > 0 {
			b.WriteByte(' ')
		}
		if i < len(h.Bounds) {
			fmt.Fprintf(&b, "≤%d:%d", h.Bounds[i], c)
		} else {
			fmt.Fprintf(&b, ">:%d", c)
		}
	}
	b.WriteByte(']')
	return b.String()
}

// Table accumulates rows of figures keyed by a label column (benchmark
// name) and renders them in aligned fixed-width text, matching how the
// experiment harness prints paper figures.
type Table struct {
	Title   string
	Columns []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers. The
// first column is the row label.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row; cells beyond len(Columns) are dropped, missing
// cells render empty.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.Columns))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.rows = append(t.rows, row)
}

// AddFloats appends a row with a label and float cells at the given
// precision.
func (t *Table) AddFloats(label string, prec int, vals ...float64) {
	cells := make([]string, 0, len(vals)+1)
	cells = append(cells, label)
	for _, v := range vals {
		cells = append(cells, fmt.Sprintf("%.*f", prec, v))
	}
	t.AddRow(cells...)
}

// NumRows reports how many rows have been added.
func (t *Table) NumRows() int { return len(t.rows) }

// String renders the table.
func (t *Table) String() string {
	width := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		width[i] = len(c)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			if i == 0 {
				fmt.Fprintf(&b, "%-*s", width[i], c)
			} else {
				fmt.Fprintf(&b, "%*s", width[i], c)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	total := 0
	for _, w := range width {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total-2))
	b.WriteByte('\n')
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}

// Percentile returns the q-th percentile (q in 0..1) of vals by the
// nearest-rank method on a sorted copy: the smallest value such that at
// least q of the samples are at or below it. Exact — no bucketing — so
// callers report true p50/p99 latencies; 0 for empty input.
func Percentile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}
