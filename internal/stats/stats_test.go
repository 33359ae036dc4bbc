package stats

import (
	"strings"
	"testing"
)

func TestRate(t *testing.T) {
	if got := Rate(1, 4); got != 0.25 {
		t.Fatalf("Rate(1,4) = %v", got)
	}
	if got := Rate(3, 0); got != 0 {
		t.Fatalf("Rate(3,0) = %v, want 0", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram(1, 5, 10)
	for _, v := range []uint64{0, 1, 2, 5, 6, 10, 11, 100} {
		h.Observe(v)
	}
	want := []uint64{2, 2, 2, 2} // ≤1, ≤5, ≤10, >10
	for i, w := range want {
		if h.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (%v)", i, h.Counts[i], w, h.Counts)
		}
	}
	if h.Total != 8 || h.Max != 100 {
		t.Fatalf("total=%d max=%d", h.Total, h.Max)
	}
}

func TestHistogramMeanQuantile(t *testing.T) {
	h := NewHistogram(10, 20, 30)
	for i := uint64(1); i <= 30; i++ {
		h.Observe(i)
	}
	if m := h.Mean(); m < 15.4 || m > 15.6 {
		t.Fatalf("mean = %v, want 15.5", m)
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram(1)
	if h.Mean() != 0 {
		t.Fatal("empty histogram should report a zero mean")
	}
}

func TestHistogramBadBoundsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("descending bounds did not panic")
		}
	}()
	NewHistogram(5, 5)
}

func TestHistogramString(t *testing.T) {
	h := NewHistogram(2)
	h.Observe(1)
	h.Observe(3)
	s := h.String()
	if !strings.Contains(s, "n=2") || !strings.Contains(s, "≤2:1") {
		t.Fatalf("unexpected summary: %q", s)
	}
}

func TestTableRendering(t *testing.T) {
	tbl := NewTable("Figure X", "bench", "a", "b")
	tbl.AddFloats("mcf", 2, 0.5, 0.75)
	tbl.AddRow("gzip", "1.00") // short row: missing cell renders empty
	s := tbl.String()
	if !strings.Contains(s, "Figure X") {
		t.Fatalf("missing title: %q", s)
	}
	if !strings.Contains(s, "mcf") || !strings.Contains(s, "0.75") {
		t.Fatalf("missing row data: %q", s)
	}
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Fatalf("got %d lines, want 5:\n%s", len(lines), s)
	}
	if tbl.NumRows() != 2 {
		t.Fatalf("NumRows = %d", tbl.NumRows())
	}
}

func TestPercentile(t *testing.T) {
	vals := []float64{5, 1, 4, 2, 3}
	cases := []struct {
		q    float64
		want float64
	}{
		{0, 1}, {0.2, 1}, {0.5, 3}, {0.8, 4}, {0.99, 5}, {1, 5},
	}
	for _, tc := range cases {
		if got := Percentile(vals, tc.q); got != tc.want {
			t.Errorf("Percentile(%v, %g) = %g, want %g", vals, tc.q, got, tc.want)
		}
	}
	if got := Percentile(nil, 0.5); got != 0 {
		t.Errorf("Percentile(nil) = %g, want 0", got)
	}
	// The input must not be reordered in place.
	if vals[0] != 5 || vals[4] != 3 {
		t.Errorf("Percentile mutated its input: %v", vals)
	}
}

func TestPercentileEdgeCases(t *testing.T) {
	// A single sample is every percentile, including the out-of-range
	// quantiles (clamped, not extrapolated or panicking).
	one := []float64{42}
	for _, q := range []float64{-1, 0, 0.01, 0.5, 0.99, 1, 2} {
		if got := Percentile(one, q); got != 42 {
			t.Errorf("Percentile([42], %g) = %g, want 42", q, got)
		}
	}
	// Empty input is 0 at every quantile, never an index panic.
	for _, q := range []float64{-1, 0, 0.5, 1, 2} {
		if got := Percentile(nil, q); got != 0 {
			t.Errorf("Percentile(nil, %g) = %g, want 0", q, got)
		}
	}
	// Two samples: the median is the lower by nearest-rank, anything
	// past 0.5 is the upper.
	two := []float64{7, 3}
	if got := Percentile(two, 0.5); got != 3 {
		t.Errorf("Percentile(%v, 0.5) = %g, want 3", two, got)
	}
	if got := Percentile(two, 0.51); got != 7 {
		t.Errorf("Percentile(%v, 0.51) = %g, want 7", two, got)
	}
	// Duplicates count as distinct samples in the rank: two of five
	// samples are 1, so q=0.4 still names a 1 and anything past it a 2.
	dup := []float64{2, 1, 2, 1, 2}
	if got := Percentile(dup, 0.4); got != 1 {
		t.Errorf("Percentile(%v, 0.4) = %g, want 1", dup, got)
	}
	if got := Percentile(dup, 0.41); got != 2 {
		t.Errorf("Percentile(%v, 0.41) = %g, want 2", dup, got)
	}
}
