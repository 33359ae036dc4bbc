package cluster

import (
	"testing"
	"time"
)

// TestHedgeQuantileNearestRank holds the adaptive hedge trigger's p90
// to the nearest-rank rule: over 8 samples, ⌈0.9·8⌉ names the 8th.
func TestHedgeQuantileNearestRank(t *testing.T) {
	var lat latencyTracker
	for _, ms := range []time.Duration{5, 3, 8, 1, 7, 2, 6} {
		lat.record(ms * time.Millisecond)
	}
	if _, ok := lat.quantile(0.9); ok {
		t.Fatal("quantile answered before minHedgeSamples observations")
	}
	lat.record(4 * time.Millisecond)
	if p90, ok := lat.quantile(0.9); !ok || p90 != 8*time.Millisecond {
		t.Fatalf("p90 of 1..8 ms = %v, %v; want 8ms, true", p90, ok)
	}
}
