package rng

import (
	"testing"
	"testing/quick"
)

func TestSplitMix64KnownValues(t *testing.T) {
	// Reference values for seed 0 from the canonical splitmix64.c.
	s := NewSplitMix64(0)
	want := []uint64{
		0xe220a8397b1dcdaf,
		0x6e789e6aa1b965f4,
		0x06c45d188009454f,
		0xf88bb8a8724c81ec,
		0x1b39896a51a8749b,
	}
	for i, w := range want {
		if got := s.Next(); got != w {
			t.Fatalf("SplitMix64(0) value %d = %#x, want %#x", i, got, w)
		}
	}
}

func TestXoshiroDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed generators diverged at step %d", i)
		}
	}
	c := New(43)
	same := 0
	a = New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d identical values out of 1000", same)
	}
}

func TestIntnRange(t *testing.T) {
	x := New(7)
	for i := 0; i < 10000; i++ {
		n := 1 + i%97
		v := x.Intn(n)
		if v < 0 || v >= n {
			t.Fatalf("Intn(%d) = %d out of range", n, v)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestUint64nPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Uint64n(0) did not panic")
		}
	}()
	New(1).Uint64n(0)
}

func TestFloat64Range(t *testing.T) {
	x := New(11)
	for i := 0; i < 10000; i++ {
		f := x.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
	}
}

func TestFloat64Property(t *testing.T) {
	f := func(seed uint64) bool {
		x := New(seed)
		for i := 0; i < 100; i++ {
			v := x.Float64()
			if v < 0 || v >= 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBoolProbability(t *testing.T) {
	x := New(3)
	n := 100000
	hits := 0
	for i := 0; i < n; i++ {
		if x.Bool(0.25) {
			hits++
		}
	}
	frac := float64(hits) / float64(n)
	if frac < 0.22 || frac > 0.28 {
		t.Fatalf("Bool(0.25) frequency = %v, want ≈0.25", frac)
	}
}

func BenchmarkXoshiroUint64(b *testing.B) {
	x := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += x.Uint64()
	}
	_ = sink
}
