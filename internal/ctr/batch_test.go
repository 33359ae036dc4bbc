package ctr

import (
	"testing"

	"ctrpred/internal/rng"
)

// TestPadIntoMatchesPad pins the pointer-receiver fast path to the
// by-value API over random addresses and counters.
func TestPadIntoMatchesPad(t *testing.T) {
	ks := NewKeystream([32]byte{1, 2, 3})
	r := rng.New(99)
	for n := 0; n < 2000; n++ {
		vaddr := (r.Uint64() % (1 << 40)) &^ uint64(LineSize-1)
		seq := r.Uint64()
		var got Pad
		ks.PadInto(&got, vaddr, seq)
		if want := ks.Pad(vaddr, seq); got != want {
			t.Fatalf("PadInto(%#x, %d) = %x, want %x", vaddr, seq, got, want)
		}
	}
}

// TestEncryptLineIntoMatchesEncryptLine pins the in-place line API.
func TestEncryptLineIntoMatchesEncryptLine(t *testing.T) {
	ks := NewKeystream([32]byte{9})
	var plain Line
	for i := range plain {
		plain[i] = byte(i * 7)
	}
	want := ks.EncryptLine(plain, 64, 11)
	var got Line
	ks.EncryptLineInto(&got, &plain, 64, 11)
	if got != want {
		t.Fatalf("EncryptLineInto = %x, want %x", got, want)
	}
	// In-place: out aliases plain.
	buf := plain
	ks.EncryptLineInto(&buf, &buf, 64, 11)
	if buf != want {
		t.Fatalf("aliased EncryptLineInto = %x, want %x", buf, want)
	}
}

// Allocation-regression guards: the pad hot paths must not allocate.
func TestPadGenerationAllocFree(t *testing.T) {
	ks := NewKeystream([32]byte{3})
	var pad Pad
	if n := testing.AllocsPerRun(100, func() {
		ks.PadInto(&pad, 1<<20, 42)
	}); n != 0 {
		t.Errorf("PadInto allocates %v times per run, want 0", n)
	}
	var line Line
	if n := testing.AllocsPerRun(100, func() {
		XORLine(&line, &line, &pad)
	}); n != 0 {
		t.Errorf("XORLine allocates %v times per run, want 0", n)
	}
}

func BenchmarkPadInto(b *testing.B) {
	ks := NewKeystream([32]byte{1})
	var pad Pad
	b.SetBytes(LineSize)
	for i := 0; i < b.N; i++ {
		ks.PadInto(&pad, 1<<20, uint64(i))
	}
}
