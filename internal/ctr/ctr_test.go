package ctr

import (
	"testing"
	"testing/quick"
)

func testKey() [32]byte {
	var k [32]byte
	for i := range k {
		k[i] = byte(i * 7)
	}
	return k
}

func TestRoundTrip(t *testing.T) {
	ks := NewKeystream(testKey())
	f := func(data [LineSize]byte, page uint32, lineIdx uint8, seq uint64) bool {
		vaddr := uint64(page)<<12 | uint64(lineIdx%128)*LineSize
		c := ks.EncryptLine(Line(data), vaddr, seq)
		p := ks.DecryptLine(c, vaddr, seq)
		return p == Line(data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPadDependsOnAddress(t *testing.T) {
	// Section 4: same seqnum at different addresses must give different
	// pads — this is what makes per-page shared root seqnums safe.
	ks := NewKeystream(testKey())
	p0 := ks.Pad(0x1000, 42)
	p1 := ks.Pad(0x1020, 42)
	if p0 == p1 {
		t.Fatal("pads identical across addresses")
	}
}

func TestPadDependsOnSeq(t *testing.T) {
	ks := NewKeystream(testKey())
	if ks.Pad(0x2000, 1) == ks.Pad(0x2000, 2) {
		t.Fatal("pads identical across sequence numbers")
	}
}

func TestPadDependsOnKey(t *testing.T) {
	k2 := testKey()
	k2[0] ^= 0xff
	if NewKeystream(testKey()).Pad(0, 0) == NewKeystream(k2).Pad(0, 0) {
		t.Fatal("pads identical across keys")
	}
}

func TestPadHalvesDiffer(t *testing.T) {
	// The two 16-byte halves use different address inputs, so they must
	// (overwhelmingly) differ.
	ks := NewKeystream(testKey())
	pad := ks.Pad(0x4000, 7)
	same := true
	for i := 0; i < HalfLine; i++ {
		if pad[i] != pad[HalfLine+i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("pad halves identical")
	}
}

func TestPadDeterministic(t *testing.T) {
	ks := NewKeystream(testKey())
	if ks.Pad(0x8000, 99) != ks.Pad(0x8000, 99) {
		t.Fatal("pad not deterministic")
	}
}

func TestUnalignedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unaligned pad address did not panic")
		}
	}()
	NewKeystream(testKey()).Pad(0x1001, 0)
}

func TestXORLineAliasing(t *testing.T) {
	var l Line
	for i := range l {
		l[i] = byte(i)
	}
	var pad Pad
	for i := range pad {
		pad[i] = 0x5a
	}
	want := l
	XORLine(&want, &l, &pad)
	got := l
	XORLine(&got, &got, &pad) // in place
	if got != want {
		t.Fatal("aliased XOR differs")
	}
}

func TestCiphertextHidesPlaintext(t *testing.T) {
	// Weak smoke test of confidentiality: encrypting the zero line should
	// not produce a low-entropy ciphertext (it equals the pad).
	ks := NewKeystream(testKey())
	c := ks.EncryptLine(Line{}, 0x3000, 5)
	zeros := 0
	for _, b := range c {
		if b == 0 {
			zeros++
		}
	}
	if zeros > LineSize/4 {
		t.Fatalf("ciphertext of zero line has %d zero bytes", zeros)
	}
}

func TestPadTracker(t *testing.T) {
	var tr PadTracker
	if !tr.RecordEncrypt(0x1000, 1) {
		t.Fatal("fresh pair reported as reuse")
	}
	if !tr.RecordEncrypt(0x1000, 2) {
		t.Fatal("fresh seq reported as reuse")
	}
	if !tr.RecordEncrypt(0x1020, 1) {
		t.Fatal("fresh addr reported as reuse")
	}
	if tr.RecordEncrypt(0x1000, 1) {
		t.Fatal("reuse not detected")
	}
	if tr.Violations != 1 || tr.Encryptions != 4 {
		t.Fatalf("violations=%d encryptions=%d", tr.Violations, tr.Encryptions)
	}
}

// TestPadTrackerBase checks that pairs the base reports count as used
// without being recorded: reusing one is a violation, and other pairs
// are tracked as usual.
func TestPadTrackerBase(t *testing.T) {
	var tr PadTracker
	tr.SetBase(func(vaddr, seq uint64) bool { return vaddr == 0x1000 && seq == 7 })
	if tr.RecordEncrypt(0x1000, 7) {
		t.Fatal("a base pair was reported fresh")
	}
	if !tr.RecordEncrypt(0x1000, 8) || tr.RecordEncrypt(0x1000, 8) {
		t.Fatal("pairs outside the base are not tracked")
	}
	if tr.Violations != 2 || tr.Encryptions != 3 {
		t.Fatalf("violations=%d encryptions=%d", tr.Violations, tr.Encryptions)
	}
}

func BenchmarkPad(b *testing.B) {
	ks := NewKeystream(testKey())
	b.SetBytes(LineSize)
	for i := 0; i < b.N; i++ {
		_ = ks.Pad(0x10000, uint64(i))
	}
}

func BenchmarkEncryptLine(b *testing.B) {
	ks := NewKeystream(testKey())
	var l Line
	b.SetBytes(LineSize)
	for i := 0; i < b.N; i++ {
		l = ks.EncryptLine(l, 0x20000, uint64(i))
	}
}

// TestPadKeystreamStatistics is a smoke test of the pseudorandomness the
// security argument rests on (the OTP must be computationally
// indistinguishable from random): monobit and byte-frequency checks over
// a long concatenated keystream. These catch implementation blunders
// (e.g. a constant half-pad), not cryptographic weaknesses.
func TestPadKeystreamStatistics(t *testing.T) {
	ks := NewKeystream(testKey())
	const pads = 2048
	ones := 0
	var byteCount [256]int
	for i := 0; i < pads; i++ {
		pad := ks.Pad(0x100000+uint64(i)*LineSize, 7)
		for _, b := range pad {
			byteCount[b]++
			for x := b; x != 0; x &= x - 1 {
				ones++
			}
		}
	}
	totalBits := pads * LineSize * 8
	frac := float64(ones) / float64(totalBits)
	if frac < 0.49 || frac > 0.51 {
		t.Fatalf("monobit: %.4f ones, want ≈0.5", frac)
	}
	// Byte frequencies: expected 256 occurrences each (65536/256); allow
	// a generous ±40% band.
	expected := pads * LineSize / 256
	for v, c := range byteCount {
		if c < expected*6/10 || c > expected*14/10 {
			t.Fatalf("byte %#02x occurs %d times, expected ≈%d", v, c, expected)
		}
	}
}

// TestPadUnlinkability: pads of adjacent counters share no obvious
// structure — flipping the counter's low bit changes about half the pad.
func TestPadUnlinkability(t *testing.T) {
	ks := NewKeystream(testKey())
	diffBits := 0
	const trials = 256
	for i := 0; i < trials; i++ {
		a := ks.Pad(0x200000, uint64(2*i))
		b := ks.Pad(0x200000, uint64(2*i+1))
		for j := range a {
			for x := a[j] ^ b[j]; x != 0; x &= x - 1 {
				diffBits++
			}
		}
	}
	avg := float64(diffBits) / float64(trials) / (LineSize * 8)
	if avg < 0.45 || avg > 0.55 {
		t.Fatalf("adjacent-counter pad difference = %.4f, want ≈0.5", avg)
	}
}

func TestDirectCipherRoundTrip(t *testing.T) {
	d := NewDirectCipher(testKey())
	f := func(data [LineSize]byte, lineIdx uint16) bool {
		vaddr := uint64(lineIdx) * LineSize
		return d.DecryptLine(d.EncryptLine(Line(data), vaddr), vaddr) == Line(data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDirectCipherAddressBound(t *testing.T) {
	d := NewDirectCipher(testKey())
	var p Line
	p[0] = 1
	if d.EncryptLine(p, 0x1000) == d.EncryptLine(p, 0x1020) {
		t.Fatal("direct ciphertext identical across addresses")
	}
}

func TestDirectCipherDeterministicLeak(t *testing.T) {
	// The weakness counter mode fixes: re-encrypting the same plaintext at
	// the same address yields the same ciphertext (version equality leaks),
	// whereas counter mode with an advanced counter does not.
	dc := NewDirectCipher(testKey())
	ks := NewKeystream(testKey())
	var p Line
	p[3] = 9
	if dc.EncryptLine(p, 0x2000) != dc.EncryptLine(p, 0x2000) {
		t.Fatal("direct encryption not deterministic (model broken)")
	}
	if ks.EncryptLine(p, 0x2000, 5) == ks.EncryptLine(p, 0x2000, 6) {
		t.Fatal("counter mode leaked version equality")
	}
}

func TestDirectCipherUnalignedPanics(t *testing.T) {
	d := NewDirectCipher(testKey())
	for _, f := range []func(){
		func() { d.EncryptLine(Line{}, 0x1001) },
		func() { d.DecryptLine(Line{}, 0x1001) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("unaligned direct cipher call did not panic")
				}
			}()
			f()
		}()
	}
}
