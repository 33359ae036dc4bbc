package aes

import (
	"bytes"
	"encoding/hex"
	"testing"
	"testing/quick"
)

func unhex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatalf("bad hex %q: %v", s, err)
	}
	return b
}

// FIPS-197 Appendix C known-answer vectors.
var fipsVectors = []struct {
	key, plain, cipher string
}{
	{
		"000102030405060708090a0b0c0d0e0f",
		"00112233445566778899aabbccddeeff",
		"69c4e0d86a7b0430d8cdb78070b4c55a",
	},
	{
		"000102030405060708090a0b0c0d0e0f1011121314151617",
		"00112233445566778899aabbccddeeff",
		"dda97ca4864cdfe06eaf70a0ec0d7191",
	},
	{
		"000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
		"00112233445566778899aabbccddeeff",
		"8ea2b7ca516745bfeafc49904b496089",
	},
}

func TestFIPS197Vectors(t *testing.T) {
	for _, v := range fipsVectors {
		key := unhex(t, v.key)
		c, err := New(key)
		if err != nil {
			t.Fatalf("New(%d-byte key): %v", len(key), err)
		}
		got := make([]byte, BlockSize)
		c.Encrypt(got, unhex(t, v.plain))
		if want := unhex(t, v.cipher); !bytes.Equal(got, want) {
			t.Errorf("AES-%d encrypt = %x, want %x", len(key)*8, got, want)
		}
		dec := make([]byte, BlockSize)
		c.Decrypt(dec, unhex(t, v.cipher))
		if want := unhex(t, v.plain); !bytes.Equal(dec, want) {
			t.Errorf("AES-%d decrypt = %x, want %x", len(key)*8, dec, want)
		}
	}
}

// FIPS-197 Appendix B walks AES-128 with a different key/plaintext pair.
func TestFIPS197AppendixB(t *testing.T) {
	c, err := New(unhex(t, "2b7e151628aed2a6abf7158809cf4f3c"))
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, BlockSize)
	c.Encrypt(got, unhex(t, "3243f6a8885a308d313198a2e0370734"))
	if want := unhex(t, "3925841d02dc09fbdc118597196a0b32"); !bytes.Equal(got, want) {
		t.Fatalf("encrypt = %x, want %x", got, want)
	}
}

func TestSboxKnownEntries(t *testing.T) {
	// Spot-check the generated S-box against published values.
	cases := map[byte]byte{
		0x00: 0x63, 0x01: 0x7c, 0x53: 0xed, 0xff: 0x16, 0x9a: 0xb8,
	}
	for in, want := range cases {
		if got := Sbox(in); got != want {
			t.Errorf("sbox[%#02x] = %#02x, want %#02x", in, got, want)
		}
	}
	if got := InvSbox(0x63); got != 0x00 {
		t.Errorf("invSbox[0x63] = %#02x, want 0", got)
	}
}

func TestSboxInverseProperty(t *testing.T) {
	for i := 0; i < 256; i++ {
		if got := InvSbox(Sbox(byte(i))); got != byte(i) {
			t.Fatalf("invSbox(sbox(%#02x)) = %#02x", i, got)
		}
	}
}

func TestSboxIsPermutation(t *testing.T) {
	var seen [256]bool
	for i := 0; i < 256; i++ {
		v := Sbox(byte(i))
		if seen[v] {
			t.Fatalf("sbox value %#02x duplicated", v)
		}
		seen[v] = true
	}
}

func TestInvalidKeySizes(t *testing.T) {
	for _, n := range []int{0, 1, 15, 17, 31, 33, 64} {
		if _, err := New(make([]byte, n)); err == nil {
			t.Errorf("New(%d-byte key) succeeded, want error", n)
		} else if _, ok := err.(KeySizeError); !ok {
			t.Errorf("New(%d) error type %T, want KeySizeError", n, err)
		}
	}
	if got := KeySizeError(5).Error(); got == "" {
		t.Error("empty KeySizeError message")
	}
}

func TestRounds(t *testing.T) {
	for _, tc := range []struct{ keyLen, rounds int }{{16, 10}, {24, 12}, {32, 14}} {
		c, err := New(make([]byte, tc.keyLen))
		if err != nil {
			t.Fatal(err)
		}
		if c.Rounds() != tc.rounds {
			t.Errorf("Rounds(%d-byte key) = %d, want %d", tc.keyLen, c.Rounds(), tc.rounds)
		}
	}
}

func TestEncryptDecryptRoundTrip(t *testing.T) {
	f := func(key [32]byte, block [16]byte) bool {
		c := Must256(key)
		var enc, dec [16]byte
		c.Encrypt(enc[:], block[:])
		c.Decrypt(dec[:], enc[:])
		return dec == block
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEncryptInPlace(t *testing.T) {
	c := Must256([32]byte{1, 2, 3})
	buf := []byte("0123456789abcdef")
	want := make([]byte, 16)
	c.Encrypt(want, buf)
	c.Encrypt(buf, buf)
	if !bytes.Equal(buf, want) {
		t.Fatal("in-place encryption differs from out-of-place")
	}
}

func TestEncryptAvalanche(t *testing.T) {
	// Flipping one plaintext bit should flip roughly half the ciphertext
	// bits — the property that makes OTP pads unlinkable across counters.
	c := Must256([32]byte{0xaa})
	var p0, p1, c0, c1 [16]byte
	p1[0] = 0x01
	c.Encrypt(c0[:], p0[:])
	c.Encrypt(c1[:], p1[:])
	diff := 0
	for i := range c0 {
		x := c0[i] ^ c1[i]
		for x != 0 {
			diff += int(x & 1)
			x >>= 1
		}
	}
	if diff < 30 || diff > 98 {
		t.Fatalf("avalanche: %d/128 bits differ, want ≈64", diff)
	}
}

func TestShortBufferPanics(t *testing.T) {
	c := Must256([32]byte{})
	for _, f := range []func(){
		func() { c.Encrypt(make([]byte, 16), make([]byte, 15)) },
		func() { c.Encrypt(make([]byte, 15), make([]byte, 16)) },
		func() { c.Decrypt(make([]byte, 16), make([]byte, 15)) },
		func() { c.Decrypt(make([]byte, 15), make([]byte, 16)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("short buffer did not panic")
				}
			}()
			f()
		}()
	}
}

func TestGmulProperties(t *testing.T) {
	// 1 is the multiplicative identity; multiplication is commutative.
	for i := 0; i < 256; i++ {
		if gmul(byte(i), 1) != byte(i) {
			t.Fatalf("gmul(%d, 1) != %d", i, i)
		}
	}
	f := func(a, b byte) bool { return gmul(a, b) == gmul(b, a) }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	// xtime agrees with gmul(·, 2).
	for i := 0; i < 256; i++ {
		if xtime(byte(i)) != gmul(byte(i), 2) {
			t.Fatalf("xtime(%d) != gmul(%d, 2)", i, i)
		}
	}
}

func TestMixColumnsInverse(t *testing.T) {
	f := func(w uint32) bool {
		return invMixColumnsWord(mixColumnsWord(w)) == w
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestShiftRowsInverse(t *testing.T) {
	f := func(a, b, c, d uint32) bool {
		s := state{a, b, c, d}
		orig := s
		s.shiftRows()
		s.invShiftRows()
		return s == orig
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEncrypt256(b *testing.B) {
	c := Must256([32]byte{1})
	var block [16]byte
	b.SetBytes(16)
	for i := 0; i < b.N; i++ {
		c.Encrypt(block[:], block[:])
	}
}

func BenchmarkDecrypt256(b *testing.B) {
	c := Must256([32]byte{1})
	var block [16]byte
	b.SetBytes(16)
	for i := 0; i < b.N; i++ {
		c.Decrypt(block[:], block[:])
	}
}
