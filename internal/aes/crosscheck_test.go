package aes

import (
	"bytes"
	"testing"

	"ctrpred/internal/rng"
)

// TestReferenceFIPS197Vectors runs the Appendix C known-answer vectors
// through the byte-wise reference path for all three key sizes, so the
// reference stays a valid oracle for the cross-checks below.
func TestReferenceFIPS197Vectors(t *testing.T) {
	for _, v := range fipsVectors {
		key := unhex(t, v.key)
		c, err := New(key)
		if err != nil {
			t.Fatalf("New(%d-byte key): %v", len(key), err)
		}
		got := make([]byte, BlockSize)
		c.EncryptReference(got, unhex(t, v.plain))
		if want := unhex(t, v.cipher); !bytes.Equal(got, want) {
			t.Errorf("AES-%d reference encrypt = %x, want %x", len(key)*8, got, want)
		}
		dec := make([]byte, BlockSize)
		c.DecryptReference(dec, unhex(t, v.cipher))
		if want := unhex(t, v.plain); !bytes.Equal(dec, want) {
			t.Errorf("AES-%d reference decrypt = %x, want %x", len(key)*8, dec, want)
		}
	}
}

// TestEncryptMatchesReference cross-checks the standard-library kernel
// behind Encrypt and Decrypt against the byte-wise reference on 10k
// random blocks per key size, in both directions and in place (both
// paths meet the FIPS-197 vectors in TestFIPS197Vectors and
// TestReferenceFIPS197Vectors). Under -tags purego the kernel is the
// stdlib's portable fallback, held to the same reference.
func TestEncryptMatchesReference(t *testing.T) {
	const blocks = 10_000
	r := rng.New(0x7ab1e5)
	for _, keyLen := range []int{KeySize128, KeySize192, KeySize256} {
		key := make([]byte, keyLen)
		for i := range key {
			key[i] = byte(r.Uint64())
		}
		c, err := New(key)
		if err != nil {
			t.Fatal(err)
		}
		var src, fast, ref [BlockSize]byte
		for n := 0; n < blocks; n++ {
			for i := 0; i < BlockSize; i += 8 {
				v := r.Uint64()
				for j := 0; j < 8; j++ {
					src[i+j] = byte(v >> (8 * j))
				}
			}
			c.Encrypt(fast[:], src[:])
			c.EncryptReference(ref[:], src[:])
			if fast != ref {
				t.Fatalf("AES-%d block %d: encrypt %x != reference %x (src %x)",
					keyLen*8, n, fast, ref, src)
			}
			inPlace := src
			c.Encrypt(inPlace[:], inPlace[:])
			if inPlace != ref {
				t.Fatalf("AES-%d block %d: in-place encrypt %x != reference %x", keyLen*8, n, inPlace, ref)
			}
			c.Decrypt(fast[:], src[:])
			c.DecryptReference(ref[:], src[:])
			if fast != ref {
				t.Fatalf("AES-%d block %d: decrypt %x != reference %x (src %x)",
					keyLen*8, n, fast, ref, src)
			}
		}
	}
}

func BenchmarkEncryptReference256(b *testing.B) {
	c := Must256([32]byte{1})
	var block [16]byte
	b.SetBytes(16)
	for i := 0; i < b.N; i++ {
		c.EncryptReference(block[:], block[:])
	}
}
