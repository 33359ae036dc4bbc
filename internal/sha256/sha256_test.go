package sha256

import (
	"bytes"
	"encoding/hex"
	"testing"
	"testing/quick"
)

// NIST / FIPS 180-4 known-answer vectors.
var vectors = []struct {
	in   string
	want string
}{
	{"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
	{"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
	{"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
		"248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
	{"The quick brown fox jumps over the lazy dog",
		"d7a8fbb307d7809469ca9abcb0082e4f8d5651e46d3cdb762d02d0bf37c9e592"},
}

func TestVectors(t *testing.T) {
	for _, v := range vectors {
		got := Sum256([]byte(v.in))
		if hex.EncodeToString(got[:]) != v.want {
			t.Errorf("SHA256(%q) = %x, want %s", v.in, got, v.want)
		}
	}
}

func TestMillionA(t *testing.T) {
	// FIPS 180-4: one million 'a' characters.
	d := New()
	block := bytes.Repeat([]byte{'a'}, 1000)
	for i := 0; i < 1000; i++ {
		d.Write(block)
	}
	want := "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
	if got := hex.EncodeToString(d.Sum(nil)); got != want {
		t.Fatalf("SHA256(1M 'a') = %s, want %s", got, want)
	}
}

func TestIncrementalMatchesOneShot(t *testing.T) {
	f := func(a, b, c []byte) bool {
		d := New()
		d.Write(a)
		d.Write(b)
		d.Write(c)
		var whole []byte
		whole = append(whole, a...)
		whole = append(whole, b...)
		whole = append(whole, c...)
		want := Sum256(whole)
		return bytes.Equal(d.Sum(nil), want[:])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSumDoesNotConsumeState(t *testing.T) {
	d := New()
	d.Write([]byte("ab"))
	first := d.Sum(nil)
	second := d.Sum(nil)
	if !bytes.Equal(first, second) {
		t.Fatal("Sum consumed state")
	}
	d.Write([]byte("c"))
	want := Sum256([]byte("abc"))
	if !bytes.Equal(d.Sum(nil), want[:]) {
		t.Fatal("Write after Sum produced wrong digest")
	}
}

func TestReset(t *testing.T) {
	d := New()
	d.Write([]byte("garbage"))
	d.Reset()
	d.Write([]byte("abc"))
	want := Sum256([]byte("abc"))
	if !bytes.Equal(d.Sum(nil), want[:]) {
		t.Fatal("Reset did not restore initial state")
	}
}

func TestSumAppends(t *testing.T) {
	d := New()
	d.Write([]byte("abc"))
	out := d.Sum([]byte{0xaa, 0xbb})
	if out[0] != 0xaa || out[1] != 0xbb || len(out) != 2+Size {
		t.Fatalf("Sum append misbehaved: % x", out[:4])
	}
}

// TestSum256AllocFree pins the one-shot hash to the stack: the
// integrity tree hashes a leaf on every update and verification.
func TestSum256AllocFree(t *testing.T) {
	buf := make([]byte, 48)
	if n := testing.AllocsPerRun(100, func() { Sum256(buf) }); n != 0 {
		t.Fatalf("Sum256 allocates %.1f times per call, want 0", n)
	}
}

func BenchmarkSum256(b *testing.B) {
	buf := make([]byte, 4096)
	b.SetBytes(4096)
	for i := 0; i < b.N; i++ {
		Sum256(buf)
	}
}
