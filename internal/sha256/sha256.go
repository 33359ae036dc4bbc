// Package sha256 provides the SHA-256 hash function (FIPS 180-4) that
// underpins the integrity layer (package integrity): the paper notes that
// counter-mode encryption is malleable and "extra or additional measures
// such as Hash/MAC tree for integrity protection must be used together
// with counter mode encryption" (Section 2.2), citing the AEGIS-style
// trees; this package provides the hash those trees are built from.
//
// Sum256 runs the standard library's crypto/sha256, which uses the CPU's
// SHA instructions where it has them and a portable fallback elsewhere
// (build with -tags purego to force the fallback). Digest is the
// package's own incremental implementation of the FIPS 180-4 padding and
// compression function, kept as the reference the tests hold Sum256 to
// on the FIPS 180-4 vectors and on inputs of every length across the
// padding edges.
package sha256

import (
	stdsha256 "crypto/sha256"
	"encoding/binary"
)

// Size is the digest length in bytes.
const Size = 32

// BlockSize is the compression-function block length in bytes.
const BlockSize = 64

var k = [64]uint32{
	0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
	0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
	0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
	0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
	0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
	0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
	0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
	0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
}

// Digest is the incremental SHA-256 reference. The zero
// value is NOT valid; use New.
type Digest struct {
	h      [8]uint32
	block  [BlockSize]byte
	nx     int
	length uint64
}

// New returns an initialized Digest.
func New() *Digest {
	d := &Digest{}
	d.Reset()
	return d
}

// Reset restores the initial state.
func (d *Digest) Reset() {
	d.h = [8]uint32{
		0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
		0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
	}
	d.nx = 0
	d.length = 0
}

// Write absorbs p; it never fails.
func (d *Digest) Write(p []byte) (int, error) {
	n := len(p)
	d.length += uint64(n)
	if d.nx > 0 {
		c := copy(d.block[d.nx:], p)
		d.nx += c
		if d.nx == BlockSize {
			d.compress(d.block[:])
			d.nx = 0
		}
		p = p[c:]
	}
	for len(p) >= BlockSize {
		d.compress(p[:BlockSize])
		p = p[BlockSize:]
	}
	if len(p) > 0 {
		d.nx = copy(d.block[:], p)
	}
	return n, nil
}

// Sum returns the digest of everything written so far, without consuming
// the state, appended to b.
func (d *Digest) Sum(b []byte) []byte {
	out := d.Checksum()
	return append(b, out[:]...)
}

// Checksum returns the digest of everything written so far, without
// consuming the state. Unlike Sum it allocates nothing.
func (d *Digest) Checksum() [Size]byte {
	dd := *d // copy so Checksum doesn't disturb further Writes
	var pad [BlockSize + 8]byte
	pad[0] = 0x80
	msgLen := dd.length
	padLen := BlockSize - int((msgLen+9)%BlockSize)
	if padLen == BlockSize {
		padLen = 0
	}
	dd.Write(pad[:1+padLen])
	var lenBytes [8]byte
	binary.BigEndian.PutUint64(lenBytes[:], msgLen*8)
	dd.Write(lenBytes[:])
	var out [Size]byte
	for i, v := range dd.h {
		binary.BigEndian.PutUint32(out[4*i:], v)
	}
	return out
}

func rotr(x uint32, n uint) uint32 { return x>>n | x<<(32-n) }

func (d *Digest) compress(p []byte) {
	var w [64]uint32
	for i := 0; i < 16; i++ {
		w[i] = binary.BigEndian.Uint32(p[4*i:])
	}
	for i := 16; i < 64; i++ {
		s0 := rotr(w[i-15], 7) ^ rotr(w[i-15], 18) ^ w[i-15]>>3
		s1 := rotr(w[i-2], 17) ^ rotr(w[i-2], 19) ^ w[i-2]>>10
		w[i] = w[i-16] + s0 + w[i-7] + s1
	}
	a, b, c, dd, e, f, g, h := d.h[0], d.h[1], d.h[2], d.h[3], d.h[4], d.h[5], d.h[6], d.h[7]
	for i := 0; i < 64; i++ {
		s1 := rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25)
		ch := e&f ^ ^e&g
		t1 := h + s1 + ch + k[i] + w[i]
		s0 := rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22)
		maj := a&b ^ a&c ^ b&c
		t2 := s0 + maj
		h, g, f, e, dd, c, b, a = g, f, e, dd+t1, c, b, a, t1+t2
	}
	d.h[0] += a
	d.h[1] += b
	d.h[2] += c
	d.h[3] += dd
	d.h[4] += e
	d.h[5] += f
	d.h[6] += g
	d.h[7] += h
}

// Sum256 returns the SHA-256 digest of data. It allocates nothing.
func Sum256(data []byte) [Size]byte {
	return stdsha256.Sum256(data)
}
