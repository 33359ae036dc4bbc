// Package aes provides the AES (Rijndael) block cipher of FIPS-197 for
// key sizes of 128, 192 and 256 bits.
//
// The paper's crypto engine is a fully pipelined hardware AES-256 unit;
// this package provides the functional half of that engine (the timing
// half lives in internal/cryptoengine). The simulator really encrypts
// every memory block it touches — mispredicted pads are computed and
// discarded exactly as the hardware would — so Encrypt and Decrypt run
// the standard library's crypto/aes, which uses the CPU's AES
// instructions where it has them and a constant-time portable fallback
// elsewhere (build with -tags purego to force the fallback).
//
// Beside that kernel sits the package's own byte-wise reference
// (EncryptReference/DecryptReference) that applies SubBytes, ShiftRows
// and MixColumns as separate auditable steps. Its S-box and inverse are
// generated at init time from the GF(2^8) multiplicative inverse and the
// affine transform, rather than embedded as opaque tables, so the tests
// can cross-check the construction against the published constants. The
// tests hold Encrypt and Decrypt to the reference on the FIPS-197
// known-answer vectors and on random blocks at every key size.
package aes

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"fmt"
)

// BlockSize is the AES block size in bytes.
const BlockSize = 16

// KeySize constants for the three AES variants, in bytes.
const (
	KeySize128 = 16
	KeySize192 = 24
	KeySize256 = 32
)

var (
	sbox    [256]byte
	invSbox [256]byte
	// rcon[i] is the round constant for key expansion round i (1-based).
	rcon [15]byte
	// Precomputed GF(2^8) multiplication tables for the reference's
	// (inv)MixColumns coefficients, computed once from gmul.
	mul2, mul3, mul9, mul11, mul13, mul14 [256]byte
)

func init() {
	initSbox()
	initRcon()
	for i := 0; i < 256; i++ {
		b := byte(i)
		mul2[i] = gmul(b, 2)
		mul3[i] = gmul(b, 3)
		mul9[i] = gmul(b, 9)
		mul11[i] = gmul(b, 11)
		mul13[i] = gmul(b, 13)
		mul14[i] = gmul(b, 14)
	}
}

// xtime multiplies a field element by x (i.e., 2) in GF(2^8) with the AES
// reduction polynomial x^8 + x^4 + x^3 + x + 1 (0x11b).
func xtime(b byte) byte {
	if b&0x80 != 0 {
		return b<<1 ^ 0x1b
	}
	return b << 1
}

// gmul multiplies two field elements in GF(2^8).
func gmul(a, b byte) byte {
	var p byte
	for i := 0; i < 8; i++ {
		if b&1 != 0 {
			p ^= a
		}
		a = xtime(a)
		b >>= 1
	}
	return p
}

// initSbox derives the AES S-box: byte inverse in GF(2^8) followed by the
// affine transform b ^ rot(b,1) ^ rot(b,2) ^ rot(b,3) ^ rot(b,4) ^ 0x63.
func initSbox() {
	// Build inverses by brute force; 256^2 work, done once.
	var inv [256]byte
	for a := 1; a < 256; a++ {
		for b := 1; b < 256; b++ {
			if gmul(byte(a), byte(b)) == 1 {
				inv[a] = byte(b)
				break
			}
		}
	}
	rotl8 := func(b byte, n uint) byte { return b<<n | b>>(8-n) }
	for i := 0; i < 256; i++ {
		b := inv[i]
		s := b ^ rotl8(b, 1) ^ rotl8(b, 2) ^ rotl8(b, 3) ^ rotl8(b, 4) ^ 0x63
		sbox[i] = s
		invSbox[s] = byte(i)
	}
}

func initRcon() {
	c := byte(1)
	for i := 1; i < len(rcon); i++ {
		rcon[i] = c
		c = xtime(c)
	}
}

// Cipher is an AES cipher instance: the standard library's block for
// Encrypt and Decrypt, and the reference path's key schedules. Encrypt
// and Decrypt stage every block through the Cipher's own buffer, so a
// Cipher serves one goroutine at a time; the reference methods only read
// it.
type Cipher struct {
	block  cipher.Block
	rounds int
	// enc and dec hold the reference path's round keys as 4-byte words,
	// 4*(rounds+1) each.
	enc []uint32
	dec []uint32
	// buf is the block the standard library's cipher reads and writes.
	// That cipher sits behind an interface, so escape analysis moves any
	// buffer handed to it to the heap; staging through this one, which
	// lives with the Cipher, keeps the callers' blocks (a pad on the
	// fetch path) on their stacks.
	buf [BlockSize]byte
}

// KeySizeError reports an invalid AES key length.
type KeySizeError int

func (k KeySizeError) Error() string {
	return fmt.Sprintf("aes: invalid key size %d (want 16, 24 or 32)", int(k))
}

// New creates a Cipher for the given 16-, 24- or 32-byte key.
func New(key []byte) (*Cipher, error) {
	var rounds int
	switch len(key) {
	case KeySize128:
		rounds = 10
	case KeySize192:
		rounds = 12
	case KeySize256:
		rounds = 14
	default:
		return nil, KeySizeError(len(key))
	}
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, err // unreachable: the length was checked above
	}
	c := &Cipher{block: block, rounds: rounds}
	c.expandKey(key)
	return c, nil
}

// Must256 creates an AES-256 Cipher from a 32-byte key and panics on
// error. It is a convenience for the simulator, whose keys are always
// generated at the right length.
func Must256(key [32]byte) *Cipher {
	c, err := New(key[:])
	if err != nil {
		panic(err) // unreachable: key is 32 bytes by construction
	}
	return c
}

// Rounds reports the number of AES rounds for this key size (10/12/14).
func (c *Cipher) Rounds() int { return c.rounds }

func subWord(w uint32) uint32 {
	return uint32(sbox[w>>24])<<24 |
		uint32(sbox[w>>16&0xff])<<16 |
		uint32(sbox[w>>8&0xff])<<8 |
		uint32(sbox[w&0xff])
}

func rotWord(w uint32) uint32 { return w<<8 | w>>24 }

// expandKey builds the encryption and decryption key schedules.
func (c *Cipher) expandKey(key []byte) {
	nk := len(key) / 4
	n := 4 * (c.rounds + 1)
	c.enc = make([]uint32, n)
	for i := 0; i < nk; i++ {
		c.enc[i] = binary.BigEndian.Uint32(key[4*i:])
	}
	for i := nk; i < n; i++ {
		t := c.enc[i-1]
		switch {
		case i%nk == 0:
			t = subWord(rotWord(t)) ^ uint32(rcon[i/nk])<<24
		case nk > 6 && i%nk == 4:
			t = subWord(t)
		}
		c.enc[i] = c.enc[i-nk] ^ t
	}

	// Decryption schedule: reversed round keys with InvMixColumns applied
	// to the middle rounds (equivalent inverse cipher, FIPS-197 §5.3.5).
	c.dec = make([]uint32, n)
	for i := 0; i < n; i += 4 {
		src := n - i - 4
		for j := 0; j < 4; j++ {
			w := c.enc[src+j]
			if i > 0 && i+4 < n {
				w = invMixColumnsWord(w)
			}
			c.dec[i+j] = w
		}
	}
}

// state is the 4x4 AES state held column-major in four words, matching
// the key schedule layout: word i is column i, byte 0 is row 0.
type state [4]uint32

func loadState(src []byte) state {
	var s state
	for i := 0; i < 4; i++ {
		s[i] = binary.BigEndian.Uint32(src[4*i:])
	}
	return s
}

func (s *state) store(dst []byte) {
	for i := 0; i < 4; i++ {
		binary.BigEndian.PutUint32(dst[4*i:], s[i])
	}
}

func (s *state) addRoundKey(rk []uint32) {
	s[0] ^= rk[0]
	s[1] ^= rk[1]
	s[2] ^= rk[2]
	s[3] ^= rk[3]
}

func (s *state) subBytes(box *[256]byte) {
	for i := 0; i < 4; i++ {
		w := s[i]
		s[i] = uint32(box[w>>24])<<24 |
			uint32(box[w>>16&0xff])<<16 |
			uint32(box[w>>8&0xff])<<8 |
			uint32(box[w&0xff])
	}
}

// byteAt returns row r of column word w (row 0 = most significant byte).
func byteAt(w uint32, r uint) byte { return byte(w >> (24 - 8*r)) }

// shiftRows cyclically shifts row r left by r positions.
func (s *state) shiftRows() {
	var out state
	for col := 0; col < 4; col++ {
		out[col] = uint32(byteAt(s[col], 0))<<24 |
			uint32(byteAt(s[(col+1)%4], 1))<<16 |
			uint32(byteAt(s[(col+2)%4], 2))<<8 |
			uint32(byteAt(s[(col+3)%4], 3))
	}
	*s = out
}

// invShiftRows cyclically shifts row r right by r positions.
func (s *state) invShiftRows() {
	var out state
	for col := 0; col < 4; col++ {
		out[col] = uint32(byteAt(s[col], 0))<<24 |
			uint32(byteAt(s[(col+3)%4], 1))<<16 |
			uint32(byteAt(s[(col+2)%4], 2))<<8 |
			uint32(byteAt(s[(col+1)%4], 3))
	}
	*s = out
}

func mixColumnsWord(w uint32) uint32 {
	a0, a1, a2, a3 := byteAt(w, 0), byteAt(w, 1), byteAt(w, 2), byteAt(w, 3)
	return uint32(mul2[a0]^mul3[a1]^a2^a3)<<24 |
		uint32(a0^mul2[a1]^mul3[a2]^a3)<<16 |
		uint32(a0^a1^mul2[a2]^mul3[a3])<<8 |
		uint32(mul3[a0]^a1^a2^mul2[a3])
}

func invMixColumnsWord(w uint32) uint32 {
	a0, a1, a2, a3 := byteAt(w, 0), byteAt(w, 1), byteAt(w, 2), byteAt(w, 3)
	return uint32(mul14[a0]^mul11[a1]^mul13[a2]^mul9[a3])<<24 |
		uint32(mul9[a0]^mul14[a1]^mul11[a2]^mul13[a3])<<16 |
		uint32(mul13[a0]^mul9[a1]^mul14[a2]^mul11[a3])<<8 |
		uint32(mul11[a0]^mul13[a1]^mul9[a2]^mul14[a3])
}

func (s *state) mixColumns() {
	for i := 0; i < 4; i++ {
		s[i] = mixColumnsWord(s[i])
	}
}

func (s *state) invMixColumns() {
	for i := 0; i < 4; i++ {
		s[i] = invMixColumnsWord(s[i])
	}
}

// Encrypt encrypts the 16-byte block src into dst. dst and src may
// overlap entirely (in-place) but must each be at least BlockSize long.
func (c *Cipher) Encrypt(dst, src []byte) {
	if len(src) < BlockSize || len(dst) < BlockSize {
		panic("aes: input or output block too short")
	}
	copy(c.buf[:], src)
	c.block.Encrypt(c.buf[:], c.buf[:])
	copy(dst, c.buf[:])
}

// Decrypt decrypts the 16-byte block src into dst. dst and src may
// overlap entirely.
func (c *Cipher) Decrypt(dst, src []byte) {
	if len(src) < BlockSize || len(dst) < BlockSize {
		panic("aes: input or output block too short")
	}
	copy(c.buf[:], src)
	c.block.Decrypt(c.buf[:], c.buf[:])
	copy(dst, c.buf[:])
}

// EncryptReference is the byte-wise FIPS-197 reference implementation of
// Encrypt: SubBytes, ShiftRows, MixColumns and AddRoundKey applied as
// separate auditable steps. The tests assert Encrypt ≡ EncryptReference
// over the FIPS known-answer vectors and random blocks; the simulator
// never calls it.
func (c *Cipher) EncryptReference(dst, src []byte) {
	if len(src) < BlockSize || len(dst) < BlockSize {
		panic("aes: input or output block too short")
	}
	s := loadState(src)
	s.addRoundKey(c.enc[0:4])
	for r := 1; r < c.rounds; r++ {
		s.subBytes(&sbox)
		s.shiftRows()
		s.mixColumns()
		s.addRoundKey(c.enc[4*r : 4*r+4])
	}
	s.subBytes(&sbox)
	s.shiftRows()
	s.addRoundKey(c.enc[4*c.rounds : 4*c.rounds+4])
	s.store(dst)
}

// DecryptReference is the byte-wise equivalent-inverse-cipher reference
// implementation of Decrypt (see EncryptReference).
func (c *Cipher) DecryptReference(dst, src []byte) {
	if len(src) < BlockSize || len(dst) < BlockSize {
		panic("aes: input or output block too short")
	}
	s := loadState(src)
	s.addRoundKey(c.dec[0:4])
	for r := 1; r < c.rounds; r++ {
		s.subBytes(&invSbox)
		s.invShiftRows()
		s.invMixColumns()
		s.addRoundKey(c.dec[4*r : 4*r+4])
	}
	s.subBytes(&invSbox)
	s.invShiftRows()
	s.addRoundKey(c.dec[4*c.rounds : 4*c.rounds+4])
	s.store(dst)
}

// Sbox returns the value of the AES S-box at i (exported for the tests of
// packages that model the hardware datapath).
func Sbox(i byte) byte { return sbox[i] }

// InvSbox returns the value of the inverse S-box at i.
func InvSbox(i byte) byte { return invSbox[i] }
