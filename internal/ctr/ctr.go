// Package ctr implements the counter-mode memory encryption scheme of the
// paper (Section 2): every 32-byte memory block is XORed with a one-time
// pad (OTP) derived as
//
//	OTP = AES256(key, vaddr‖seq) ‖ AES256(key, (vaddr+16)‖seq)
//
// where vaddr is the 64-bit virtual address of each 16-byte half line and
// seq is the block's 64-bit sequence number (counter). Because the address
// participates in the pad, two blocks of the same page may share a
// sequence number without weakening security (Section 4); because the
// sequence number participates, re-encrypting a block after a dirty
// eviction with an incremented counter yields an unrelated pad.
//
// Encryption and decryption are the same operation (XOR with the pad), so
// DecryptLine is provided only as a readable alias.
package ctr

import (
	"encoding/binary"

	"ctrpred/internal/aes"
)

// LineSize is the memory block (cache line) size in bytes, fixed at 32 to
// match the paper's Table 1.
const LineSize = 32

// HalfLine is the AES block granularity of pad generation.
const HalfLine = aes.BlockSize

// Pad is the one-time pad covering a full cache line.
type Pad [LineSize]byte

// Line is a plaintext or ciphertext cache line.
type Line [LineSize]byte

// Keystream derives one-time pads from a secret AES-256 key. It is the
// functional model of the paper's crypto engine datapath (Figure 3); the
// pipeline timing model lives in package cryptoengine.
type Keystream struct {
	cipher *aes.Cipher
	key    [32]byte
}

// NewKeystream creates a Keystream for the given 256-bit key.
func NewKeystream(key [32]byte) *Keystream {
	return &Keystream{cipher: aes.Must256(key), key: key}
}

// DirectCipher derives the direct-encryption cipher sharing this
// keystream's key, for the direct-mode baseline.
func (k *Keystream) DirectCipher() *DirectCipher {
	return NewDirectCipher(k.key)
}

// Pad computes the OTP for the line whose first byte lives at virtual
// address vaddr (which must be line-aligned) under sequence number seq.
func (k *Keystream) Pad(vaddr, seq uint64) Pad {
	var pad Pad
	k.PadInto(&pad, vaddr, seq)
	return pad
}

// PadInto computes the OTP for the line at line-aligned vaddr under seq
// directly into *dst. It is the allocation-free core of Pad: the two
// counter blocks (vaddr‖seq and vaddr+16‖seq) are assembled as state
// words and run through the cipher's word-level path, so the whole pad
// stays in registers until the final store.
func (k *Keystream) PadInto(dst *Pad, vaddr, seq uint64) {
	if vaddr%LineSize != 0 {
		panic("ctr: pad address not line-aligned")
	}
	seqHi, seqLo := uint32(seq>>32), uint32(seq)
	a1 := vaddr + HalfLine
	// The two half-line blocks are independent, so they run through the
	// interleaved two-block path in one fused pass.
	w0, w1, w2, w3, x0, x1, x2, x3 := k.cipher.EncryptWords2(
		uint32(vaddr>>32), uint32(vaddr), seqHi, seqLo,
		uint32(a1>>32), uint32(a1), seqHi, seqLo)
	binary.BigEndian.PutUint32(dst[0:4], w0)
	binary.BigEndian.PutUint32(dst[4:8], w1)
	binary.BigEndian.PutUint32(dst[8:12], w2)
	binary.BigEndian.PutUint32(dst[12:16], w3)
	binary.BigEndian.PutUint32(dst[16:20], x0)
	binary.BigEndian.PutUint32(dst[20:24], x1)
	binary.BigEndian.PutUint32(dst[24:28], x2)
	binary.BigEndian.PutUint32(dst[28:32], x3)
}

// XORLine XORs line with pad, writing into dst. dst may alias line.
func XORLine(dst *Line, line *Line, pad *Pad) {
	for i := range dst {
		dst[i] = line[i] ^ pad[i]
	}
}

// EncryptLine returns the ciphertext of plain at vaddr under seq.
func (k *Keystream) EncryptLine(plain Line, vaddr, seq uint64) Line {
	var out Line
	k.EncryptLineInto(&out, &plain, vaddr, seq)
	return out
}

// EncryptLineInto encrypts *plain at vaddr under seq into *out without
// copying lines by value. out may alias plain.
func (k *Keystream) EncryptLineInto(out *Line, plain *Line, vaddr, seq uint64) {
	var pad Pad
	k.PadInto(&pad, vaddr, seq)
	XORLine(out, plain, &pad)
}

// DecryptLine returns the plaintext of cipher at vaddr under seq. Counter
// mode is symmetric: this is EncryptLine under another name, kept separate
// so call sites read correctly.
func (k *Keystream) DecryptLine(cipher Line, vaddr, seq uint64) Line {
	return k.EncryptLine(cipher, vaddr, seq)
}

// PadTracker is a paranoia aid used by tests and by the simulator's
// self-check mode: it records every (vaddr, seq) pair used to *encrypt*
// data and reports reuse, which would be a one-time-pad violation. The
// zero value is ready to use.
//
// RecordEncrypt sits on the controller's encrypt path (every
// materialization and dirty eviction), so the set is open-addressed with
// linear probing rather than a Go map: the 128-bit key hashes with two
// multiplies and probes a flat slot array, with no per-insert
// allocation or map-bucket overhead.
type PadTracker struct {
	slots []padID // power-of-two open-addressed table
	state []uint8 // 1 = slot occupied
	count int
	// base optionally reports pairs that count as already used without
	// being recorded here: machines running from a pre-aged template
	// ask the template's frozen counters instead of re-recording them.
	base func(vaddr, seq uint64) bool
	// Violations counts encryptions that reused a (vaddr, seq) pair.
	Violations uint64
	// Encryptions counts all recorded encryptions.
	Encryptions uint64
}

type padID struct{ vaddr, seq uint64 }

// padHash mixes the (vaddr, seq) pair into a table index seed
// (splitmix64-style finalizer over a golden-ratio fold).
func padHash(vaddr, seq uint64) uint64 {
	x := vaddr*0x9e3779b97f4a7c15 + seq
	x ^= x >> 32
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 29
	return x
}

// grow doubles the table (or seeds it) and reinserts every occupied slot.
func (t *PadTracker) grow() {
	newLen := 1024
	if len(t.slots) > 0 {
		newLen = len(t.slots) * 2
	}
	oldSlots, oldState := t.slots, t.state
	t.slots = make([]padID, newLen)
	t.state = make([]uint8, newLen)
	mask := uint64(newLen - 1)
	for i, st := range oldState {
		if st == 0 {
			continue
		}
		id := oldSlots[i]
		h := padHash(id.vaddr, id.seq) & mask
		for t.state[h] != 0 {
			h = (h + 1) & mask
		}
		t.slots[h] = id
		t.state[h] = 1
	}
}

// SetBase installs a membership test for pairs that count as
// already-used pads. It must be a pure function of its arguments;
// callers record into this tracker only. Encryptions under a base pair
// are violations, exactly as if the pair had been recorded here.
func (t *PadTracker) SetBase(used func(vaddr, seq uint64) bool) { t.base = used }

// RecordEncrypt notes that (vaddr, seq) was used to encrypt a new data
// version and reports whether the pair was fresh.
func (t *PadTracker) RecordEncrypt(vaddr, seq uint64) bool {
	t.Encryptions++
	if t.base != nil && t.base(vaddr, seq) {
		t.Violations++
		return false
	}
	if t.count*4 >= len(t.slots)*3 { // keep load factor ≤ 3/4
		t.grow()
	}
	mask := uint64(len(t.slots) - 1)
	h := padHash(vaddr, seq) & mask
	for t.state[h] != 0 {
		if t.slots[h].vaddr == vaddr && t.slots[h].seq == seq {
			t.Violations++
			return false
		}
		h = (h + 1) & mask
	}
	t.slots[h] = padID{vaddr, seq}
	t.state[h] = 1
	t.count++
	return true
}

// DirectCipher implements the direct memory encryption the paper
// contrasts counter mode against (Section 2.2's "other regular block
// cipher based direct memory encryption schemes that serialize line
// fetching and decryption"): each 16-byte half line is encrypted with
// AES under an address-derived tweak (XEX construction), with no
// counters at all.
//
// Two consequences, both demonstrated in the tests: decryption cannot
// begin until the ciphertext arrives (no precomputation is possible —
// the latency motivation for counter mode), and encryption is
// deterministic per address, so rewriting a line with the same data
// produces the same ciphertext (an information leak counter mode's
// fresh counters prevent).
type DirectCipher struct {
	cipher *aes.Cipher
}

// NewDirectCipher creates a DirectCipher for the given 256-bit key.
func NewDirectCipher(key [32]byte) *DirectCipher {
	return &DirectCipher{cipher: aes.Must256(key)}
}

// tweak derives the per-half-line masking block from the address.
func (d *DirectCipher) tweak(vaddr uint64) [aes.BlockSize]byte {
	var in, out [aes.BlockSize]byte
	binary.BigEndian.PutUint64(in[0:8], vaddr)
	binary.BigEndian.PutUint64(in[8:16], ^vaddr)
	d.cipher.Encrypt(out[:], in[:])
	return out
}

// EncryptLine encrypts plain at line-aligned vaddr.
func (d *DirectCipher) EncryptLine(plain Line, vaddr uint64) Line {
	if vaddr%LineSize != 0 {
		panic("ctr: direct encryption address not line-aligned")
	}
	var out Line
	for half := 0; half < LineSize/HalfLine; half++ {
		tw := d.tweak(vaddr + uint64(half*HalfLine))
		var block [aes.BlockSize]byte
		for i := range block {
			block[i] = plain[half*HalfLine+i] ^ tw[i]
		}
		d.cipher.Encrypt(block[:], block[:])
		for i := range block {
			out[half*HalfLine+i] = block[i] ^ tw[i]
		}
	}
	return out
}

// DecryptLine inverts EncryptLine.
func (d *DirectCipher) DecryptLine(cipherLine Line, vaddr uint64) Line {
	if vaddr%LineSize != 0 {
		panic("ctr: direct decryption address not line-aligned")
	}
	var out Line
	for half := 0; half < LineSize/HalfLine; half++ {
		tw := d.tweak(vaddr + uint64(half*HalfLine))
		var block [aes.BlockSize]byte
		for i := range block {
			block[i] = cipherLine[half*HalfLine+i] ^ tw[i]
		}
		d.cipher.Decrypt(block[:], block[:])
		for i := range block {
			out[half*HalfLine+i] = block[i] ^ tw[i]
		}
	}
	return out
}
