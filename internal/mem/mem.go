// Package mem holds the architectural (plaintext) memory image as seen
// from inside the secure processor boundary. The CPU's loads and stores
// operate on this image; package secmem keeps the encrypted off-chip copy
// and checks, on every fetch, that decrypting it reproduces this image.
//
// Storage is line-granular over a paged backing store (package paged):
// the bounded working sets the workloads touch live in flat per-page
// arrays — no hashing on the load/store hot path — while multi-gigabyte
// address spaces still cost only what a workload touches, with a sparse
// fallback beyond the dense horizon. Values are little-endian.
package mem

import (
	"encoding/binary"
	"fmt"

	"ctrpred/internal/ctr"
	"ctrpred/internal/paged"
)

// Memory is a line-granular byte store. The zero value is not usable;
// call New.
type Memory struct {
	lines *paged.Table[ctr.Line]
}

// New creates an empty memory.
func New() *Memory {
	return &Memory{lines: paged.New[ctr.Line](ctr.LineSize)}
}

// Release returns a view's copy-on-write pages to the template's shared
// pool (see paged.Table.Release). The memory must not be used afterward.
func (m *Memory) Release() { m.lines.Release() }

// Freeze marks the memory immutable; further stores panic. A frozen
// memory is a safe template for NewView across concurrent simulations.
func (m *Memory) Freeze() { m.lines.Freeze() }

// NewView returns a copy-on-write view of template: loads read through to
// the template's lines, while the first store to a page copies it into
// the view, so template contents are never modified. The template is
// frozen as a side effect. This is how sweeps share one built workload
// image across many machines instead of re-assembling and re-writing
// megabytes per run.
func NewView(template *Memory) *Memory {
	return &Memory{lines: paged.NewView(template.lines)}
}

// LineAddr returns addr rounded down to its 32-byte line.
func LineAddr(addr uint64) uint64 { return addr &^ uint64(ctr.LineSize-1) }

// PageShift is log2 of the 4 KiB virtual page: the unit the TLBs
// translate and the predictor keeps one root counter for.
const PageShift = 12

func (m *Memory) line(addr uint64, create bool) *ctr.Line {
	if create {
		l, _ := m.lines.Ensure(addr)
		return l
	}
	return m.lines.Lookup(addr)
}

// checkSpan panics if an access of size bytes at addr crosses a line
// boundary or has an unsupported size. The ISA only generates 1/2/4/8-byte
// naturally aligned accesses, so a crossing indicates a simulator bug.
func checkSpan(addr uint64, size int) {
	switch size {
	case 1, 2, 4, 8:
	default:
		panic(fmt.Sprintf("mem: unsupported access size %d", size))
	}
	if addr%uint64(ctr.LineSize)+uint64(size) > uint64(ctr.LineSize) {
		panic(fmt.Sprintf("mem: access at %#x size %d crosses line boundary", addr, size))
	}
}

// Load reads size bytes (1, 2, 4 or 8) at addr, zero-extended,
// little-endian. Unwritten memory reads as zero.
func (m *Memory) Load(addr uint64, size int) uint64 {
	checkSpan(addr, size)
	l := m.lines.Lookup(addr)
	if l == nil {
		return 0
	}
	off := int(addr % uint64(ctr.LineSize))
	var v uint64
	for i := size - 1; i >= 0; i-- {
		v = v<<8 | uint64(l[off+i])
	}
	return v
}

// Store writes the low size bytes of val at addr, little-endian.
func (m *Memory) Store(addr uint64, size int, val uint64) {
	checkSpan(addr, size)
	l, _ := m.lines.Ensure(addr)
	off := int(addr % uint64(ctr.LineSize))
	for i := 0; i < size; i++ {
		l[off+i] = byte(val >> (8 * i))
	}
}

// StoreWords writes words as consecutive little-endian 8-byte values from
// addr, which must be 8-byte aligned, up to at most the end of addr's
// line: the bulk path image builders write through, one table lookup per
// line instead of one per word. Bytes of the line past the last word keep
// their contents.
func (m *Memory) StoreWords(addr uint64, words ...uint64) {
	off := int(addr % uint64(ctr.LineSize))
	if addr%8 != 0 || off+8*len(words) > ctr.LineSize {
		panic(fmt.Sprintf("mem: %d words at %#x cross a line boundary or are misaligned", len(words), addr))
	}
	l, _ := m.lines.Ensure(addr)
	for _, w := range words {
		binary.LittleEndian.PutUint64(l[off:], w)
		off += 8
	}
}

// LineAt returns a copy of the line containing addr.
func (m *Memory) LineAt(addr uint64) ctr.Line {
	if l := m.lines.Lookup(addr); l != nil {
		return *l
	}
	return ctr.Line{}
}

// LineRef returns a pointer to the line containing addr, or nil if the
// line was never written — the copy-free variant of LineAt for hot paths
// (the secure controller's per-fetch self-check and writeback
// encryption). Callers must not retain the pointer across stores.
func (m *Memory) LineRef(addr uint64) *ctr.Line {
	return m.lines.Lookup(addr)
}

// SetLine replaces the line containing addr.
func (m *Memory) SetLine(addr uint64, data ctr.Line) {
	*m.line(addr, true) = data
}

// WriteBytes copies p into memory starting at addr (image loading).
func (m *Memory) WriteBytes(addr uint64, p []byte) {
	for len(p) > 0 {
		l, _ := m.lines.Ensure(addr)
		off := int(addr % uint64(ctr.LineSize))
		n := copy(l[off:], p)
		p = p[n:]
		addr += uint64(n)
	}
}

// ReadBytes copies len(p) bytes starting at addr into p.
func (m *Memory) ReadBytes(addr uint64, p []byte) {
	for i := 0; i < len(p); {
		off := int(addr % uint64(ctr.LineSize))
		n := ctr.LineSize - off
		if n > len(p)-i {
			n = len(p) - i
		}
		if l := m.lines.Lookup(addr); l != nil {
			copy(p[i:i+n], l[off:])
		} else {
			for j := i; j < i+n; j++ {
				p[j] = 0
			}
		}
		i += n
		addr += uint64(n)
	}
}

// TouchedLines reports how many distinct lines have been written.
func (m *Memory) TouchedLines() int { return m.lines.Count() }

// ForEachLine visits every written line in ascending address order,
// calling fn with each line's base address. Views visit only their own
// copied pages, so call this on the underlying memory, not a view.
func (m *Memory) ForEachLine(fn func(la uint64)) {
	m.lines.ForEach(func(addr uint64, _ *ctr.Line) { fn(addr) })
}

// Cover makes every line m holds present in t as well, a page at a time
// in ascending address order, calling fill (unless nil) with each line it
// adds: how a template's counter half comes to shadow its image (see
// paged.Cover). m must not be a view.
func Cover[V any](t *paged.Table[V], m *Memory, fill func(la uint64, v *V)) {
	paged.Cover(t, m.lines, fill)
}
