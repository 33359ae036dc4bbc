package mem

import (
	"bytes"
	"testing"
	"testing/quick"

	"ctrpred/internal/ctr"
)

func TestLoadStoreRoundTrip(t *testing.T) {
	m := New()
	m.Store(0x1000, 8, 0x1122334455667788)
	if got := m.Load(0x1000, 8); got != 0x1122334455667788 {
		t.Fatalf("Load = %#x", got)
	}
	// Little-endian byte order.
	if got := m.Load(0x1000, 1); got != 0x88 {
		t.Fatalf("low byte = %#x, want 0x88", got)
	}
	if got := m.Load(0x1007, 1); got != 0x11 {
		t.Fatalf("high byte = %#x, want 0x11", got)
	}
}

func TestUnwrittenReadsZero(t *testing.T) {
	m := New()
	if m.Load(0xdead00, 8) != 0 {
		t.Fatal("unwritten memory non-zero")
	}
}

func TestPartialSizes(t *testing.T) {
	m := New()
	m.Store(0x10, 4, 0xaabbccdd)
	if got := m.Load(0x10, 4); got != 0xaabbccdd {
		t.Fatalf("4-byte load = %#x", got)
	}
	if got := m.Load(0x10, 2); got != 0xccdd {
		t.Fatalf("2-byte load = %#x", got)
	}
	m.Store(0x12, 2, 0xffff)
	if got := m.Load(0x10, 4); got != 0xffffccdd {
		t.Fatalf("after overlapping store = %#x", got)
	}
}

func TestCrossLinePanics(t *testing.T) {
	m := New()
	defer func() {
		if recover() == nil {
			t.Fatal("line-crossing access did not panic")
		}
	}()
	m.Load(30, 8) // 30+8 > 32
}

func TestBadSizePanics(t *testing.T) {
	m := New()
	defer func() {
		if recover() == nil {
			t.Fatal("3-byte access did not panic")
		}
	}()
	m.Store(0, 3, 1)
}

func TestLineAtSetLine(t *testing.T) {
	m := New()
	var l ctr.Line
	for i := range l {
		l[i] = byte(i + 1)
	}
	m.SetLine(0x2005, l) // any addr within the line works
	if m.LineAt(0x2000) != l {
		t.Fatal("LineAt differs from SetLine")
	}
	if got := m.Load(0x2000, 1); got != 1 {
		t.Fatalf("byte 0 = %d", got)
	}
}

func TestWriteReadBytes(t *testing.T) {
	m := New()
	data := []byte("the quick brown fox jumps over the lazy dog")
	m.WriteBytes(0x3000-5, data) // deliberately spans lines
	got := make([]byte, len(data))
	m.ReadBytes(0x3000-5, got)
	if !bytes.Equal(got, data) {
		t.Fatalf("ReadBytes = %q", got)
	}
}

func TestReadBytesUnwritten(t *testing.T) {
	m := New()
	got := make([]byte, 4)
	m.ReadBytes(0x9000, got)
	if !bytes.Equal(got, []byte{0, 0, 0, 0}) {
		t.Fatalf("unwritten ReadBytes = %v", got)
	}
}

func TestTouchedLines(t *testing.T) {
	m := New()
	m.Store(0, 8, 1)
	m.Store(8, 8, 2)  // same line
	m.Store(32, 8, 3) // next line
	if n := m.TouchedLines(); n != 2 {
		t.Fatalf("TouchedLines = %d, want 2", n)
	}
}

func TestLineAddr(t *testing.T) {
	if LineAddr(0x47) != 0x40 {
		t.Fatalf("LineAddr(0x47) = %#x", LineAddr(0x47))
	}
}

func TestStoreLoadProperty(t *testing.T) {
	f := func(slot uint16, val uint64, size8 uint8) bool {
		size := []int{1, 2, 4, 8}[size8%4]
		addr := uint64(slot) * 8 // 8-aligned → never crosses a line
		m := New()
		m.Store(addr, size, val)
		mask := ^uint64(0)
		if size < 8 {
			mask = 1<<(8*size) - 1
		}
		return m.Load(addr, size) == val&mask
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStoreWords(t *testing.T) {
	m := New()
	m.Store(0x1018, 8, 0xffff) // last word of the line survives
	m.StoreWords(0x1000, 1, 2, 3)
	m.StoreWords(0x1028, 0x1122334455667788)
	for addr, want := range map[uint64]uint64{
		0x1000: 1, 0x1008: 2, 0x1010: 3, 0x1018: 0xffff, 0x1020: 0, 0x1028: 0x1122334455667788,
	} {
		if got := m.Load(addr, 8); got != want {
			t.Errorf("Load(%#x) = %#x, want %#x", addr, got, want)
		}
	}
	if n := m.TouchedLines(); n != 2 {
		t.Errorf("TouchedLines = %d, want 2", n)
	}
	for name, f := range map[string]func(){
		"crossing":   func() { m.StoreWords(0x1010, 1, 2, 3) },
		"misaligned": func() { m.StoreWords(0x1004, 1) },
		"frozen": func() {
			f := New()
			f.Freeze()
			f.StoreWords(0, 1)
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s StoreWords did not panic", name)
				}
			}()
			f()
		}()
	}
}
