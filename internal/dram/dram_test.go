package dram

import "testing"

func TestRowMissLatency(t *testing.T) {
	d := New(DefaultConfig())
	done := d.Access(0, 0, 32, false)
	// idle bank: TRCD(30) + TCAS(30) + 4 beats × 5 = 80
	if done != 80 {
		t.Fatalf("done = %d, want 80", done)
	}
	if s := d.Stats(); s.RowMisses != 1 || s.Reads != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestRowHitLatency(t *testing.T) {
	d := New(DefaultConfig())
	d.Access(0, 0, 32, false)
	done := d.Access(1000, 64, 32, false) // same row, bank idle again
	if done != 1000+30+20 {
		t.Fatalf("row-hit done = %d, want 1050", done)
	}
	if d.Stats().RowHits != 1 {
		t.Fatalf("stats = %+v", d.Stats())
	}
}

func TestRowConflictLatency(t *testing.T) {
	d := New(DefaultConfig())
	// rowOfBank 9 hashes to bank 0 ((9 ^ 1) mod 8 = 0) like rowOfBank 0,
	// but is a different row: a genuine row conflict.
	conflict := uint64(9 * RowBytes)
	d.Access(0, 0, 32, false)
	done := d.Access(1000, conflict, 32, false) // same bank, different row
	if want := uint64(1000 + 30 + 30 + 30 + 20); done != want {
		t.Fatalf("conflict done = %d, want %d", done, want)
	}
	if d.Stats().RowConflicts != 1 {
		t.Fatalf("stats = %+v", d.Stats())
	}
}

func TestBankSerialization(t *testing.T) {
	d := New(DefaultConfig())
	first := d.Access(0, 0, 32, false)
	second := d.Access(0, uint64(9*RowBytes), 32, false) // same hashed bank
	if second <= first {
		t.Fatalf("same-bank accesses not serialized: %d then %d", first, second)
	}
}

func TestDifferentBanksOverlap(t *testing.T) {
	d := New(DefaultConfig())
	a := d.Access(0, 0, 32, false)
	b := d.Access(0, uint64(RowBytes), 32, false) // next bank
	// Bank access overlaps; only the 20-cycle bus transfer serializes.
	if b >= a+80 {
		t.Fatalf("different banks fully serialized: %d then %d", a, b)
	}
	if b <= a {
		t.Fatalf("bus not serialized: %d then %d", a, b)
	}
}

func TestBusContention(t *testing.T) {
	d := New(DefaultConfig())
	a := d.Access(0, 0, 32, false)
	b := d.Access(0, uint64(RowBytes), 32, false)
	if b-a != 20 { // second transfer queues behind the first: 4 beats × 5
		t.Fatalf("bus gap = %d, want 20", b-a)
	}
}

func TestWriteCounted(t *testing.T) {
	d := New(DefaultConfig())
	d.Access(0, 0, 32, true)
	if s := d.Stats(); s.Writes != 1 || s.Reads != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestSmallAccess(t *testing.T) {
	d := New(DefaultConfig())
	done := d.Access(0, 8, 8, false) // one beat
	if done != 30+30+5 {
		t.Fatalf("8-byte read done = %d, want 65", done)
	}
}

func TestZeroLengthAccess(t *testing.T) {
	d := New(DefaultConfig())
	if done := d.Access(42, 0, 0, false); done != 42 {
		t.Fatalf("zero-length access done = %d, want 42", done)
	}
}

func TestLineReadLatency(t *testing.T) {
	d := New(DefaultConfig())
	if got := d.LineReadLatency(32); got != 80 {
		t.Fatalf("LineReadLatency(32) = %d, want 80", got)
	}
	if got := d.LineReadLatency(8); got != 65 {
		t.Fatalf("LineReadLatency(8) = %d, want 65", got)
	}
}

func TestBadConfigPanics(t *testing.T) {
	for _, cfg := range []Config{{Banks: 0}, {Banks: 3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v did not panic", cfg)
				}
			}()
			New(cfg)
		}()
	}
}

func TestSeqRegionSeparateBanks(t *testing.T) {
	// The secure memory controller places sequence numbers in a distant
	// region; verify that region maps to valid banks and accrues stats.
	d := New(DefaultConfig())
	d.Access(0, 1<<40, 8, false)
	if d.Stats().Reads != 1 {
		t.Fatal("high-address access not recorded")
	}
}

// TestCloneIsIndependent checks a clone keeps the original's open rows,
// reservations and statistics, and that the two then evolve separately.
func TestCloneIsIndependent(t *testing.T) {
	d := New(DefaultConfig())
	for i := uint64(0); i < 6; i++ {
		d.Access(i*10, i*4096, 32, i%2 == 0)
	}
	c := d.Clone()
	for i := uint64(0); i < 6; i++ {
		addr := i * 2048
		if a, b := d.Access(100, addr, 32, false), c.Access(100, addr, 32, false); a != b {
			t.Fatalf("access %#x: original done %d, clone %d", addr, a, b)
		}
	}
	if d.Stats() != c.Stats() {
		t.Fatalf("stats %+v, clone %+v", d.Stats(), c.Stats())
	}
	c.Access(0, 1<<20, 32, true)
	if d.Stats() == c.Stats() {
		t.Fatal("an access to the clone reached the original")
	}
}
