package tlb

import "testing"

func newTLB() *TLB {
	return New(Config{Name: "d", Entries: 256, Ways: 4, MissPenalty: 30})
}

func TestMissThenHit(t *testing.T) {
	tl := newTLB()
	if lat := tl.Lookup(0x1000); lat != 30 {
		t.Fatalf("cold lookup latency = %d, want 30", lat)
	}
	if lat := tl.Lookup(0x1fff); lat != 0 {
		t.Fatalf("same-page lookup latency = %d, want 0", lat)
	}
	if lat := tl.Lookup(0x2000); lat != 30 {
		t.Fatalf("next-page lookup latency = %d, want 30", lat)
	}
	s := tl.Stats()
	if s.Accesses != 3 || s.Hits != 1 || s.Misses != 2 {
		t.Fatalf("stats = %+v", s)
	}
	if s.HitRate() < 0.33 || s.HitRate() > 0.34 {
		t.Fatalf("hit rate = %v", s.HitRate())
	}
}

func TestCapacityEviction(t *testing.T) {
	// 8 entries, 2 ways → 4 sets. Pages p and p+4 share a set; a third
	// conflicting page evicts the LRU.
	tl := New(Config{Entries: 8, Ways: 2, MissPenalty: 10})
	page := func(n uint64) uint64 { return n << 12 }
	tl.Lookup(page(0))
	tl.Lookup(page(4))
	tl.Lookup(page(0)) // refresh page 0
	tl.Lookup(page(8)) // evicts page 4
	if lat := tl.Lookup(page(0)); lat != 0 {
		t.Fatal("page 0 was evicted, want page 4")
	}
	if lat := tl.Lookup(page(4)); lat == 0 {
		t.Fatal("page 4 unexpectedly still present")
	}
}

func TestFlushAll(t *testing.T) {
	tl := newTLB()
	tl.Lookup(0x1000)
	tl.FlushAll()
	if lat := tl.Lookup(0x1000); lat == 0 {
		t.Fatal("entry survived FlushAll")
	}
}

func TestBadGeometryPanics(t *testing.T) {
	cases := []Config{
		{Entries: 0, Ways: 1},
		{Entries: 7, Ways: 2},
		{Entries: 24, Ways: 2}, // 12 sets, not a power of two
	}
	for _, cfg := range cases {
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
