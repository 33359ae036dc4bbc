package cache

import (
	"testing"
	"testing/quick"
)

func dmCache(sizeBytes int) *Cache {
	return New(Config{Name: "t", SizeBytes: sizeBytes, LineSize: 32, Ways: 1, HitLatency: 1})
}

func TestValidate(t *testing.T) {
	bad := []Config{
		{Name: "zero"},
		{Name: "odd-size", SizeBytes: 100, LineSize: 32, Ways: 1},
		{Name: "bad-ways", SizeBytes: 1024, LineSize: 32, Ways: 3}, // 32 lines / 3 ways
		{Name: "non-pow2-sets", SizeBytes: 32 * 12, LineSize: 32, Ways: 2},
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %q validated but should not", cfg.Name)
		}
	}
	good := Config{Name: "l1", SizeBytes: 8 << 10, LineSize: 32, Ways: 1}
	if err := good.Validate(); err != nil {
		t.Errorf("good config rejected: %v", err)
	}
}

func TestNewPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with bad config did not panic")
		}
	}()
	New(Config{})
}

func TestMissThenHit(t *testing.T) {
	c := dmCache(1024)
	if hit, _ := c.Access(0x100, false); hit {
		t.Fatal("cold access hit")
	}
	if hit, _ := c.Access(0x100, false); !hit {
		t.Fatal("second access missed")
	}
	if hit, _ := c.Access(0x11f, false); !hit {
		t.Fatal("same-line access missed")
	}
	s := c.Stats()
	if s.Accesses != 3 || s.Hits != 2 || s.Misses != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestDirectMappedConflict(t *testing.T) {
	c := dmCache(1024) // 32 lines → addresses 1024 apart conflict
	c.Access(0x0, true)
	hit, ev := c.Access(1024, false)
	if hit {
		t.Fatal("conflicting access hit")
	}
	if !ev.Valid || ev.Addr != 0 || !ev.Dirty {
		t.Fatalf("eviction = %+v, want dirty victim at 0", ev)
	}
	if s := c.Stats(); s.DirtyEvictions != 1 || s.Evictions != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestWriteThroughNeverDirty(t *testing.T) {
	c := New(Config{Name: "wt", SizeBytes: 1024, LineSize: 32, Ways: 1, WriteThrough: true})
	c.Access(0x0, true)
	_, ev := c.Access(1024, false)
	if ev.Dirty {
		t.Fatal("write-through cache produced dirty eviction")
	}
	if c.DirtyLines() != 0 {
		t.Fatal("write-through cache has dirty lines")
	}
}

func TestLRUOrder(t *testing.T) {
	// 2-way: fill both ways, touch the first, then force an eviction —
	// the least recently used (second) must go.
	c := New(Config{Name: "l2", SizeBytes: 64, LineSize: 32, Ways: 2})
	c.Access(0, false)  // way A
	c.Access(64, false) // way B (same single set)
	c.Access(0, false)  // touch A
	_, ev := c.Access(128, false)
	if !ev.Valid || ev.Addr != 64 {
		t.Fatalf("evicted %+v, want line 64", ev)
	}
}

func TestInvalidLinePreferredOverLRU(t *testing.T) {
	c := New(Config{Name: "x", SizeBytes: 128, LineSize: 32, Ways: 4})
	c.Access(0, false)
	_, ev := c.Access(128, false)
	if ev.Valid {
		t.Fatalf("evicted a line while invalid ways remained: %+v", ev)
	}
}

func TestProbeDoesNotDisturb(t *testing.T) {
	c := New(Config{Name: "p", SizeBytes: 64, LineSize: 32, Ways: 2})
	c.Access(0, false)
	c.Access(64, false)
	before := c.Stats()
	if !c.Probe(0) || !c.Probe(64) || c.Probe(128) {
		t.Fatal("probe results wrong")
	}
	if c.Stats() != before {
		t.Fatal("probe changed stats")
	}
	// Probing 0 must not have refreshed its LRU position.
	c.Probe(0)
	_, ev := c.Access(128, false)
	if ev.Addr != 0 {
		t.Fatalf("evicted %+v; probe refreshed LRU", ev)
	}
}

func TestTouch(t *testing.T) {
	c := dmCache(1024)
	if c.Touch(0x40, true) {
		t.Fatal("touch hit on empty cache")
	}
	c.Access(0x40, false)
	if !c.Touch(0x40, true) {
		t.Fatal("touch missed present line")
	}
	_, ev := c.Access(0x40+1024, false)
	if !ev.Dirty {
		t.Fatal("touch(write) did not mark dirty")
	}
}

func TestInvalidate(t *testing.T) {
	c := dmCache(1024)
	c.Access(0x20, true)
	present, dirty := c.Invalidate(0x20)
	if !present || !dirty {
		t.Fatalf("invalidate = (%v,%v), want (true,true)", present, dirty)
	}
	if present, _ := c.Invalidate(0x20); present {
		t.Fatal("double invalidate reported present")
	}
	if hit, _ := c.Access(0x20, false); hit {
		t.Fatal("access hit after invalidate")
	}
}

func TestFlushDirty(t *testing.T) {
	c := dmCache(1024)
	c.Access(0x00, true)
	c.Access(0x40, true)
	c.Access(0x80, false)
	var flushed []uint64
	n := c.FlushDirty(func(a uint64) { flushed = append(flushed, a) })
	if n != 2 || len(flushed) != 2 {
		t.Fatalf("flushed %d lines (%v), want 2", n, flushed)
	}
	if c.DirtyLines() != 0 {
		t.Fatal("dirty lines remain after flush")
	}
	// Lines stay valid after flush.
	if hit, _ := c.Access(0x00, false); !hit {
		t.Fatal("flushed line no longer present")
	}
	if n := c.FlushDirty(nil); n != 0 {
		t.Fatalf("second flush found %d dirty lines", n)
	}
}

func TestInvalidateAll(t *testing.T) {
	c := dmCache(1024)
	c.Access(0, false)
	c.InvalidateAll()
	if c.Probe(0) {
		t.Fatal("line survived InvalidateAll")
	}
}

func TestLineAddr(t *testing.T) {
	c := dmCache(1024)
	if got := c.LineAddr(0x7f); got != 0x60 {
		t.Fatalf("LineAddr(0x7f) = %#x, want 0x60", got)
	}
}

func TestHitRate(t *testing.T) {
	var s Stats
	if s.HitRate() != 0 {
		t.Fatal("empty hit rate != 0")
	}
	s = Stats{Accesses: 4, Hits: 3}
	if s.HitRate() != 0.75 {
		t.Fatalf("hit rate = %v", s.HitRate())
	}
}

// Property: a second access to any address always hits if no other
// address was touched in between.
func TestRepeatAccessHits(t *testing.T) {
	f := func(addr uint64) bool {
		c := dmCache(4096)
		c.Access(addr, false)
		hit, _ := c.Access(addr, false)
		return hit
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: the number of valid lines never exceeds capacity, and
// accesses = hits + misses.
func TestStatsInvariant(t *testing.T) {
	f := func(addrs []uint16) bool {
		c := New(Config{Name: "q", SizeBytes: 512, LineSize: 32, Ways: 2})
		for _, a := range addrs {
			c.Access(uint64(a), a%3 == 0)
		}
		s := c.Stats()
		return s.Accesses == s.Hits+s.Misses && s.DirtyEvictions <= s.Evictions
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAccess(b *testing.B) {
	c := New(Config{Name: "b", SizeBytes: 256 << 10, LineSize: 32, Ways: 4})
	for i := 0; i < b.N; i++ {
		c.Access(uint64(i*64), i%4 == 0)
	}
}
