package paged

import (
	"slices"
	"testing"

	"ctrpred/internal/rng"
)

func TestLookupAbsent(t *testing.T) {
	tab := New[uint64](32)
	for _, addr := range []uint64{0, 31, 32, 1 << 20, 1 << 40, 1<<63 + 96} {
		if p := tab.Lookup(addr); p != nil {
			t.Errorf("Lookup(%#x) on empty table = %v, want nil", addr, p)
		}
	}
	if tab.Count() != 0 {
		t.Errorf("Count = %d, want 0", tab.Count())
	}
}

func TestEnsureLookupRoundTrip(t *testing.T) {
	tab := New[uint64](32)
	// Dense, dense-boundary, and sparse (beyond 4 GiB) addresses, plus
	// same-line aliases.
	addrs := []uint64{0, 32, 33, 4096, 1 << 20, 1<<32 - 32, 1 << 32, 1 << 40, 1<<48 + 64}
	for i, addr := range addrs {
		v, fresh := tab.Ensure(addr)
		*v = uint64(i + 100)
		al := addr &^ 31 // any byte of the line aliases it
		if got := tab.Lookup(al + 7); got == nil || *got != uint64(i+100) {
			t.Fatalf("Lookup(%#x) after Ensure(%#x) = %v", al+7, addr, got)
		}
		// addr 33 shares line with addr 32.
		if addr == 33 && fresh {
			t.Error("Ensure(33) fresh after Ensure(32)")
		}
	}
	if want := len(addrs) - 1; tab.Count() != want { // 32 and 33 share a line
		t.Errorf("Count = %d, want %d", tab.Count(), want)
	}
}

func TestEnsureFreshOnce(t *testing.T) {
	tab := New[int](32)
	if _, fresh := tab.Ensure(64); !fresh {
		t.Fatal("first Ensure not fresh")
	}
	if _, fresh := tab.Ensure(64); fresh {
		t.Fatal("second Ensure fresh")
	}
	if _, fresh := tab.Ensure(95); fresh {
		t.Fatal("same-line Ensure fresh")
	}
	if _, fresh := tab.Ensure(96); !fresh {
		t.Fatal("next-line Ensure not fresh")
	}
}

func TestDenseSparseAgree(t *testing.T) {
	// Same random workload through the table and a reference map.
	tab := New[uint64](32)
	ref := map[uint64]uint64{}
	r := rng.New(11)
	for n := 0; n < 50_000; n++ {
		// Mix of dense (low) and sparse (high) regions.
		addr := r.Uint64() % (1 << 24)
		if r.Bool(0.1) {
			addr += 1 << 44
		}
		la := addr &^ 31
		if r.Bool(0.5) {
			v, _ := tab.Ensure(addr)
			*v = uint64(n)
			ref[la] = uint64(n)
		} else {
			got := tab.Lookup(addr)
			want, ok := ref[la]
			switch {
			case got == nil && ok:
				t.Fatalf("Lookup(%#x) = nil, want %d", addr, want)
			case got != nil && !ok:
				t.Fatalf("Lookup(%#x) = %d, want absent", addr, *got)
			case got != nil && *got != want:
				t.Fatalf("Lookup(%#x) = %d, want %d", addr, *got, want)
			}
		}
	}
	if tab.Count() != len(ref) {
		t.Errorf("Count = %d, want %d", tab.Count(), len(ref))
	}
}

func TestLookupAllocFree(t *testing.T) {
	tab := New[uint64](32)
	tab.Ensure(1 << 20)
	if n := testing.AllocsPerRun(200, func() {
		tab.Lookup(1 << 20)
		tab.Lookup(1 << 21) // absent line, present page directory range? still no alloc
		tab.Lookup(1 << 50) // sparse miss
	}); n != 0 {
		t.Errorf("Lookup allocates %v times per run, want 0", n)
	}
	// Steady-state Ensure of an existing line must not allocate either.
	if n := testing.AllocsPerRun(200, func() {
		tab.Ensure(1 << 20)
	}); n != 0 {
		t.Errorf("steady-state Ensure allocates %v times per run, want 0", n)
	}
}

func TestBadLineSizePanics(t *testing.T) {
	for _, sz := range []int{0, -1, 3, 48} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d) did not panic", sz)
				}
			}()
			New[int](sz)
		}()
	}
}

// TestCoverMatchesEnsure holds Cover to its per-line definition: Ensure
// of every src line, in ascending address order, into a table that
// already holds some lines. Both tables span dense pages (some full,
// some with one line, some empty between them) and sparse pages past
// the dense horizon; fill must see exactly the lines Ensure reports
// fresh, in the same order, and the tables must end up equal.
func TestCoverMatchesEnsure(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		r := rng.New(seed)
		src := New[uint8](32)
		var srcLines []uint64
		add := func(la uint64) {
			if _, fresh := src.Ensure(la); fresh {
				srcLines = append(srcLines, la)
			}
		}
		for i := uint64(0); i < pageLines; i++ { // a full page
			add(3*pageLines*32 + i*32)
		}
		add(5 * pageLines * 32) // a page with one line, after an empty one
		for n := 0; n < 3000; n++ {
			la := r.Uint64() % (1 << 24) &^ 31
			if pi := la >> 5 >> pageLineBits; pi >= 3 && pi <= 5 {
				continue // keep pages 3 (full), 4 (empty) and 5 (one line)
			}
			if r.Bool(0.2) {
				la += 1 << 32 // past the dense horizon
			}
			add(la)
		}
		slices.Sort(srcLines)

		got, want := New[uint64](32), New[uint64](32)
		for n := 0; n < 500; n++ { // lines the destination already holds
			la := r.Uint64() % (1 << 25) &^ 31
			if r.Bool(0.2) {
				la = srcLines[r.Intn(len(srcLines))]
			}
			v, _ := got.Ensure(la)
			*v = la ^ 1
			v, _ = want.Ensure(la)
			*v = la ^ 1
		}
		var wantFresh, gotFresh []uint64
		for _, la := range srcLines {
			if v, fresh := want.Ensure(la); fresh {
				*v = la
				wantFresh = append(wantFresh, la)
			}
		}
		Cover(got, src, func(addr uint64, v *uint64) {
			if *v != 0 {
				t.Fatalf("seed %d: fill handed line %#x a nonzero value", seed, addr)
			}
			*v = addr
			gotFresh = append(gotFresh, addr)
		})
		if !slices.Equal(gotFresh, wantFresh) {
			t.Fatalf("seed %d: fill saw %d lines, Ensure made %d fresh (or in another order)", seed, len(gotFresh), len(wantFresh))
		}
		if got.Count() != want.Count() {
			t.Fatalf("seed %d: Count %d, per-line %d", seed, got.Count(), want.Count())
		}
		type line struct{ addr, v uint64 }
		var gl, wl []line
		got.ForEach(func(addr uint64, v *uint64) { gl = append(gl, line{addr, *v}) })
		want.ForEach(func(addr uint64, v *uint64) { wl = append(wl, line{addr, *v}) })
		if !slices.Equal(gl, wl) {
			t.Fatalf("seed %d: covered table differs from the per-line one", seed)
		}

		// A nil fill adds the same lines and leaves their values zero.
		bare := New[uint64](32)
		Cover(bare, src, nil)
		if bare.Count() != len(srcLines) {
			t.Fatalf("seed %d: nil-fill Count %d, want %d", seed, bare.Count(), len(srcLines))
		}
		for _, la := range srcLines {
			if v := bare.Lookup(la); v == nil || *v != 0 {
				t.Fatalf("seed %d: nil-fill line %#x = %v", seed, la, v)
			}
		}
	}
}

// TestCoverRefuses pins Cover's preconditions: it never writes a frozen
// table or a view, never reads a view's local pages as its contents, and
// never pairs tables of different line sizes.
func TestCoverRefuses(t *testing.T) {
	src := New[int](32)
	src.Ensure(64)
	frozen := New[int](32)
	frozen.Freeze()
	tmpl := New[int](32)
	tmpl.Ensure(64)
	view := NewView(tmpl)
	cases := map[string]func(){
		"frozen destination": func() { Cover(frozen, src, nil) },
		"view destination":   func() { Cover(view, src, nil) },
		"view source":        func() { Cover(New[int](32), view, nil) },
		"line sizes differ":  func() { Cover(New[int](64), src, nil) },
	}
	for name, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Cover did not panic", name)
				}
			}()
			f()
		}()
	}
}
