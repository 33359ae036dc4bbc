// Package paged provides the line-granular backing store behind the
// simulator's hot memory tables: the architectural image in package mem,
// the encrypted-RAM state in package secmem, and each level of the
// integrity tree (keyed by node index, with a line size of 1). The seed
// implementation kept those tables in Go maps, which put a hash + probe
// on every load, store and fetch; workload footprints are bounded and
// known at config time, so the common case deserves plain array
// indexing.
//
// A Table divides the line-address space into fixed 64 KiB pages (2048
// 32-byte lines). Pages below the dense horizon (4 GiB) live behind a
// flat pointer directory grown on demand — one shift, one bounds check
// and two indexed loads per access, no hashing. Pages beyond the horizon
// (nothing the built-in workloads generate, but the API must not care)
// fall back to a sparse map. A per-page bitmap distinguishes touched
// lines from never-written ones so lookups of untouched memory cost no
// allocation and sparse-map semantics ("present or not") are preserved
// exactly.
package paged

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"
)

const (
	// pageLineBits sets the page capacity: 2^11 lines = 64 KiB of
	// address space per page at 32-byte lines.
	pageLineBits = 11
	pageLines    = 1 << pageLineBits
	// denseMaxPages bounds the flat directory: pages below cover the
	// first 4 GiB of address space; the directory itself grows lazily
	// and tops out at 512 KiB of pointers.
	denseMaxPages = 1 << 16
)

type page[V any] struct {
	lines [pageLines]V
	used  [pageLines / 64]uint64
}

// Table is a line-granular store of V keyed by byte address. The zero
// value is not usable; call New.
type Table[V any] struct {
	lineShift uint
	dense     []*page[V]
	sparse    map[uint64]*page[V]
	count     int
	// ro is the frozen template a view reads through (nil for plain
	// tables). A view's local pages are always whole-page copies of the
	// template's, so lookups check local pages first and fall back to
	// the template only when no local page exists.
	ro     *Table[V]
	frozen bool
	// pool recycles COW pages between the template's views: a view's
	// Release hands its local pages back, and sibling views' newPage
	// draws from it before hitting the allocator. It lives on the
	// template (created at Freeze) and is shared by every view, so a
	// sweep's steady-state page traffic allocates nothing. An explicit
	// free list, not a sync.Pool: pages are large (tens of KiB) and a GC
	// between runs must not silently drop them back to the allocator.
	pool *freeList[V]
}

// freeList is a mutex-guarded stack of recycled pages. Operations are
// per-page-copy, not per-access, so the lock is far off the hot path.
type freeList[V any] struct {
	mu    sync.Mutex
	pages []*page[V]
}

func (f *freeList[V]) get() *page[V] {
	f.mu.Lock()
	if n := len(f.pages); n > 0 {
		p := f.pages[n-1]
		f.pages[n-1] = nil
		f.pages = f.pages[:n-1]
		f.mu.Unlock()
		return p
	}
	f.mu.Unlock()
	return new(page[V])
}

func (f *freeList[V]) put(p *page[V]) {
	f.mu.Lock()
	f.pages = append(f.pages, p)
	f.mu.Unlock()
}

// New creates a table for the given line size (a power of two; 32 for
// every table in the simulator). Addresses passed to Lookup/Ensure are
// byte addresses; all bytes of one line share one V.
func New[V any](lineSize int) *Table[V] {
	if lineSize <= 0 || lineSize&(lineSize-1) != 0 {
		panic(fmt.Sprintf("paged: line size %d is not a positive power of two", lineSize))
	}
	var shift uint
	for s := lineSize; s > 1; s >>= 1 {
		shift++
	}
	return &Table[V]{lineShift: shift}
}

// Freeze marks the table immutable: further Ensure calls panic. A table
// becomes a template for copy-on-write views via NewView; freezing is
// what makes sharing it across concurrently running simulations safe.
func (t *Table[V]) Freeze() {
	if t.frozen {
		// Idempotent: NewView freezes its template on every call, and
		// views are created concurrently; after the first (construction-
		// time) freeze this must be a pure read.
		return
	}
	t.frozen = true
	t.pool = &freeList[V]{}
}

// NewView returns a copy-on-write view of template: lookups read through
// to the template's lines, while the first Ensure that touches a page
// copies that whole page (values and used bits) into the view, so writes
// never reach the shared template. The template is frozen as a side
// effect. Pointers returned by a view's Lookup may point into the shared
// template and must be treated as read-only; mutate only through Ensure.
func NewView[V any](template *Table[V]) *Table[V] {
	template.Freeze()
	return &Table[V]{lineShift: template.lineShift, count: template.count, ro: template}
}

// newPage allocates a page, seeding it from the view's template when the
// template holds the same page — the whole-page copy that makes a view's
// local pages a superset of what the template knows about that range.
// Views draw recycled pages from the template's pool; a recycled page is
// either fully overwritten by the template copy or cleared.
func (t *Table[V]) newPage(pi uint64) *page[V] {
	if t.ro == nil {
		return new(page[V])
	}
	p := t.ro.pool.get()
	if tp := t.ro.pageFor(pi); tp != nil {
		*p = *tp
	} else {
		*p = page[V]{}
	}
	return p
}

// Release returns a view's local COW pages to the template's shared pool
// and detaches them, so the next view of the same template reuses the
// memory instead of allocating. Only meaningful on views; a no-op
// otherwise. The table must not be used after Release (lookups would
// read through to the template, silently forgetting local writes), so
// callers release only when the owning simulation is finished.
func (t *Table[V]) Release() {
	if t.ro == nil {
		return
	}
	for i, p := range t.dense {
		if p != nil {
			t.ro.pool.put(p)
			t.dense[i] = nil
		}
	}
	for pi, p := range t.sparse {
		t.ro.pool.put(p)
		delete(t.sparse, pi)
	}
	t.dense = nil
	t.count = 0
}

// pageFor returns the table's own page pi, or nil.
func (t *Table[V]) pageFor(pi uint64) *page[V] {
	if pi < uint64(len(t.dense)) {
		return t.dense[pi]
	}
	if pi >= denseMaxPages {
		return t.sparse[pi]
	}
	return nil
}

// Lookup returns a pointer to the value of the line containing addr, or
// nil if that line was never Ensured. It never allocates. On a view the
// pointer may reach into the shared template; treat it as read-only.
func (t *Table[V]) Lookup(addr uint64) *V {
	li := addr >> t.lineShift
	pi := li >> pageLineBits
	var p *page[V]
	if pi < uint64(len(t.dense)) {
		p = t.dense[pi]
	} else if pi >= denseMaxPages {
		p = t.sparse[pi]
	}
	if p == nil {
		if t.ro != nil {
			return t.ro.Lookup(addr)
		}
		return nil
	}
	slot := li & (pageLines - 1)
	if p.used[slot>>6]&(1<<(slot&63)) == 0 {
		return nil
	}
	return &p.lines[slot]
}

// Ensure returns a pointer to the value of the line containing addr,
// creating it (zero-valued) if absent, and reports whether this call
// created it.
func (t *Table[V]) Ensure(addr uint64) (v *V, fresh bool) {
	if t.frozen {
		panic("paged: Ensure on frozen table")
	}
	li := addr >> t.lineShift
	pi := li >> pageLineBits
	var p *page[V]
	if pi < denseMaxPages {
		if pi >= uint64(len(t.dense)) {
			grown := make([]*page[V], pi+1)
			copy(grown, t.dense)
			t.dense = grown
		}
		p = t.dense[pi]
		if p == nil {
			p = t.newPage(pi)
			t.dense[pi] = p
		}
	} else {
		if t.sparse == nil {
			t.sparse = make(map[uint64]*page[V])
		}
		p = t.sparse[pi]
		if p == nil {
			p = t.newPage(pi)
			t.sparse[pi] = p
		}
	}
	slot := li & (pageLines - 1)
	word, bit := slot>>6, uint64(1)<<(slot&63)
	if p.used[word]&bit == 0 {
		p.used[word] |= bit
		t.count++
		fresh = true
	}
	return &p.lines[slot], fresh
}

// Count reports how many distinct lines have been Ensured.
func (t *Table[V]) Count() int { return t.count }

// ForEach visits every present line in deterministic ascending-address
// order, calling fn with the line's base byte address. It walks the
// table's own pages only (views walk their template separately if they
// need to) and must not be called concurrently with Ensure.
func (t *Table[V]) ForEach(fn func(addr uint64, v *V)) {
	visit := func(pi uint64, p *page[V]) {
		for w, word := range p.used {
			for b := word; b != 0; b &= b - 1 {
				slot := uint64(w*64) + uint64(bits.TrailingZeros64(b))
				li := pi<<pageLineBits | slot
				fn(li<<t.lineShift, &p.lines[slot])
			}
		}
	}
	for pi, p := range t.dense {
		if p != nil {
			visit(uint64(pi), p)
		}
	}
	if len(t.sparse) > 0 {
		keys := make([]uint64, 0, len(t.sparse))
		for pi := range t.sparse {
			keys = append(keys, pi)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		for _, pi := range keys {
			visit(pi, t.sparse[pi])
		}
	}
}
