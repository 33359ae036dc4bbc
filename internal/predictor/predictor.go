// Package predictor implements the paper's sequence-number (OTP)
// prediction schemes — Section 3 (regular + adaptive) and Section 7
// (two-level, context-based, root-history) — together with the per-page
// security metadata they rely on: the random root sequence number assigned
// at page-mapping time, the 16-bit prediction history vector (PHV) that
// drives adaptive root resets, the root history, and the range-prediction
// table of the two-level scheme.
//
// The predictor owns sequence-number *assignment* as well as guessing:
// when the L2 evicts a dirty line, NextSeqForEvict returns the counter the
// writeback must be encrypted under (increment, or re-base onto the
// current root after a reset, per Section 3.2).
package predictor

import (
	"fmt"

	"ctrpred/internal/cache"
	"ctrpred/internal/ctr"
	"ctrpred/internal/mem"
	"ctrpred/internal/paged"
	"ctrpred/internal/rng"
	"ctrpred/internal/stats"
)

// Scheme selects the guess-generation policy.
type Scheme int

const (
	// SchemeNone disables prediction (baseline architecture).
	SchemeNone Scheme = iota
	// SchemeRegular guesses [root, root+Depth] (Section 3.1).
	SchemeRegular
	// SchemeTwoLevel predicts the offset range first, then runs regular
	// prediction inside it (Section 7.2).
	SchemeTwoLevel
	// SchemeContext adds guesses around the Latest Offset Register
	// (Section 7.4).
	SchemeContext
)

func (s Scheme) String() string {
	switch s {
	case SchemeNone:
		return "none"
	case SchemeRegular:
		return "regular"
	case SchemeTwoLevel:
		return "two-level"
	case SchemeContext:
		return "context"
	}
	return fmt.Sprintf("Scheme(%d)", int(s))
}

// The Table 1 parameters no run varies.
const (
	// PHVBits is the width of the per-page prediction history vector.
	PHVBits = 16
	// RangeTableEntries is the number of pages the two-level range
	// table tracks (64 ≈ 4 KB with 4-bit ranges and 128 lines/page).
	RangeTableEntries = 64
	// RangeBits is the per-line range index width (4 → 16 ranges).
	RangeBits = 4
	maxRange  = 1<<RangeBits - 1
)

// Config holds the prediction parameters a run can vary; the zero
// value is invalid, use DefaultConfig (Table 1 values) and override.
type Config struct {
	// Depth is the prediction depth: guesses root … root+Depth, i.e.
	// Depth+1 guesses (Section 7.4's accounting).
	Depth int
	// Swing is the context-prediction swing around the LOR value.
	Swing int
	// ResetThreshold triggers a root reset when the number of
	// mispredictions in the PHV reaches it (12 of PHVBits).
	ResetThreshold int
	// Adaptive enables PHV tracking and root resets (Section 3.2). The
	// paper's evaluated "Pred" is always adaptive; turning this off gives
	// the plain regular predictor for ablations.
	Adaptive bool
	// HistoryDepth old roots are remembered per page and also used for
	// guessing (Section 7.3). 0 disables.
	HistoryDepth int
}

// maxRootDistance bounds the offset a sequence number may have from the
// current root and still be considered as counting from it (Section
// 3.2's "negative or too large" test).
const maxRootDistance = 1 << 32

// DefaultConfig returns the Table 1 parameters.
func DefaultConfig() Config {
	return Config{Depth: 5, Swing: 3, ResetThreshold: 12, Adaptive: true}
}

// Stats aggregates predictor activity.
type Stats struct {
	// Fetches is the number of sequence-number fetches observed (one per
	// L2 miss that reached memory).
	Fetches uint64
	// Hits is the number of fetches whose true sequence number was among
	// the guesses.
	Hits uint64
	// Guesses is the total number of speculative pads requested.
	Guesses uint64
	// Resets counts adaptive root resets.
	Resets uint64
	// Rebases counts evictions that re-based a stale counter onto the
	// current root.
	Rebases uint64
	// RangeEvictions counts pages displaced from the range table.
	RangeEvictions uint64
	// HitDepth is the distribution of the confirmed guess's position
	// (1-based, most-likely first) in the guess list of hitting fetches:
	// how deep the paper's prediction depth actually needs to reach.
	HitDepth *stats.Histogram
}

// HitRate returns the prediction rate (hits / fetches).
func (s Stats) HitRate() float64 {
	if s.Fetches == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Fetches)
}

// AddTo registers the predictor's statistics into a metrics snapshot
// node.
func (s Stats) AddTo(n *stats.Snapshot) {
	n.Counter("fetches", s.Fetches)
	n.Counter("hits", s.Hits)
	n.Counter("guesses", s.Guesses)
	n.Counter("resets", s.Resets)
	n.Counter("rebases", s.Rebases)
	n.Counter("range_evictions", s.RangeEvictions)
	n.Value("hit_rate", s.HitRate())
	n.Histogram("hit_depth", s.HitDepth)
}

// pageMeta is the per-page security context. Like the root sequence
// number, the two-level scheme's per-line range indices are part of this
// context: the 64-entry range-prediction table is an on-chip cache of the
// most recently used pages' ranges, and the backing copy lives with the
// page table (Section 7.2 prices the per-page storage at 256 bits).
type pageMeta struct {
	root     uint64
	oldRoots []uint64 // most recent first, ≤ HistoryDepth
	phv      uint32   // low PHVBits bits; 1 = misprediction
	phvFill  int      // how many results have been shifted in (≤ PHVBits)
	ranges   []uint8  // two-level range index per line (lazily allocated)
}

// Predictor implements all schemes behind one type; construct with New.
type Predictor struct {
	scheme Scheme
	cfg    Config
	// pages holds each touched virtual page's metadata, one line per
	// 4 KiB page. Values are pointers: a table page of pageMeta values
	// would cost 144 KiB (2,048 × 72 B) for each 8 MiB of address space.
	pages *paged.Table[*pageMeta]
	// last memoizes page's latest answer, the metadata of page lastPage:
	// one fetch's Predict, Observe and NextSeqForEvict ask for the same
	// page. A page's pointer never changes once drawn, and FlushTransient
	// edits pages in place, so the memo never goes stale.
	last     *pageMeta
	lastPage uint64
	rnd      *rng.Xoshiro256
	lor      uint64 // latest offset register
	lorValid bool
	// rangeTable is the on-chip range table's residency: one fully
	// associative set of RangeTableEntries pages (two-level only).
	rangeTable *cache.Cache
	rangeSpan  uint64 // width of one range = Depth+1
	stats      Stats
	scratch    []uint64 // reused guess buffer
}

// New creates a predictor for scheme whose page roots are drawn from a
// generator seeded with seed; it panics on nonsensical parameters.
func New(scheme Scheme, cfg Config, seed uint64) *Predictor {
	if cfg.Depth < 0 {
		panic("predictor: negative Depth")
	}
	if cfg.ResetThreshold <= 0 || cfg.ResetThreshold > PHVBits {
		panic("predictor: ResetThreshold must be in 1..PHVBits")
	}
	p := &Predictor{
		scheme:    scheme,
		cfg:       cfg,
		pages:     paged.New[*pageMeta](1 << mem.PageShift),
		rnd:       rng.New(seed),
		rangeSpan: uint64(cfg.Depth + 1),
	}
	if scheme == SchemeTwoLevel {
		p.rangeTable = cache.New(cache.Config{
			Name:      "range table",
			SizeBytes: RangeTableEntries << mem.PageShift,
			LineSize:  1 << mem.PageShift,
			Ways:      RangeTableEntries,
		})
	}
	p.stats.HitDepth = stats.NewHistogram(1, 2, 3, 4, 6, 8, 12, 16)
	return p
}

// FlushTransient clears the prediction state that does not survive a
// context switch: the latest-offset register the context scheme keys on,
// the per-page prediction-history vectors (confidence restarts cold),
// and the on-chip range table's residency (the backing per-page range
// indices live with the page table and survive). Per-page roots and root
// history are retained — they are part of the process's security context
// and travel with it across switches (Section 7.2's OS support), and
// they determine the counters, so discarding them would change what the
// memory decrypts to, not just how well it is predicted. This is the
// "flush" half of the flush-vs-retain switch policy; retain is a no-op.
func (p *Predictor) FlushTransient() {
	p.lor, p.lorValid = 0, false
	p.pages.ForEach(func(_ uint64, m **pageMeta) { (*m).phv, (*m).phvFill = 0, 0 })
	if p.rangeTable != nil {
		p.rangeTable.InvalidateAll()
	}
}

// Stats returns a copy of the accumulated statistics.
func (p *Predictor) Stats() Stats { return p.stats }

const linesPerPage = 1 << mem.PageShift / ctr.LineSize

func lineIndex(vaddr uint64) int {
	return int(vaddr & (1<<mem.PageShift - 1) / ctr.LineSize)
}

// page returns (allocating if needed) the metadata for vaddr's page. A
// fresh page gets a random root — the model of the hardware RNG assigning
// a root when the virtual page is mapped.
func (p *Predictor) page(vaddr uint64) *pageMeta {
	pn := vaddr >> mem.PageShift
	if p.last != nil && pn == p.lastPage {
		return p.last
	}
	m, fresh := p.pages.Ensure(vaddr)
	if fresh {
		*m = &pageMeta{root: p.rnd.Uint64()}
	}
	p.last, p.lastPage = *m, pn
	return *m
}

// Root returns the current root sequence number for vaddr's page. The
// secure memory controller uses it to encrypt a line's initial contents
// (program-load image) — "all the cache lines of the same page use the
// same root OTP sequence number for their initial values".
func (p *Predictor) Root(vaddr uint64) uint64 { return p.page(vaddr).root }

// fromCurrentRoot reports whether seq plausibly counts from root.
func (p *Predictor) fromCurrentRoot(seq, root uint64) bool {
	return seq-root <= maxRootDistance // wraps for seq < root → huge
}

// Predict returns the guessed sequence numbers for a missing line at
// vaddr, most-likely first, deduplicated. The returned slice is reused by
// the next call. SchemeNone returns nil.
func (p *Predictor) Predict(vaddr uint64) []uint64 {
	if p.scheme == SchemeNone {
		return nil
	}
	m := p.page(vaddr)
	g := p.scratch[:0]

	base := m.root
	lo := uint64(0)
	if p.scheme == SchemeTwoLevel {
		if r, ok := p.rangeLookup(m, vaddr); ok {
			lo = uint64(r) * p.rangeSpan
		}
	}
	for i := uint64(0); i <= uint64(p.cfg.Depth); i++ {
		g = append(g, base+lo+i)
	}

	if p.scheme == SchemeContext && p.lorValid {
		swing := uint64(p.cfg.Swing)
		start := uint64(0)
		if p.lor > swing {
			start = p.lor - swing
		}
		for off := start; off <= p.lor+swing; off++ {
			g = appendUnique(g, base+off)
		}
	}

	if p.cfg.HistoryDepth > 0 {
		for _, old := range m.oldRoots {
			for i := uint64(0); i <= uint64(p.cfg.Depth); i++ {
				g = appendUnique(g, old+i)
			}
		}
	}

	p.scratch = g
	p.stats.Guesses += uint64(len(g))
	return g
}

func appendUnique(g []uint64, v uint64) []uint64 {
	for _, x := range g {
		if x == v {
			return g
		}
	}
	return append(g, v)
}

// Observe records the true sequence number fetched for vaddr together
// with the guess list Predict returned for this same fetch (nil when
// prediction was not consulted — Observe then records a miss); it
// updates the PHV (possibly resetting the page root) and the LOR, and
// reports whether the fetch was a prediction hit. It must be called once
// per memory fetch, whether or not Predict was consulted, when a
// prediction scheme is active.
//
// The guesses are passed explicitly rather than read from the
// predictor's internal buffer so that the confirmed depth is always
// attributed to the guess list that actually covered this fetch: an
// Observe for a fetch whose Predict was not the most recent call must
// not inherit another line's guesses.
func (p *Predictor) Observe(vaddr uint64, trueSeq uint64, guesses []uint64) bool {
	if p.scheme == SchemeNone {
		return false
	}
	p.stats.Fetches++
	hit := false
	for i, g := range guesses {
		if g == trueSeq {
			hit = true
			p.stats.Hits++
			p.stats.HitDepth.Observe(uint64(i + 1))
			break
		}
	}
	m := p.page(vaddr)

	if p.cfg.Adaptive {
		bit := uint32(0)
		if !hit {
			bit = 1
		}
		m.phv = (m.phv<<1 | bit) & (1<<PHVBits - 1)
		if m.phvFill < PHVBits {
			m.phvFill++
		}
		if m.phvFill == PHVBits && popcount(m.phv) >= p.cfg.ResetThreshold {
			p.resetRoot(m)
		}
	}

	// LOR: offset of the most recent access, valid only when the seqnum
	// counts from the page's (possibly just reset) current root.
	if p.fromCurrentRoot(trueSeq, m.root) {
		p.lor = trueSeq - m.root
		p.lorValid = true
	}
	return hit
}

func (p *Predictor) resetRoot(m *pageMeta) {
	p.stats.Resets++
	if p.cfg.HistoryDepth > 0 {
		m.oldRoots = append([]uint64{m.root}, m.oldRoots...)
		if len(m.oldRoots) > p.cfg.HistoryDepth {
			m.oldRoots = m.oldRoots[:p.cfg.HistoryDepth]
		}
	}
	m.root = p.rnd.Uint64()
	m.phv = 0
	m.phvFill = 0
	// The LOR was an offset from the root just discarded; guessing at
	// newRoot+lor would spend pipeline slots on candidates no line can
	// hold. It revalidates at the next fetch that counts from a current
	// root.
	p.lorValid = false
}

// NextSeqForEvict returns the sequence number a dirty eviction of vaddr
// must be encrypted under, given the line's current number. Counters
// advancing from the current root increment; counters stranded on a
// discarded root re-base onto the current root (Section 3.2). The caller
// must use the returned value as the line's new stored counter.
func (p *Predictor) NextSeqForEvict(vaddr uint64, cur uint64) uint64 {
	m := p.page(vaddr)
	var next uint64
	if p.scheme != SchemeNone && !p.fromCurrentRoot(cur, m.root) {
		p.stats.Rebases++
		next = m.root
	} else {
		next = cur + 1
	}
	if p.scheme == SchemeTwoLevel {
		p.rangeUpdate(m, vaddr, next-m.root)
	}
	return next
}

// rangeLookup returns the stored range index for vaddr's line, whose
// page's metadata is m. Range
// info is backed by the page's security context, but the predictor can
// only consult the 64-entry on-chip table in time to steer speculation:
// when the page's entry is not resident, this fetch falls back to regular
// prediction while the entry refills for subsequent accesses.
func (p *Predictor) rangeLookup(m *pageMeta, vaddr uint64) (uint8, bool) {
	if m.ranges == nil {
		return 0, false
	}
	if !p.touchRangeTable(vaddr) {
		return 0, false
	}
	return m.ranges[lineIndex(vaddr)], true
}

// rangeUpdate records the new offset's range for vaddr's line, whose
// page's metadata is m.
func (p *Predictor) rangeUpdate(m *pageMeta, vaddr uint64, offset uint64) {
	if offset > maxRootDistance {
		return // stale offset; don't poison the table
	}
	if m.ranges == nil {
		m.ranges = make([]uint8, linesPerPage)
	}
	p.touchRangeTable(vaddr)
	m.ranges[lineIndex(vaddr)] = uint8(min(offset/p.rangeSpan, maxRange))
}

// touchRangeTable refreshes vaddr's page in the on-chip table, or
// refills it, displacing the least recently used page, and reports
// whether the page was resident.
func (p *Predictor) touchRangeTable(vaddr uint64) bool {
	hit, ev := p.rangeTable.Access(vaddr, false)
	if ev.Valid {
		p.stats.RangeEvictions++
	}
	return hit
}

func popcount(x uint32) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

// WarmRange seeds the two-level scheme's range information for vaddr's
// line at the given counter offset. The paper's fast-forward phase
// simulates the prediction mechanism, so range state — like the counters
// themselves — arrives warm at the measured window. A no-op for other
// schemes.
func (p *Predictor) WarmRange(vaddr uint64, offset uint64) {
	if p.scheme != SchemeTwoLevel || offset > maxRootDistance {
		return // a stale offset warms nothing, so it maps no page either
	}
	p.rangeUpdate(p.page(vaddr), vaddr, offset)
}

// PageCount reports how many pages have metadata (touched pages).
func (p *Predictor) PageCount() int { return p.pages.Count() }
