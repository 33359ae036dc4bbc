// Package tlb models the instruction and data translation lookaside
// buffers of Table 1 (4-way, 256 entries). In the paper each TLB entry is
// additionally tagged with the page's root sequence number; in this
// implementation the root lives in the predictor's page table (the
// architectural "per-process security context") and the TLB contributes
// timing: a miss costs a page-walk penalty. Pages are mem.PageShift
// (4 KiB) pages.
package tlb

import "ctrpred/internal/mem"

// Config describes a TLB.
type Config struct {
	Name        string
	Entries     int
	Ways        int
	MissPenalty uint64 // cycles added by a page walk
}

// Stats counts TLB events.
type Stats struct {
	Accesses uint64
	Hits     uint64
	Misses   uint64
}

// HitRate returns hits/accesses.
func (s Stats) HitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Accesses)
}

type entry struct {
	vpage   uint64
	valid   bool
	lastUse uint64
}

// TLB is a set-associative translation buffer.
type TLB struct {
	cfg     Config
	sets    [][]entry
	numSets int
	setMask uint64
	clock   uint64
	stats   Stats
}

// New builds a TLB; it panics on invalid geometry.
func New(cfg Config) *TLB {
	if cfg.Entries <= 0 || cfg.Ways <= 0 || cfg.Entries%cfg.Ways != 0 {
		panic("tlb: invalid geometry")
	}
	numSets := cfg.Entries / cfg.Ways
	if numSets&(numSets-1) != 0 {
		panic("tlb: sets not a power of two")
	}
	t := &TLB{cfg: cfg, numSets: numSets, setMask: uint64(numSets - 1)}
	t.sets = make([][]entry, numSets)
	backing := make([]entry, cfg.Entries)
	for i := range t.sets {
		t.sets[i] = backing[i*cfg.Ways : (i+1)*cfg.Ways]
	}
	return t
}

// Config returns the TLB's configuration.
func (t *TLB) Config() Config { return t.cfg }

// Stats returns a copy of the accumulated statistics.
func (t *TLB) Stats() Stats { return t.stats }

// Lookup translates the address's page, allocating the entry on a miss,
// and returns the added latency (0 on hit, MissPenalty on miss).
func (t *TLB) Lookup(addr uint64) uint64 {
	t.clock++
	t.stats.Accesses++
	vpage := addr >> mem.PageShift
	set := int(vpage & t.setMask)
	ways := t.sets[set]
	for i := range ways {
		if ways[i].valid && ways[i].vpage == vpage {
			t.stats.Hits++
			ways[i].lastUse = t.clock
			return 0
		}
	}
	t.stats.Misses++
	victim := 0
	for i := 1; i < len(ways); i++ {
		if !ways[victim].valid {
			break
		}
		if !ways[i].valid || ways[i].lastUse < ways[victim].lastUse {
			victim = i
		}
	}
	ways[victim] = entry{vpage: vpage, valid: true, lastUse: t.clock}
	return t.cfg.MissPenalty
}

// FlushAll invalidates every entry (context switch).
func (t *TLB) FlushAll() {
	for _, ways := range t.sets {
		for i := range ways {
			ways[i] = entry{}
		}
	}
}
