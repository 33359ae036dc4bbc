// Package memsys assembles the on-chip memory hierarchy of Table 1 — the
// 8 KB direct-mapped L1 instruction and data caches, the unified 4-way L2
// (256 KB or 1 MB), and the TLBs — on top of the secure memory controller
// (package secmem). Every L2 miss becomes an encrypted fetch; every L2
// dirty eviction becomes a counter-incrementing encrypted writeback.
//
// The L1 data cache is write-through (no-dirty) so that modified state is
// owned by the L2, and the hierarchy is inclusive: an L2 eviction
// back-invalidates the L1s. Dirty L2 lines are flushed (written back but
// kept resident) every FlushInterval cycles, modeling the paper's
// OS-induced flush every 25M cycles.
package memsys

import (
	"ctrpred/internal/cache"
	"ctrpred/internal/secmem"
	"ctrpred/internal/stats"
	"ctrpred/internal/tlb"
)

// Config sizes the hierarchy. DefaultConfig returns Table 1's values.
type Config struct {
	LineSize       int
	L1ISize        int
	L1DSize        int
	L1Latency      uint64
	L2Size         int
	L2Ways         int
	L2Latency      uint64
	TLBEntries     int
	TLBWays        int
	TLBMissPenalty uint64
	// FlushInterval flushes dirty L2 lines every so many cycles
	// (25,000,000 in the paper; scaled down with the instruction counts
	// in the experiments). 0 disables.
	FlushInterval uint64
	// PrefetchDegree enables next-line prefetch with pre-decryption
	// (Rogers/Solihin/Prvulovic, the paper's Section 9.2): an L2 miss at
	// line X also fetches-and-decrypts lines X+1 … X+degree into the L2.
	// Orthogonal to counter prediction; the two compose into the hybrid
	// the paper suggests. 0 disables.
	PrefetchDegree int
	// ContextSwitchInterval models multiprogramming: every so many
	// cycles another process runs, so when this process resumes its
	// caches, TLBs and sequence-number cache are cold. The per-page root
	// sequence numbers and other predictor state are part of the saved
	// process security context (Section 2.2's assumptions), so
	// prediction survives a switch that destroys cached counters — the
	// asymmetry the paper points out. 0 disables.
	ContextSwitchInterval uint64
}

// DefaultConfig returns the Table 1 hierarchy with the 256 KB L2.
func DefaultConfig() Config {
	return Config{
		LineSize:       32,
		L1ISize:        8 << 10,
		L1DSize:        8 << 10,
		L1Latency:      1,
		L2Size:         256 << 10,
		L2Ways:         4,
		L2Latency:      4,
		TLBEntries:     256,
		TLBWays:        4,
		TLBMissPenalty: 30,
		FlushInterval:  25_000_000,
	}
}

// WithL2 returns the config with the given L2 size, adjusting the L2
// latency as Table 1 does (4 cycles at 256 KB, 8 cycles at 1 MB).
func (c Config) WithL2(size int) Config {
	c.L2Size = size
	if size >= 1<<20 {
		c.L2Latency = 8
	} else {
		c.L2Latency = 4
	}
	return c
}

// L2Cache returns the L2's cache geometry, the one New builds.
func (c Config) L2Cache() cache.Config {
	return cache.Config{Name: "L2", SizeBytes: c.L2Size, LineSize: c.LineSize, Ways: c.L2Ways, HitLatency: c.L2Latency}
}

// Stats aggregates hierarchy-level counters beyond the per-cache stats.
type Stats struct {
	DataAccesses    uint64
	InstrFetches    uint64
	L2Writebacks    uint64 // dirty L2 evictions (capacity/conflict)
	FlushedLines    uint64 // dirty lines written back by periodic flushes
	Flushes         uint64
	BackInvalL1     uint64
	ContextSwitches uint64
	Prefetches      uint64 // lines fetched speculatively (pre-decrypted)
}

// AddTo registers the hierarchy's counters into a metrics snapshot node.
func (s Stats) AddTo(n *stats.Snapshot) {
	n.Counter("data_accesses", s.DataAccesses)
	n.Counter("instr_fetches", s.InstrFetches)
	n.Counter("l2_writebacks", s.L2Writebacks)
	n.Counter("flushed_lines", s.FlushedLines)
	n.Counter("flushes", s.Flushes)
	n.Counter("back_inval_l1", s.BackInvalL1)
	n.Counter("context_switches", s.ContextSwitches)
	n.Counter("prefetches", s.Prefetches)
}

// System is the assembled hierarchy.
type System struct {
	cfg  Config
	l1i  *cache.Cache
	l1d  *cache.Cache
	l2   *cache.Cache
	itlb *tlb.TLB
	dtlb *tlb.TLB
	ctrl *secmem.Controller

	lastFlush  uint64
	lastSwitch uint64
	// lastIssue enforces in-order issue into the memory system: the
	// downstream resource models (DRAM channels, crypto-engine pipeline)
	// reserve capacity in arrival order, so accesses are presented with
	// monotonically non-decreasing start times even when the out-of-order
	// core discovers them out of order.
	lastIssue uint64
	stats     Stats
}

// New wires the hierarchy onto a secure memory controller.
func New(cfg Config, ctrl *secmem.Controller) *System {
	s := &System{cfg: cfg, ctrl: ctrl}
	s.l1i = cache.New(cache.Config{Name: "L1I", SizeBytes: cfg.L1ISize, LineSize: cfg.LineSize, Ways: 1, HitLatency: cfg.L1Latency})
	s.l1d = cache.New(cache.Config{Name: "L1D", SizeBytes: cfg.L1DSize, LineSize: cfg.LineSize, Ways: 1, HitLatency: cfg.L1Latency, WriteThrough: true})
	s.l2 = cache.New(cfg.L2Cache())
	s.itlb = tlb.New(tlb.Config{Name: "ITLB", Entries: cfg.TLBEntries, Ways: cfg.TLBWays, MissPenalty: cfg.TLBMissPenalty})
	s.dtlb = tlb.New(tlb.Config{Name: "DTLB", Entries: cfg.TLBEntries, Ways: cfg.TLBWays, MissPenalty: cfg.TLBMissPenalty})
	return s
}

// Config returns the hierarchy configuration.
func (s *System) Config() Config { return s.cfg }

// Controller returns the secure memory controller.
func (s *System) Controller() *secmem.Controller { return s.ctrl }

// Caches returns the three caches for statistics reporting.
func (s *System) Caches() (l1i, l1d, l2 *cache.Cache) { return s.l1i, s.l1d, s.l2 }

// TLBs returns the two TLBs for statistics reporting.
func (s *System) TLBs() (itlb, dtlb *tlb.TLB) { return s.itlb, s.dtlb }

// Stats returns a copy of the hierarchy statistics.
func (s *System) Stats() Stats { return s.stats }

// handleL2Eviction writes back a displaced dirty line and maintains
// inclusion by removing the line from the L1s.
func (s *System) handleL2Eviction(now uint64, ev cache.Eviction) {
	if !ev.Valid {
		return
	}
	if p, _ := s.l1d.Invalidate(ev.Addr); p {
		s.stats.BackInvalL1++
	}
	if p, _ := s.l1i.Invalidate(ev.Addr); p {
		s.stats.BackInvalL1++
	}
	if ev.Dirty {
		s.stats.L2Writebacks++
		s.ctrl.EvictLine(now, ev.Addr)
	}
}

// accessL2 runs an access through L2 and, on a miss, the encrypted fetch;
// it returns the completion cycle of the access that started at now.
func (s *System) accessL2(now uint64, addr uint64, write bool) uint64 {
	hit, ev := s.l2.Access(addr, write)
	s.handleL2Eviction(now, ev)
	if hit {
		return now + s.cfg.L2Latency
	}
	res := s.ctrl.FetchLine(now+s.cfg.L2Latency, addr)
	s.prefetchAfterMiss(now, addr)
	return res.Done
}

// prefetchAfterMiss issues next-line prefetches with pre-decryption: the
// fetched lines fill the L2 (possibly polluting it — the hazard the paper
// notes) and their pads are computed off the critical path.
func (s *System) prefetchAfterMiss(now uint64, addr uint64) {
	for d := 1; d <= s.cfg.PrefetchDegree; d++ {
		next := (addr &^ uint64(s.cfg.LineSize-1)) + uint64(d*s.cfg.LineSize)
		if s.l2.Probe(next) {
			continue
		}
		s.stats.Prefetches++
		_, ev := s.l2.Access(next, false)
		s.handleL2Eviction(now, ev)
		s.ctrl.FetchLine(now+s.cfg.L2Latency, next)
	}
}

// Access performs a data access (load or store) beginning at cycle now
// and returns its completion cycle. Stores are posted: the returned cycle
// is when the datum is globally visible, but a core may retire the store
// earlier; callers decide which latency to charge.
func (s *System) Access(now uint64, addr uint64, write bool) uint64 {
	s.stats.DataAccesses++
	now = s.inOrder(now)
	s.MaybeFlush(now)
	s.maybeContextSwitch(now)
	t := now + s.dtlb.Lookup(addr)
	l1Hit, _ := s.l1d.Access(addr, write) // write-through: evictions never dirty
	if l1Hit && !write {
		return t + s.cfg.L1Latency
	}
	// Loads that miss L1, and every store (write-through), proceed to L2.
	return s.accessL2(t+s.cfg.L1Latency, addr, write)
}

// FetchInstr performs an instruction fetch of the line containing pc.
func (s *System) FetchInstr(now uint64, pc uint64) uint64 {
	s.stats.InstrFetches++
	now = s.inOrder(now)
	s.maybeContextSwitch(now)
	t := now + s.itlb.Lookup(pc)
	hit, _ := s.l1i.Access(pc, false)
	if hit {
		return t + s.cfg.L1Latency
	}
	return s.accessL2(t+s.cfg.L1Latency, pc, false)
}

// inOrder clamps an access start time to the latest start time issued.
func (s *System) inOrder(now uint64) uint64 {
	if now < s.lastIssue {
		return s.lastIssue
	}
	s.lastIssue = now
	return now
}

// MaybeFlush writes back all dirty L2 lines if FlushInterval has elapsed,
// keeping them resident but clean.
func (s *System) MaybeFlush(now uint64) {
	if s.cfg.FlushInterval == 0 || now < s.lastFlush || now-s.lastFlush < s.cfg.FlushInterval {
		return
	}
	s.lastFlush = now
	s.stats.Flushes++
	n := s.l2.FlushDirty(func(lineAddr uint64) {
		s.ctrl.EvictLine(now, lineAddr)
	})
	s.stats.FlushedLines += uint64(n)
}

// maybeContextSwitch evicts this process's on-chip state when its
// timeslice boundary passes: dirty data is written back (advancing
// counters), caches, TLBs and the sequence-number cache are invalidated.
func (s *System) maybeContextSwitch(now uint64) {
	if s.cfg.ContextSwitchInterval == 0 || now < s.lastSwitch ||
		now-s.lastSwitch < s.cfg.ContextSwitchInterval {
		return
	}
	s.lastSwitch = now
	s.ContextSwitch(now)
}

// ContextSwitch applies the timeslice-boundary disturbance immediately:
// dirty data is written back (advancing counters), and caches, TLBs and
// the sequence-number cache are invalidated — the state this process
// finds when it is switched back in after another process used the
// machine. maybeContextSwitch calls it on the periodic interval;
// interleaving schedulers (internal/tenancy) call it directly at their
// own slice boundaries.
func (s *System) ContextSwitch(now uint64) {
	s.stats.ContextSwitches++
	s.l2.FlushDirty(func(lineAddr uint64) {
		s.ctrl.EvictLine(now, lineAddr)
	})
	s.l1i.InvalidateAll()
	s.l1d.InvalidateAll()
	s.l2.InvalidateAll()
	s.itlb.FlushAll()
	s.dtlb.FlushAll()
	if sc := s.ctrl.SeqCache(); sc != nil {
		sc.InvalidateAll()
	}
}

// DrainDirty writes back every dirty L2 line immediately (end of a
// simulation region), without counting as a periodic flush.
func (s *System) DrainDirty(now uint64) int {
	return s.l2.FlushDirty(func(lineAddr uint64) {
		s.ctrl.EvictLine(now, lineAddr)
	})
}
