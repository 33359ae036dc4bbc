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
//
// The hierarchy can drive several controllers at once. The first is the
// machine's own: its fetch timing is what Access and FetchInstr return.
// The rest are mirrors, which see the identical stream of fetches,
// writebacks, flushes and context switches and whose timing is
// discarded. A mirror's statistics equal a solo run of its controller
// only where the core's access stream cannot depend on that timing,
// which holds for the functional core (cpu.Core.RunFunctional): this is
// how a hit-rate row simulates its front end once for every counter
// scheme (sim.RunGroupContext).
package memsys

import (
	"ctrpred/internal/cache"
	"ctrpred/internal/ctr"
	"ctrpred/internal/mem"
	"ctrpred/internal/secmem"
	"ctrpred/internal/stats"
)

// Table 1's hierarchy. Table1 in package experiments prints these.
const (
	// L1Size is the size of each direct-mapped L1 (instruction and data).
	L1Size    = 8 << 10
	L1Latency = 1
	L2Ways    = 4
	// TLBEntries and TLBWays size each TLB (instruction and data). A TLB
	// is a tag store of 4 KiB pages; a miss costs a page walk of
	// tlbMissPenalty cycles. In the paper each entry also carries the
	// page's root sequence number; here the root lives in the predictor
	// (the process's security context), so the TLB contributes timing
	// only.
	TLBEntries     = 256
	TLBWays        = 4
	tlbMissPenalty = 30
)

// Config holds the hierarchy's settings; everything else is Table 1's.
// DefaultConfig returns Table 1's values.
type Config struct {
	// L2Size is the unified L2's size; its hit latency follows from it
	// (see L2Latency).
	L2Size int
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
	return Config{L2Size: 256 << 10, FlushInterval: 25_000_000}
}

// L2Latency is the L2 hit latency Table 1 gives its size: 4 cycles
// below 1 MB (the 256 KB L2), 8 cycles at 1 MB and above.
func (c Config) L2Latency() uint64 {
	if c.L2Size >= 1<<20 {
		return 8
	}
	return 4
}

// L2Cache returns the L2's cache geometry, the one New builds.
func (c Config) L2Cache() cache.Config {
	return cache.Config{Name: "L2", SizeBytes: c.L2Size, LineSize: ctr.LineSize, Ways: L2Ways}
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
	cfg       Config
	l2Latency uint64
	l1i       *cache.Cache
	l1d       *cache.Cache
	l2        *cache.Cache
	itlb      *cache.Cache
	dtlb      *cache.Cache
	// ctrls are the machine's controller followed by its mirrors: each
	// receives every fetch and writeback, in the same order and at the
	// same cycles.
	ctrls []*secmem.Controller

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

// New wires the hierarchy onto a secure memory controller, and onto the
// mirror controllers, if any (see the package doc).
func New(cfg Config, ctrl *secmem.Controller, mirrors ...*secmem.Controller) *System {
	s := &System{cfg: cfg, l2Latency: cfg.L2Latency(), ctrls: append([]*secmem.Controller{ctrl}, mirrors...)}
	s.l1i = cache.New(cache.Config{Name: "L1I", SizeBytes: L1Size, LineSize: ctr.LineSize, Ways: 1})
	s.l1d = cache.New(cache.Config{Name: "L1D", SizeBytes: L1Size, LineSize: ctr.LineSize, Ways: 1, WriteThrough: true})
	s.l2 = cache.New(cfg.L2Cache())
	s.itlb = cache.New(cache.Config{Name: "ITLB", SizeBytes: TLBEntries << mem.PageShift, LineSize: 1 << mem.PageShift, Ways: TLBWays})
	s.dtlb = cache.New(cache.Config{Name: "DTLB", SizeBytes: TLBEntries << mem.PageShift, LineSize: 1 << mem.PageShift, Ways: TLBWays})
	return s
}

// Config returns the hierarchy configuration.
func (s *System) Config() Config { return s.cfg }

// Controller returns the secure memory controller.
func (s *System) Controller() *secmem.Controller { return s.ctrls[0] }

// Caches returns the three caches for statistics reporting.
func (s *System) Caches() (l1i, l1d, l2 *cache.Cache) { return s.l1i, s.l1d, s.l2 }

// Stats returns a copy of the hierarchy statistics.
func (s *System) Stats() Stats { return s.stats }

// fetch issues the encrypted fetch of the line containing addr to every
// controller and returns the first controller's completion cycle.
func (s *System) fetch(now, addr uint64) uint64 {
	done := s.ctrls[0].FetchLine(now, addr).Done
	for _, c := range s.ctrls[1:] {
		c.FetchLine(now, addr)
	}
	return done
}

// evict writes back the dirty line containing addr through every
// controller.
func (s *System) evict(now, addr uint64) {
	for _, c := range s.ctrls {
		c.EvictLine(now, addr)
	}
}

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
		s.evict(now, ev.Addr)
	}
}

// accessL2 runs an access through L2 and, on a miss, the encrypted fetch;
// it returns the completion cycle of the access that started at now.
func (s *System) accessL2(now uint64, addr uint64, write bool) uint64 {
	hit, ev := s.l2.Access(addr, write)
	s.handleL2Eviction(now, ev)
	if hit {
		return now + s.l2Latency
	}
	done := s.fetch(now+s.l2Latency, addr)
	s.prefetchAfterMiss(now, addr)
	return done
}

// prefetchAfterMiss issues next-line prefetches with pre-decryption: the
// fetched lines fill the L2 (possibly polluting it — the hazard the paper
// notes) and their pads are computed off the critical path.
func (s *System) prefetchAfterMiss(now uint64, addr uint64) {
	for d := 1; d <= s.cfg.PrefetchDegree; d++ {
		next := (addr &^ (ctr.LineSize - 1)) + uint64(d*ctr.LineSize)
		if s.l2.Probe(next) {
			continue
		}
		s.stats.Prefetches++
		_, ev := s.l2.Access(next, false)
		s.handleL2Eviction(now, ev)
		s.fetch(now+s.l2Latency, next)
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
	t := now + translate(s.dtlb, addr)
	l1Hit, _ := s.l1d.Access(addr, write) // write-through: evictions never dirty
	if l1Hit && !write {
		return t + L1Latency
	}
	// Loads that miss L1, and every store (write-through), proceed to L2.
	return s.accessL2(t+L1Latency, addr, write)
}

// FetchInstr performs an instruction fetch of the line containing pc.
func (s *System) FetchInstr(now uint64, pc uint64) uint64 {
	s.stats.InstrFetches++
	now = s.inOrder(now)
	s.maybeContextSwitch(now)
	t := now + translate(s.itlb, pc)
	hit, _ := s.l1i.Access(pc, false)
	if hit {
		return t + L1Latency
	}
	return s.accessL2(t+L1Latency, pc, false)
}

// translate looks addr's page up in a TLB, filling it on a miss, and
// returns the cycles the translation adds.
func translate(tlb *cache.Cache, addr uint64) uint64 {
	if hit, _ := tlb.Access(addr, false); hit {
		return 0
	}
	return tlbMissPenalty
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
	n := s.l2.FlushDirty(func(lineAddr uint64) { s.evict(now, lineAddr) })
	s.stats.FlushedLines += uint64(n)
}

// maybeContextSwitch evicts this process's on-chip state when its
// timeslice boundary passes: dirty data is written back (advancing
// counters), caches, TLBs and the controllers' counter caches are
// invalidated.
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
// every controller's on-chip counter state are invalidated (see
// secmem.Controller.ContextSwitch) — the state this process
// finds when it is switched back in after another process used the
// machine. maybeContextSwitch calls it on the periodic interval;
// interleaving schedulers (internal/tenancy) call it directly at their
// own slice boundaries.
func (s *System) ContextSwitch(now uint64) {
	s.stats.ContextSwitches++
	s.l2.FlushDirty(func(lineAddr uint64) { s.evict(now, lineAddr) })
	s.l1i.InvalidateAll()
	s.l1d.InvalidateAll()
	s.l2.InvalidateAll()
	s.itlb.InvalidateAll()
	s.dtlb.InvalidateAll()
	for _, c := range s.ctrls {
		c.ContextSwitch()
	}
}

// DrainDirty writes back every dirty L2 line immediately (end of a
// simulation region), without counting as a periodic flush.
func (s *System) DrainDirty(now uint64) int {
	return s.l2.FlushDirty(func(lineAddr uint64) { s.evict(now, lineAddr) })
}
