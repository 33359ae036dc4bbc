// Package dram models the off-chip SDRAM following the PC SDRAM-style
// model the paper integrates (Gries & Romer): a single channel with a
// 200 MHz × 8-byte data bus, multiple banks, and an open-row policy in
// which accesses are classified as row hits, row misses (bank idle,
// needs activate), or row conflicts (different row open, needs precharge
// then activate). Bank conflicts and data-bus contention serialize
// overlapping accesses, which is what bounds the memory-level parallelism
// visible to the out-of-order core.
//
// All times are in CPU cycles (1 GHz ⇒ 1 cycle = 1 ns; one bus beat =
// BusRatio CPU cycles).
package dram

import (
	"math/bits"
	"slices"

	"ctrpred/internal/stats"
)

// Table 1's PC200-class SDRAM channel: 2 KB rows, a 200 MHz × 8-byte
// data bus, 30 ns RCD/CAS/RP. A full 32-byte line read from an idle
// bank costs 30+30+4×5 = 80 ns; a row conflict costs 110 ns; a row hit
// 50 ns.
const (
	rowShift = 11            // log2(RowBytes)
	RowBytes = 1 << rowShift // bytes per row per bank
	BusBytes = 8             // bytes transferred per bus beat
	BusRatio = 5             // CPU cycles per bus beat (200 MHz at 1 GHz)
	TRCD     = 30            // activate → column command, CPU cycles
	TCAS     = 30            // column command → first data, CPU cycles
	TRP      = 30            // precharge, CPU cycles
)

// Config describes the DRAM channel.
type Config struct {
	Banks int // number of banks (power of two)
}

// DefaultConfig is the data channel: 8 banks. The secure memory
// controller gives the counter table a channel of its own (see secmem),
// so the data channel keeps all its banks.
func DefaultConfig() Config {
	return Config{Banks: 8}
}

// Stats counts DRAM events.
type Stats struct {
	Reads        uint64
	Writes       uint64
	RowHits      uint64
	RowMisses    uint64
	RowConflicts uint64
	BusBusy      uint64 // total CPU cycles of data-bus occupancy
}

// AddTo registers the channel's counters into a metrics snapshot node.
func (s Stats) AddTo(n *stats.Snapshot) {
	n.Counter("reads", s.Reads)
	n.Counter("writes", s.Writes)
	n.Counter("row_hits", s.RowHits)
	n.Counter("row_misses", s.RowMisses)
	n.Counter("row_conflicts", s.RowConflicts)
	n.Counter("bus_busy_cycles", s.BusBusy)
}

type bank struct {
	openRow   uint64
	rowValid  bool
	busyUntil uint64
}

// DRAM is the channel model.
type DRAM struct {
	banks []bank
	// bankShift is log2(len(banks)): the row bits above the bank index.
	bankShift uint
	busFree   uint64
	stats     Stats
}

// New creates a DRAM channel; it panics unless the bank count is a
// positive power of two.
func New(cfg Config) *DRAM {
	if cfg.Banks <= 0 || cfg.Banks&(cfg.Banks-1) != 0 {
		panic("dram: banks must be a positive power of two")
	}
	return &DRAM{banks: make([]bank, cfg.Banks), bankShift: uint(bits.TrailingZeros(uint(cfg.Banks)))}
}

// Clone returns an independent copy of the channel: same open rows, bank
// and bus reservations, and statistics.
func (d *DRAM) Clone() *DRAM {
	c := *d
	c.banks = slices.Clone(d.banks)
	return &c
}

// Stats returns a copy of the accumulated statistics.
func (d *DRAM) Stats() Stats { return d.stats }

func (d *DRAM) mapAddr(addr uint64) (bankIdx int, row uint64) {
	rowOfBank := addr >> rowShift
	// Bank bits are hashed with higher row bits (XOR interleave), as real
	// controllers do, so strided streams spread across banks.
	h := rowOfBank ^ rowOfBank>>3 ^ rowOfBank>>7
	return int(h & uint64(len(d.banks)-1)), rowOfBank >> d.bankShift
}

// Access performs a read or write of n bytes at addr, starting no earlier
// than cycle now, and returns the cycle at which the last byte has
// transferred. Writes occupy the bank and bus identically (the model does
// not distinguish write-recovery time).
func (d *DRAM) Access(now uint64, addr uint64, n int, write bool) uint64 {
	if n <= 0 {
		return now
	}
	if write {
		d.stats.Writes++
	} else {
		d.stats.Reads++
	}
	bi, row := d.mapAddr(addr)
	b := &d.banks[bi]

	start := now
	if b.busyUntil > start {
		start = b.busyUntil
	}

	var access uint64
	switch {
	case b.rowValid && b.openRow == row:
		d.stats.RowHits++
		access = TCAS
	case !b.rowValid:
		d.stats.RowMisses++
		access = TRCD + TCAS
	default:
		d.stats.RowConflicts++
		access = TRP + TRCD + TCAS
	}
	b.openRow, b.rowValid = row, true

	beats := uint64((n + BusBytes - 1) / BusBytes)
	xferStart := start + access
	if d.busFree > xferStart {
		xferStart = d.busFree
	}
	done := xferStart + beats*BusRatio
	d.busFree = done
	d.stats.BusBusy += beats * BusRatio
	b.busyUntil = done
	return done
}

// LineReadLatency returns the latency (not completion time) of reading n
// bytes from an idle, row-closed bank — a convenience for configuring
// models that need a representative memory latency.
func (d *DRAM) LineReadLatency(n int) uint64 {
	beats := uint64((n + BusBytes - 1) / BusBytes)
	return TRCD + TCAS + beats*BusRatio
}
