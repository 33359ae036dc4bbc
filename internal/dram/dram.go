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

	"ctrpred/internal/stats"
)

// Config describes the DRAM channel.
type Config struct {
	Banks    int    // number of banks (power of two)
	RowBytes int    // bytes per row per bank
	BusBytes int    // bytes transferred per bus beat (8)
	BusRatio uint64 // CPU cycles per bus beat (5 for 200 MHz at 1 GHz)
	TRCD     uint64 // activate → column command, CPU cycles
	TCAS     uint64 // column command → first data, CPU cycles
	TRP      uint64 // precharge, CPU cycles
	// PartitionAddr, when non-zero, splits the bank set: addresses at or
	// above it (the secure controller's counter table) map onto the last
	// PartitionBanks banks, everything else onto the rest. Without the
	// split, counter fetches interleaved with data fetches thrash each
	// other's open rows on every memory access — a pathology the counter
	// organizations in the literature avoid by giving counter storage its
	// own devices or region.
	PartitionAddr  uint64
	PartitionBanks int
}

// DefaultConfig models PC200-class SDRAM: 8 banks, 2 KB rows,
// 30 ns RCD/CAS/RP. A full 32-byte line read from an idle bank costs
// 30+30+4×5 = 80 ns; a row conflict costs 110 ns; a row hit 50 ns.
func DefaultConfig() Config {
	return Config{
		Banks:    8,
		RowBytes: 2048,
		BusBytes: 8,
		BusRatio: 5,
		TRCD:     30,
		TCAS:     30,
		TRP:      30,
		// No partition by default: the secure memory controller gives the
		// counter table its own channel (see secmem), so the data channel
		// keeps all its banks. Set PartitionAddr/PartitionBanks when
		// modeling a shared-channel organization instead.
	}
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
	cfg     Config
	banks   []bank
	busFree uint64
	stats   Stats
	// rowShift caches log2(RowBytes) when RowBytes is a power of two
	// (rowPow2), replacing a 64-bit division on the address-mapping path
	// of every access with a shift.
	rowShift uint
	rowPow2  bool
}

// New creates a DRAM channel; it panics on invalid geometry.
func New(cfg Config) *DRAM {
	if cfg.Banks <= 0 || cfg.Banks&(cfg.Banks-1) != 0 {
		panic("dram: banks must be a positive power of two")
	}
	if cfg.RowBytes <= 0 || cfg.BusBytes <= 0 || cfg.BusRatio == 0 {
		panic("dram: invalid timing/geometry")
	}
	d := &DRAM{cfg: cfg, banks: make([]bank, cfg.Banks)}
	if rb := cfg.RowBytes; rb&(rb-1) == 0 {
		d.rowPow2 = true
		for s := rb; s > 1; s >>= 1 {
			d.rowShift++
		}
	}
	return d
}

// Config returns the channel configuration.
func (d *DRAM) Config() Config { return d.cfg }

// Stats returns a copy of the accumulated statistics.
func (d *DRAM) Stats() Stats { return d.stats }

func (d *DRAM) mapAddr(addr uint64) (bankIdx int, row uint64) {
	lo, n := 0, d.cfg.Banks
	if d.cfg.PartitionAddr != 0 && d.cfg.PartitionBanks > 0 && d.cfg.PartitionBanks < d.cfg.Banks {
		if addr >= d.cfg.PartitionAddr {
			addr -= d.cfg.PartitionAddr
			lo, n = d.cfg.Banks-d.cfg.PartitionBanks, d.cfg.PartitionBanks
		} else {
			n = d.cfg.Banks - d.cfg.PartitionBanks
		}
	}
	var rowOfBank uint64
	if d.rowPow2 {
		rowOfBank = addr >> d.rowShift
	} else {
		rowOfBank = addr / uint64(d.cfg.RowBytes)
	}
	// Bank bits are hashed with higher row bits (XOR interleave), as real
	// controllers do, so strided streams spread across banks.
	h := rowOfBank ^ rowOfBank>>3 ^ rowOfBank>>7
	if n&(n-1) == 0 {
		// Full bank set or power-of-two partition: mask and shift.
		return lo + int(h&uint64(n-1)), rowOfBank >> uint(bits.TrailingZeros(uint(n)))
	}
	return lo + int(h%uint64(n)), rowOfBank / uint64(n)
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
		access = d.cfg.TCAS
	case !b.rowValid:
		d.stats.RowMisses++
		access = d.cfg.TRCD + d.cfg.TCAS
	default:
		d.stats.RowConflicts++
		access = d.cfg.TRP + d.cfg.TRCD + d.cfg.TCAS
	}
	b.openRow, b.rowValid = row, true

	beats := uint64((n + d.cfg.BusBytes - 1) / d.cfg.BusBytes)
	xferStart := start + access
	if d.busFree > xferStart {
		xferStart = d.busFree
	}
	done := xferStart + beats*d.cfg.BusRatio
	d.busFree = done
	d.stats.BusBusy += beats * d.cfg.BusRatio
	b.busyUntil = done
	return done
}

// LineReadLatency returns the latency (not completion time) of reading n
// bytes from an idle, row-closed bank — a convenience for configuring
// models that need a representative memory latency.
func (d *DRAM) LineReadLatency(n int) uint64 {
	beats := uint64((n + d.cfg.BusBytes - 1) / d.cfg.BusBytes)
	return d.cfg.TRCD + d.cfg.TCAS + beats*d.cfg.BusRatio
}
