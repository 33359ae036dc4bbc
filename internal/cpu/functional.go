package cpu

import "ctrpred/internal/isa"

// RunFunctional executes the program without the out-of-order timing
// model: one instruction per cycle, with memory operations driven through
// the hierarchy at that cycle. Cache, predictor and counter dynamics are
// identical to a timed run (they depend only on the access stream), so
// this mode is used for the long-window prediction-rate experiments
// (Figures 7–9 and 12–14), where only hit rates — not IPC — are measured.
// It mirrors the paper's "simplified mode that simulates the memory
// hierarchy and OTP prediction for 8 billion instructions".
//
// The core ignores every latency the hierarchy returns: the cycle of each
// access, and so the stream of fetches, writebacks, flushes and context
// switches reaching the secure memory controller, is fixed by the
// program alone. sim.RunGroupContext depends on this invariant to drive
// several controllers from one run of the hierarchy.
func (c *Core) RunFunctional(maxInstructions uint64) Stats {
	now := c.lastCommit
	base := c.prog.Base
	for !c.halted && (maxInstructions == 0 || c.stats.Instructions < maxInstructions) {
		if c.pc < base || (c.pc-base)&(isa.InstrBytes-1) != 0 {
			c.halted = true
			break
		}
		idx := (c.pc - base) / isa.InstrBytes
		if idx >= uint64(len(c.prog.Instrs)) {
			c.halted = true
			break
		}
		d := &c.meta[idx]
		in := d.in
		thisPC := c.pc
		now++

		// Instruction-side stream: one I-access per new line.
		lineAddr := thisPC &^ 31
		if !c.haveFetchLine || lineAddr != c.curFetchLine {
			c.sys.FetchInstr(now, thisPC)
			c.curFetchLine = lineAddr
			c.haveFetchLine = true
		}

		if d.memBytes > 0 {
			addr := c.regs[in.Rs1] + uint64(in.Imm)
			write := d.cl == isa.ClassStore
			c.sys.Access(now, addr, write)
			if write {
				c.stats.Stores++
			} else {
				c.stats.Loads++
			}
		}

		nextPC, taken := c.exec(in, d, thisPC)
		if d.cl == isa.ClassBranch {
			c.stats.Branches++
			_ = taken
		}
		c.stats.Instructions++
		c.pc = nextPC
		if in.Op == isa.OpHalt {
			c.halted = true
		}
		if c.checkpoint() {
			break
		}
	}
	c.lastCommit = now
	if c.sys != nil {
		c.sys.DrainDirty(now)
	}
	return c.Stats()
}
