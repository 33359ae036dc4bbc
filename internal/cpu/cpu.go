// Package cpu implements the out-of-order processor core of Table 1: an
// 8-wide fetch/decode/issue/commit machine with a reorder buffer, gshare
// branch prediction, per-class functional units, and loads/stores that
// run through the memory hierarchy (package memsys) — and therefore
// through the encrypted memory controller.
//
// # Timing model
//
// The core uses the standard one-pass dataflow approximation of an
// out-of-order pipeline: instructions are executed functionally in
// program order while their fetch/issue/complete/commit cycles are
// computed from dataflow and resource constraints:
//
//   - fetch is bounded by fetch width, I-cache latency, ROB occupancy
//     (an instruction cannot fetch until the instruction ROBSize ahead
//     of it has committed), and branch mispredictions (fetch redirects
//     when the branch resolves);
//   - issue waits for source operands (register ready times), a free
//     functional unit of the right class, and issue bandwidth;
//   - loads complete when the hierarchy returns data, so independent
//     loads overlap their misses (memory-level parallelism bounded by
//     DRAM banks, the bus, and the crypto engine);
//   - commit is in order, CommitWidth per cycle.
//
// This is the level of fidelity the paper's IPC comparisons need: the
// relative cost of exposed decryption latency on L2 misses. It is not a
// wrong-path simulator; speculation effects beyond the misprediction
// redirect penalty are out of scope.
package cpu

import (
	"fmt"

	"ctrpred/internal/isa"
	"ctrpred/internal/mem"
	"ctrpred/internal/memsys"
	"ctrpred/internal/stats"
)

// Table 1's core. Table1 in package experiments prints the widths and
// the ROB size.
const (
	FetchWidth  = 8
	IssueWidth  = 8
	CommitWidth = 8
	ROBSize     = 128
	// frontendDepth is the fetch-to-dispatch pipeline depth in cycles.
	frontendDepth = 3
	// mispredictPenalty is the frontend refill delay added after a
	// mispredicted branch resolves.
	mispredictPenalty = 3
	// Functional unit counts.
	intALUs  = 4
	mulDivs  = 1
	fpus     = 2
	memPorts = 2
	// Latencies per class, in cycles.
	latALU   = 1
	latMul   = 3
	latDiv   = 20
	latFPAdd = 2
	latFPMul = 4
	latFPDiv = 12
	// gshareBits sizes the branch predictor (2^bits counters).
	gshareBits = 12
)

// Config holds the core's one optional mechanism; the zero value is
// Table 1's core.
type Config struct {
	// LVPEntries enables a last-value load-value predictor of that many
	// entries (Section 9.3's alternative latency-tolerance mechanism;
	// 0 disables). Confident correct predictions let dependents proceed
	// at ALU latency; confident wrong ones squash like a branch.
	LVPEntries int
}

// Stats reports the outcome of a run.
type Stats struct {
	Instructions uint64
	Cycles       uint64
	Loads        uint64
	Stores       uint64
	Branches     uint64
	Mispredicts  uint64
	// LVPHits/LVPMisses count confident load-value predictions (0 when
	// the LVP is disabled).
	LVPHits   uint64
	LVPMisses uint64
	Halted    bool // program executed halt (vs. hitting the cap)
}

// IPC returns instructions per cycle.
func (s Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Instructions) / float64(s.Cycles)
}

// AddTo registers the core's counters into a metrics snapshot node.
func (s Stats) AddTo(n *stats.Snapshot) {
	n.Counter("instructions", s.Instructions)
	n.Counter("cycles", s.Cycles)
	n.Counter("loads", s.Loads)
	n.Counter("stores", s.Stores)
	n.Counter("branches", s.Branches)
	n.Counter("mispredicts", s.Mispredicts)
	n.Counter("lvp_hits", s.LVPHits)
	n.Counter("lvp_misses", s.LVPMisses)
	n.Value("ipc", s.IPC())
}

// decoded holds one static instruction together with the properties step
// consults on every dynamic instance: the functional-unit class and the
// operand read/write sets. They are pure functions of the opcode, so the
// core computes them once at construction instead of re-deriving them
// from branchy switches in the hot loop; embedding the instruction keeps
// the whole record in one cache line per fetch.
type decoded struct {
	in       isa.Instr
	cl       isa.Class
	memBytes uint8 // load/store access width, 0 otherwise
	usesRs1  bool
	usesRs2  bool
	writesRd bool
}

// Core is one processor instance bound to a program, architectural
// memory, and a memory hierarchy.
type Core struct {
	prog *isa.Program
	meta []decoded // parallel to prog.Instrs
	mem  *mem.Memory
	sys  *memsys.System
	bp   *gshare
	lvp  *lvp // nil unless Config.LVPEntries > 0

	regs   [32]uint64
	pc     uint64
	halted bool

	// Timing state.
	nextFetch     uint64 // earliest cycle the next instruction may fetch
	fetchedAt     uint64 // cycle of the current fetch group
	fetchedCount  int
	curFetchLine  uint64 // I-cache line the frontend is streaming from
	haveFetchLine bool
	regReady      [32]uint64
	retireRing    [ROBSize]uint64 // commit cycles of the last ROBSize instrs
	retireIdx     int
	lastCommit    uint64
	commitCount   int
	issuedAt      uint64
	issuedCount   int
	fu            [isa.ClassHalt + 1][]uint64 // per-class unit free times, indexed by isa.Class

	// Checkpoint state: check is consulted every checkEvery committed
	// instructions; a non-nil return stops the run (see SetCheckpoint).
	check      func() error
	checkEvery uint64
	nextCheck  uint64
	stopCause  error

	stats Stats
}

// New creates a core at the program's first instruction.
func New(cfg Config, prog *isa.Program, m *mem.Memory, sys *memsys.System) *Core {
	c := &Core{
		prog: prog,
		mem:  m,
		sys:  sys,
		bp:   newGshare(),
		lvp:  newLVP(cfg.LVPEntries),
		pc:   prog.Base,
	}
	c.meta = make([]decoded, len(prog.Instrs))
	for i, in := range prog.Instrs {
		c.meta[i] = decode(in)
	}
	c.fu[isa.ClassALU] = make([]uint64, intALUs)
	c.fu[isa.ClassMul] = make([]uint64, mulDivs)
	c.fu[isa.ClassDiv] = make([]uint64, mulDivs)
	c.fu[isa.ClassFPAdd] = make([]uint64, fpus)
	c.fu[isa.ClassFPMul] = make([]uint64, fpus)
	c.fu[isa.ClassFPDiv] = make([]uint64, fpus)
	c.fu[isa.ClassLoad] = make([]uint64, memPorts)
	c.fu[isa.ClassStore] = make([]uint64, memPorts)
	c.fu[isa.ClassBranch] = make([]uint64, intALUs)
	c.fu[isa.ClassJump] = make([]uint64, intALUs)
	return c
}

// Reg returns architectural register r (tests, examples).
func (c *Core) Reg(r int) uint64 { return c.regs[r] }

// SetReg initializes architectural register r (program arguments).
func (c *Core) SetReg(r int, v uint64) {
	if r != 0 {
		c.regs[r] = v
	}
}

// Halted reports whether the program has executed halt.
func (c *Core) Halted() bool { return c.halted }

// Stats returns a copy of the run statistics so far.
func (c *Core) Stats() Stats {
	s := c.stats
	s.Cycles = c.lastCommit
	s.Halted = c.halted
	return s
}

// latency returns the execution latency for a class (loads handled
// separately).
func (c *Core) latency(cl isa.Class) uint64 {
	switch cl {
	case isa.ClassALU, isa.ClassBranch, isa.ClassJump:
		return latALU
	case isa.ClassMul:
		return latMul
	case isa.ClassDiv:
		return latDiv
	case isa.ClassFPAdd:
		return latFPAdd
	case isa.ClassFPMul:
		return latFPMul
	case isa.ClassFPDiv:
		return latFPDiv
	}
	return 1
}

// reserveFU returns the issue time on the earliest-free unit of class cl,
// at or after ready, and books the unit until issue+busy.
func (c *Core) reserveFU(cl isa.Class, ready, busy uint64) uint64 {
	units := c.fu[cl]
	best := 0
	for i := 1; i < len(units); i++ {
		if units[i] < units[best] {
			best = i
		}
	}
	start := ready
	if units[best] > start {
		start = units[best]
	}
	units[best] = start + busy
	return start
}

// SetCheckpoint arranges for fn to be called every interval committed
// instructions during Run/RunFunctional. If fn returns a non-nil error
// the run stops within that interval; the error is available from
// StopCause. A nil fn removes the checkpoint. The checkpoint only reads
// state, so a run whose checkpoint never fires is cycle-for-cycle
// identical to one without it.
func (c *Core) SetCheckpoint(interval uint64, fn func() error) {
	if fn == nil || interval == 0 {
		c.check, c.checkEvery = nil, 0
		return
	}
	c.check = fn
	c.checkEvery = interval
	c.nextCheck = c.stats.Instructions + interval
}

// StopCause returns the checkpoint error that interrupted the run, or
// nil if the run ended by halting or exhausting its budget.
func (c *Core) StopCause() error { return c.stopCause }

// Committed returns the number of instructions committed so far; live
// during Run/RunFunctional, so external observers (fault-injection
// triggers) can key off simulation progress.
func (c *Core) Committed() uint64 { return c.stats.Instructions }

// checkpoint polls the registered checkpoint function; it reports true
// when the run must stop.
func (c *Core) checkpoint() bool {
	if c.check == nil || c.stats.Instructions < c.nextCheck {
		return false
	}
	c.nextCheck = c.stats.Instructions + c.checkEvery
	if err := c.check(); err != nil {
		c.stopCause = err
		return true
	}
	return false
}

// Run executes until halt or until maxInstructions commit, and returns
// the final statistics. maxInstructions == 0 means run to halt.
func (c *Core) Run(maxInstructions uint64) Stats {
	for !c.halted && (maxInstructions == 0 || c.stats.Instructions < maxInstructions) {
		c.step()
		if c.checkpoint() {
			break
		}
	}
	if c.sys != nil {
		// Writebacks of still-dirty lines belong to the measured region.
		c.sys.DrainDirty(c.lastCommit)
	}
	return c.Stats()
}

// RunSlice executes until halt or until the committed-instruction count
// reaches target (an absolute count, like Run's maxInstructions), and
// returns the statistics so far. Unlike Run it does NOT drain dirty
// lines afterward: a slice is one timeslice of a longer residency, and
// the still-dirty lines belong to the instructions that will follow —
// either the next slice of this core or the final Run/DrainDirty that
// closes the measured region. Interleaving schedulers (internal/tenancy)
// alternate RunSlice calls across machines and drain once at the end.
func (c *Core) RunSlice(target uint64) Stats {
	for !c.halted && c.stats.Instructions < target {
		c.step()
		if c.checkpoint() {
			break
		}
	}
	return c.Stats()
}

// decode derives the static instruction properties consulted per step.
func decode(in isa.Instr) decoded {
	cl := in.Op.Class()
	d := decoded{in: in, cl: cl, memBytes: uint8(in.Op.MemBytes()), writesRd: writesRd(in)}
	d.usesRs1 = cl != isa.ClassNop && cl != isa.ClassHalt && in.Op != isa.OpLui && in.Op != isa.OpJal
	switch cl {
	case isa.ClassStore, isa.ClassBranch:
		d.usesRs2 = true
	default:
		switch in.Op {
		case isa.OpAdd, isa.OpSub, isa.OpAnd, isa.OpOr, isa.OpXor, isa.OpSll, isa.OpSrl,
			isa.OpSra, isa.OpSlt, isa.OpSltu, isa.OpMul, isa.OpDiv, isa.OpRem,
			isa.OpFadd, isa.OpFsub, isa.OpFmul, isa.OpFdiv:
			d.usesRs2 = true
		}
	}
	return d
}

// step fetches, times, and functionally executes one instruction.
func (c *Core) step() {
	base := c.prog.Base
	if c.pc < base || (c.pc-base)&(isa.InstrBytes-1) != 0 {
		c.halted = true
		return
	}
	idx := (c.pc - base) / isa.InstrBytes
	if idx >= uint64(len(c.prog.Instrs)) {
		c.halted = true
		return
	}
	d := &c.meta[idx]
	in := d.in
	thisPC := c.pc

	// ---- Fetch ----
	fetch := c.nextFetch
	// ROB occupancy: the slot reused by this instruction must have
	// committed.
	if occ := c.retireRing[c.retireIdx]; occ > fetch {
		fetch = occ
	}
	// Fetch-group bandwidth.
	if fetch == c.fetchedAt && c.fetchedCount >= FetchWidth {
		fetch++
	}
	// I-cache: streaming within a line is free; a new line pays a fetch.
	lineAddr := thisPC &^ 31
	if !c.haveFetchLine || lineAddr != c.curFetchLine {
		done := c.sys.FetchInstr(fetch, thisPC)
		if done > fetch+1 {
			fetch = done - 1 // the line arrives; fetch proceeds that cycle
		}
		c.curFetchLine = lineAddr
		c.haveFetchLine = true
	}
	if fetch != c.fetchedAt {
		c.fetchedAt = fetch
		c.fetchedCount = 0
	}
	c.fetchedCount++
	c.nextFetch = fetch

	dispatch := fetch + frontendDepth

	// ---- Operand readiness ----
	ready := dispatch
	cl := d.cl
	if d.usesRs1 && c.regReady[in.Rs1] > ready {
		ready = c.regReady[in.Rs1]
	}
	if d.usesRs2 && c.regReady[in.Rs2] > ready {
		ready = c.regReady[in.Rs2]
	}

	// ---- Issue ----
	issue := ready
	if issue == c.issuedAt && c.issuedCount >= IssueWidth {
		issue++
	}
	var complete uint64
	switch cl {
	case isa.ClassNop, isa.ClassHalt:
		complete = issue
	case isa.ClassLoad:
		issue = c.reserveFU(isa.ClassLoad, issue, 1)
		addr := c.regs[in.Rs1] + uint64(in.Imm)
		memDone := c.sys.Access(issue, addr, false)
		complete = memDone
		if c.lvp != nil {
			actual := c.mem.Load(addr, int(d.memBytes))
			if speculated, correct := c.lvp.train(thisPC, actual); speculated {
				if correct {
					// Dependents used the predicted value; the access
					// verifies it in the background.
					complete = issue + latALU
					c.stats.LVPHits++
				} else {
					// Squash: dependents replay after the true value
					// arrives, plus the refill penalty.
					complete = memDone + mispredictPenalty
					c.stats.LVPMisses++
				}
			}
		}
		c.stats.Loads++
	case isa.ClassStore:
		issue = c.reserveFU(isa.ClassStore, issue, 1)
		addr := c.regs[in.Rs1] + uint64(in.Imm)
		c.sys.Access(issue, addr, true) // posted: state update + occupancy
		complete = issue + 1
		c.stats.Stores++
	default:
		lat := c.latency(cl)
		issue = c.reserveFU(cl, issue, 1) // units are pipelined
		complete = issue + lat
	}
	if issue != c.issuedAt {
		c.issuedAt = issue
		c.issuedCount = 0
	}
	c.issuedCount++

	// ---- Functional execution & control flow ----
	nextPC, taken := c.exec(in, d, thisPC)

	switch cl {
	case isa.ClassBranch:
		c.stats.Branches++
		pred := c.bp.predictDirection(thisPC)
		c.bp.updateDirection(thisPC, taken)
		if pred != taken {
			c.stats.Mispredicts++
			c.redirect(complete)
		}
	case isa.ClassJump:
		if in.Op == isa.OpJalr {
			c.stats.Branches++
			predTarget, have := c.bp.predictTarget(thisPC)
			c.bp.updateTarget(thisPC, nextPC)
			if !have || predTarget != nextPC {
				c.stats.Mispredicts++
				c.redirect(complete)
			}
		}
		// Direct jal: target known at decode; no redirect cost beyond
		// the taken-path line change handled by the I-cache model.
	}
	if nextPC&^31 != thisPC&^31 {
		c.haveFetchLine = c.haveFetchLine && nextPC&^31 == c.curFetchLine
	}

	// ---- Writeback ----
	if d.writesRd && in.Rd != 0 {
		c.regReady[in.Rd] = complete
	}

	// ---- Commit (in order) ----
	commit := complete
	if commit < c.lastCommit {
		commit = c.lastCommit
	}
	if commit == c.lastCommit && c.commitCount >= CommitWidth {
		commit++
	}
	if commit != c.lastCommit {
		c.lastCommit = commit
		c.commitCount = 0
	}
	c.commitCount++
	c.retireRing[c.retireIdx] = commit
	if c.retireIdx++; c.retireIdx == ROBSize {
		c.retireIdx = 0
	}

	c.stats.Instructions++
	c.pc = nextPC
	if in.Op == isa.OpHalt {
		c.halted = true
	}
}

// redirect models a branch misprediction: fetch resumes after resolution
// plus the refill penalty, and the current fetch line is discarded.
func (c *Core) redirect(resolve uint64) {
	restart := resolve + mispredictPenalty
	if restart > c.nextFetch {
		c.nextFetch = restart
	}
	c.haveFetchLine = false
}

func writesRd(in isa.Instr) bool {
	switch in.Op.Class() {
	case isa.ClassStore, isa.ClassBranch, isa.ClassNop, isa.ClassHalt:
		return false
	}
	return true
}

// exec computes the architectural effect of in at pc, returning the next
// PC and (for branches) whether it was taken.
func (c *Core) exec(in isa.Instr, d *decoded, pc uint64) (nextPC uint64, taken bool) {
	rs1 := c.regs[in.Rs1]
	rs2 := c.regs[in.Rs2]
	set := func(v uint64) {
		if in.Rd != 0 {
			c.regs[in.Rd] = v
		}
	}
	nextPC = pc + isa.InstrBytes

	switch in.Op {
	case isa.OpNop, isa.OpHalt:
	case isa.OpAdd, isa.OpFadd:
		set(rs1 + rs2)
	case isa.OpSub, isa.OpFsub:
		set(rs1 - rs2)
	case isa.OpAnd:
		set(rs1 & rs2)
	case isa.OpOr:
		set(rs1 | rs2)
	case isa.OpXor:
		set(rs1 ^ rs2)
	case isa.OpSll:
		set(rs1 << (rs2 & 63))
	case isa.OpSrl:
		set(rs1 >> (rs2 & 63))
	case isa.OpSra:
		set(uint64(int64(rs1) >> (rs2 & 63)))
	case isa.OpSlt:
		set(b2u(int64(rs1) < int64(rs2)))
	case isa.OpSltu:
		set(b2u(rs1 < rs2))
	case isa.OpMul, isa.OpFmul:
		set(rs1 * rs2)
	case isa.OpDiv, isa.OpFdiv:
		if rs2 == 0 {
			set(^uint64(0))
		} else {
			set(rs1 / rs2)
		}
	case isa.OpRem:
		if rs2 == 0 {
			set(rs1)
		} else {
			set(rs1 % rs2)
		}
	case isa.OpAddi:
		set(rs1 + uint64(in.Imm))
	case isa.OpAndi:
		set(rs1 & uint64(in.Imm))
	case isa.OpOri:
		set(rs1 | uint64(in.Imm))
	case isa.OpXori:
		set(rs1 ^ uint64(in.Imm))
	case isa.OpSlli:
		set(rs1 << (uint64(in.Imm) & 63))
	case isa.OpSrli:
		set(rs1 >> (uint64(in.Imm) & 63))
	case isa.OpSrai:
		set(uint64(int64(rs1) >> (uint64(in.Imm) & 63)))
	case isa.OpSlti:
		set(b2u(int64(rs1) < in.Imm))
	case isa.OpLui:
		set(uint64(in.Imm) << 12)
	case isa.OpLd, isa.OpLw, isa.OpLh, isa.OpLb:
		set(c.mem.Load(rs1+uint64(in.Imm), int(d.memBytes)))
	case isa.OpSd, isa.OpSw, isa.OpSh, isa.OpSb:
		c.mem.Store(rs1+uint64(in.Imm), int(d.memBytes), rs2)
	case isa.OpBeq:
		taken = rs1 == rs2
	case isa.OpBne:
		taken = rs1 != rs2
	case isa.OpBlt:
		taken = int64(rs1) < int64(rs2)
	case isa.OpBge:
		taken = int64(rs1) >= int64(rs2)
	case isa.OpBltu:
		taken = rs1 < rs2
	case isa.OpBgeu:
		taken = rs1 >= rs2
	case isa.OpJal:
		set(pc + isa.InstrBytes)
		nextPC = pc + uint64(in.Imm)
		return nextPC, true
	case isa.OpJalr:
		set(pc + isa.InstrBytes)
		nextPC = rs1 + uint64(in.Imm)
		return nextPC, true
	default:
		panic(fmt.Sprintf("cpu: unimplemented opcode %v", in.Op))
	}
	if d.cl == isa.ClassBranch && taken {
		nextPC = pc + uint64(in.Imm)
	}
	return nextPC, taken
}
