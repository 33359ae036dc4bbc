package cpu

import (
	"testing"

	"ctrpred/internal/cryptoengine"
	"ctrpred/internal/ctr"
	"ctrpred/internal/dram"
	"ctrpred/internal/isa"
	"ctrpred/internal/mem"
	"ctrpred/internal/memsys"
	"ctrpred/internal/predictor"
	"ctrpred/internal/secmem"
)

func newCore(t *testing.T, src string, scheme predictor.Scheme) (*Core, *mem.Memory) {
	t.Helper()
	prog, err := isa.Assemble(src, 0x10000)
	if err != nil {
		t.Fatal(err)
	}
	var key [32]byte
	key[0] = 3
	image := mem.New()
	image.WriteBytes(prog.Base, prog.Bytes())
	d := dram.New(dram.DefaultConfig())
	e, _ := cryptoengine.New(cryptoengine.DefaultSpec()) // the default spec always builds
	ks := ctr.NewKeystream(key)
	p := predictor.New(scheme, predictor.DefaultConfig(), 0x5eed)
	ctrl := secmem.New(secmem.DefaultConfig(), d, e, ks, p, image)
	mcfg := memsys.DefaultConfig()
	mcfg.FlushInterval = 0
	sys := memsys.New(mcfg, ctrl)
	return New(Config{}, prog, image, sys), image
}

func run(t *testing.T, src string) (*Core, Stats) {
	t.Helper()
	c, _ := newCore(t, src, predictor.SchemeRegular)
	st := c.Run(0)
	if !st.Halted {
		t.Fatal("program did not halt")
	}
	return c, st
}

func TestArithmetic(t *testing.T) {
	c, _ := run(t, `
		addi r1, r0, 6
		addi r2, r0, 7
		mul  r3, r1, r2
		sub  r4, r3, r1
		div  r5, r3, r2
		rem  r6, r3, r1   # 42 % 6 = 0
		halt
	`)
	if c.Reg(3) != 42 || c.Reg(4) != 36 || c.Reg(5) != 6 || c.Reg(6) != 0 {
		t.Fatalf("r3=%d r4=%d r5=%d r6=%d", c.Reg(3), c.Reg(4), c.Reg(5), c.Reg(6))
	}
}

func TestLogicAndShifts(t *testing.T) {
	c, _ := run(t, `
		addi r1, r0, 0xf0
		addi r2, r0, 0x0f
		and  r3, r1, r2
		or   r4, r1, r2
		xor  r5, r1, r2
		slli r6, r2, 4
		srli r7, r1, 4
		addi r8, r0, -16
		srai r9, r8, 2
		slt  r10, r8, r2
		sltu r11, r8, r2  # -16 as unsigned is huge
		halt
	`)
	if c.Reg(3) != 0 || c.Reg(4) != 0xff || c.Reg(5) != 0xff {
		t.Fatalf("logic: r3=%#x r4=%#x r5=%#x", c.Reg(3), c.Reg(4), c.Reg(5))
	}
	if c.Reg(6) != 0xf0 || c.Reg(7) != 0x0f {
		t.Fatalf("shift: r6=%#x r7=%#x", c.Reg(6), c.Reg(7))
	}
	if int64(c.Reg(9)) != -4 || c.Reg(10) != 1 || c.Reg(11) != 0 {
		t.Fatalf("signed: r9=%d r10=%d r11=%d", int64(c.Reg(9)), c.Reg(10), c.Reg(11))
	}
}

func TestDivByZero(t *testing.T) {
	c, _ := run(t, `
		addi r1, r0, 5
		div  r2, r1, r0
		rem  r3, r1, r0
		halt
	`)
	if c.Reg(2) != ^uint64(0) || c.Reg(3) != 5 {
		t.Fatalf("div0: r2=%#x r3=%d", c.Reg(2), c.Reg(3))
	}
}

func TestLuiAndImmediates(t *testing.T) {
	c, _ := run(t, `
		lui  r1, 5        # 5 << 12
		ori  r2, r1, 0x21
		xori r3, r2, 0x21
		andi r4, r2, 0xff
		slti r5, r0, 1
		halt
	`)
	if c.Reg(1) != 5<<12 || c.Reg(2) != 5<<12|0x21 || c.Reg(3) != 5<<12 || c.Reg(4) != 0x21 || c.Reg(5) != 1 {
		t.Fatalf("r1=%#x r2=%#x r3=%#x r4=%#x r5=%d", c.Reg(1), c.Reg(2), c.Reg(3), c.Reg(4), c.Reg(5))
	}
}

func TestR0Hardwired(t *testing.T) {
	c, _ := run(t, `
		addi r0, r0, 99
		add  r1, r0, r0
		halt
	`)
	if c.Reg(0) != 0 || c.Reg(1) != 0 {
		t.Fatalf("r0=%d r1=%d", c.Reg(0), c.Reg(1))
	}
}

func TestLoadStoreWidths(t *testing.T) {
	c, _ := run(t, `
		lui  r1, 0x100          # data base 0x100000
		addi r2, r0, 0x7f
		sd   r2, 0(r1)
		sw   r2, 8(r1)
		sh   r2, 16(r1)
		sb   r2, 24(r1)
		ld   r3, 0(r1)
		lw   r4, 8(r1)
		lh   r5, 16(r1)
		lb   r6, 24(r1)
		halt
	`)
	for r := 3; r <= 6; r++ {
		if c.Reg(r) != 0x7f {
			t.Fatalf("r%d = %#x", r, c.Reg(r))
		}
	}
}

func TestLoopAndBranches(t *testing.T) {
	// Sum 1..100 = 5050.
	c, st := run(t, `
		addi r1, r0, 0      # sum
		addi r2, r0, 1      # i
		addi r3, r0, 100
	loop:
		add  r1, r1, r2
		addi r2, r2, 1
		bge  r3, r2, loop
		halt
	`)
	if c.Reg(1) != 5050 {
		t.Fatalf("sum = %d", c.Reg(1))
	}
	if st.Branches < 100 {
		t.Fatalf("branches = %d", st.Branches)
	}
	if st.Instructions != 3+3*100+1 {
		t.Fatalf("instructions = %d", st.Instructions)
	}
}

func TestCallReturn(t *testing.T) {
	c, _ := run(t, `
		addi r10, r0, 5
		jal  r31, double
		add  r12, r11, r0
		jal  r31, double2
		halt
	double:
		add  r11, r10, r10
		jalr r0, r31, 0
	double2:
		add  r11, r12, r12
		jalr r0, r31, 0
	`)
	if c.Reg(11) != 20 || c.Reg(12) != 10 {
		t.Fatalf("r11=%d r12=%d", c.Reg(11), c.Reg(12))
	}
}

func TestBranchVariants(t *testing.T) {
	c, _ := run(t, `
		addi r1, r0, -1
		addi r2, r0, 1
		addi r10, r0, 0
		bltu r1, r2, skip1    # unsigned: huge < 1 is false
		addi r10, r10, 1
	skip1:
		blt  r1, r2, skip2    # signed: -1 < 1 true
		addi r10, r10, 100
	skip2:
		bne  r1, r2, skip3
		addi r10, r10, 100
	skip3:
		beq  r1, r1, skip4
		addi r10, r10, 100
	skip4:
		bgeu r1, r2, skip5    # unsigned: huge >= 1 true
		addi r10, r10, 100
	skip5:
		halt
	`)
	if c.Reg(10) != 1 {
		t.Fatalf("r10 = %d, want 1", c.Reg(10))
	}
}

func TestIPCPositiveAndBounded(t *testing.T) {
	_, st := run(t, `
		addi r1, r0, 0
		addi r2, r0, 1000
	loop:
		addi r1, r1, 1
		addi r3, r1, 0
		addi r4, r1, 0
		bne  r1, r2, loop
		halt
	`)
	ipc := st.IPC()
	if ipc <= 0.5 || ipc > 8 {
		t.Fatalf("IPC = %v, want in (0.5, 8]", ipc)
	}
}

func TestDependentChainSlowerThanIndependent(t *testing.T) {
	dep := `
		addi r2, r0, 2000
	loop:
		mul r1, r1, r1
		mul r1, r1, r1
		mul r1, r1, r1
		addi r2, r2, -1
		bne r2, r0, loop
		halt`
	indep := `
		addi r2, r0, 2000
	loop:
		mul r3, r1, r1
		mul r4, r1, r1
		mul r5, r1, r1
		addi r2, r2, -1
		bne r2, r0, loop
		halt`
	_, stDep := run(t, dep)
	_, stInd := run(t, indep)
	if stDep.Cycles <= stInd.Cycles {
		t.Fatalf("dependent chain (%d cycles) not slower than independent (%d)", stDep.Cycles, stInd.Cycles)
	}
}

func TestMispredictsDetected(t *testing.T) {
	// Data-dependent unpredictable-ish branch pattern via xorshift.
	_, st := run(t, `
		addi r1, r0, 12345    # rng state
		addi r2, r0, 3000     # iterations
		addi r10, r0, 0
	loop:
		slli r3, r1, 13
		xor  r1, r1, r3
		srli r3, r1, 7
		xor  r1, r1, r3
		slli r3, r1, 17
		xor  r1, r1, r3
		andi r4, r1, 1
		beq  r4, r0, even
		addi r10, r10, 1
	even:
		addi r2, r2, -1
		bne  r2, r0, loop
		halt
	`)
	if st.Mispredicts == 0 {
		t.Fatal("no mispredictions on a pseudo-random branch")
	}
	if st.Mispredicts >= st.Branches {
		t.Fatalf("mispredicts (%d) not below branches (%d)", st.Mispredicts, st.Branches)
	}
}

func TestMemoryBoundLoopSlower(t *testing.T) {
	// A pointer-stride loop over 1 MB (missing a 256 KB L2) must run at
	// far lower IPC than the same instruction count of ALU work.
	memLoop := `
		lui  r1, 0x100      # base
		addi r2, r0, 8000   # iterations
		addi r3, r0, 0      # offset
	loop:
		ld   r4, 0(r1)
		addi r1, r1, 128    # stride two lines to defeat spatial reuse
		addi r2, r2, -1
		bne  r2, r0, loop
		halt`
	aluLoop := `
		addi r2, r0, 8000
	loop:
		add  r4, r4, r2
		addi r1, r1, 128
		addi r2, r2, -1
		bne  r2, r0, loop
		halt`
	_, stMem := run(t, memLoop)
	_, stALU := run(t, aluLoop)
	if stMem.IPC() >= stALU.IPC()/2 {
		t.Fatalf("memory-bound IPC %.3f not well below ALU IPC %.3f", stMem.IPC(), stALU.IPC())
	}
	if stMem.Loads < 8000 {
		t.Fatalf("loads = %d", stMem.Loads)
	}
}

func TestPredictionImprovesMemoryBoundIPC(t *testing.T) {
	// The headline effect: on a read-heavy miss-bound loop, OTP
	// prediction beats the no-prediction baseline.
	src := `
		lui  r1, 0x100
		addi r2, r0, 4000
	loop:
		ld   r4, 0(r1)
		addi r1, r1, 32
		addi r2, r2, -1
		bne  r2, r0, loop
		halt`
	base, _ := newCore(t, src, predictor.SchemeNone)
	pred, _ := newCore(t, src, predictor.SchemeRegular)
	stBase := base.Run(0)
	stPred := pred.Run(0)
	if stPred.Cycles >= stBase.Cycles {
		t.Fatalf("prediction (%d cycles) not faster than baseline (%d)", stPred.Cycles, stBase.Cycles)
	}
}

func TestMaxInstructionsCap(t *testing.T) {
	c, _ := newCore(t, `
	loop:
		addi r1, r1, 1
		beq r0, r0, loop
	`, predictor.SchemeRegular)
	st := c.Run(1000)
	if st.Halted {
		t.Fatal("infinite loop reported halted")
	}
	if st.Instructions != 1000 {
		t.Fatalf("instructions = %d, want 1000", st.Instructions)
	}
}

func TestRunOffEndHalts(t *testing.T) {
	c, _ := newCore(t, "addi r1, r0, 1", predictor.SchemeRegular)
	st := c.Run(0)
	if !c.Halted() || st.Instructions != 1 {
		t.Fatalf("halted=%v instrs=%d", c.Halted(), st.Instructions)
	}
}

func TestSetReg(t *testing.T) {
	c, _ := newCore(t, "add r2, r1, r1\nhalt", predictor.SchemeRegular)
	c.SetReg(1, 21)
	c.SetReg(0, 99) // must be ignored
	c.Run(0)
	if c.Reg(2) != 42 || c.Reg(0) != 0 {
		t.Fatalf("r2=%d r0=%d", c.Reg(2), c.Reg(0))
	}
}

func TestStoreThenLoadThroughHierarchy(t *testing.T) {
	// Write a value, blow it out of L2 via a long walk, read it back:
	// the round trip crosses encryption and must still be correct.
	c, _ := run(t, `
		lui  r1, 0x200
		addi r2, r0, 0x5a5a
		sd   r2, 0(r1)
		lui  r3, 0x300       # walk 512 KB elsewhere
		addi r4, r0, 16384
	walk:
		ld   r5, 0(r3)
		addi r3, r3, 32
		addi r4, r4, -1
		bne  r4, r0, walk
		ld   r6, 0(r1)
		halt
	`)
	if c.Reg(6) != 0x5a5a {
		t.Fatalf("round-trip value = %#x", c.Reg(6))
	}
}

func TestGshareLearnsLoop(t *testing.T) {
	g := newGshare()
	pc := uint64(0x400)
	for i := 0; i < 50; i++ {
		g.updateDirection(pc, true)
	}
	if !g.predictDirection(pc) {
		t.Fatal("gshare did not learn an always-taken branch")
	}
}

func TestGshareTargets(t *testing.T) {
	g := newGshare()
	if _, ok := g.predictTarget(0x100); ok {
		t.Fatal("cold target predicted")
	}
	g.updateTarget(0x100, 0x500)
	if tgt, ok := g.predictTarget(0x100); !ok || tgt != 0x500 {
		t.Fatalf("target = %#x, %v", tgt, ok)
	}
}

func TestLVPLearnsStableLoads(t *testing.T) {
	l := newLVP(64)
	pc := uint64(0x1000)
	if _, conf := l.predict(pc); conf {
		t.Fatal("cold LVP entry confident")
	}
	// One train installs the value; two more confirmations build
	// confidence; later ones speculate.
	l.train(pc, 7)
	l.train(pc, 7)
	l.train(pc, 7)
	if v, conf := l.predict(pc); !conf || v != 7 {
		t.Fatalf("LVP not confident after repeats: v=%d conf=%v", v, conf)
	}
	if spec, correct := l.train(pc, 7); !spec || !correct {
		t.Fatal("confident correct prediction not counted")
	}
	if spec, correct := l.train(pc, 9); !spec || correct {
		t.Fatal("confident wrong prediction not counted as miss")
	}
	if l.hits != 1 || l.misses != 1 {
		t.Fatalf("hits=%d misses=%d", l.hits, l.misses)
	}
}

func TestLVPDisabled(t *testing.T) {
	if newLVP(0) != nil {
		t.Fatal("LVP created with 0 entries")
	}
}

func TestLVPSpeedsStableLoadChain(t *testing.T) {
	// A constant-valued load that keeps missing the caches (a strided
	// walk evicts its line every iteration): the last-value predictor
	// locks on and lets the dependent chain retire at ALU speed while
	// the miss verifies in the background.
	src := `
		lui  r1, 0x100       # the stable location
		addi r7, r0, 42
		sd   r7, 0(r1)
		add  r2, r1, r0      # eviction cursor
		addi r9, r0, 4000
	loop:
		ld   r4, 0(r1)       # stable value, usually a miss
		add  r5, r5, r4
		addi r2, r2, 8192    # walk conflicting sets
		ld   r6, 0(r2)
		addi r9, r9, -1
		bne  r9, r0, loop
		halt`
	build := func(entries int) (*Core, Stats) {
		c, _ := newCore(t, src, predictor.SchemeRegular)
		c.lvp = newLVP(entries)
		return c, c.Run(0)
	}
	_, plain := build(0)
	cw, with := build(1024)
	if with.LVPHits == 0 {
		t.Fatal("LVP never hit on a constant load")
	}
	if with.Cycles >= plain.Cycles {
		t.Fatalf("LVP (%d cycles) not faster than without (%d)", with.Cycles, plain.Cycles)
	}
	if cw.Reg(5) != 42*4000 {
		t.Fatalf("architectural sum = %d (speculation corrupted state)", cw.Reg(5))
	}
}

func TestLVPMispredictsCostSquash(t *testing.T) {
	// Loads returning fresh values every time: the LVP gains confidence
	// occasionally, mispredicts, and must never corrupt architectural
	// state — only timing.
	src := `
		lui  r1, 0x100
		addi r9, r0, 3000
		addi r5, r0, 0
	loop:
		srli r7, r9, 4       # value changes every 16 iterations:
		sd   r7, 0(r1)       # long enough to gain confidence, then break it
		ld   r4, 0(r1)
		add  r5, r5, r4
		addi r9, r9, -1
		bne  r9, r0, loop
		halt`
	c, _ := newCore(t, src, predictor.SchemeRegular)
	c.lvp = newLVP(256)
	st := c.Run(0)
	// Architectural check: sum of (i >> 4) for i = 3000 .. 1.
	var want uint64
	for i := uint64(3000); i >= 1; i-- {
		want += i >> 4
	}
	if c.Reg(5) != want {
		t.Fatalf("architectural sum = %d, want %d (speculation corrupted state)", c.Reg(5), want)
	}
	if st.LVPMisses == 0 {
		t.Fatal("phase-changing values never mispredicted")
	}
	if st.LVPHits == 0 {
		t.Fatal("stable phases never predicted")
	}
}
