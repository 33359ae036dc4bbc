package isa

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := func(op uint8, rd, rs1, rs2 uint8, imm int32) bool {
		in := Instr{Op: Op(op % uint8(numOps)), Rd: rd % 32, Rs1: rs1 % 32, Rs2: rs2 % 32, Imm: int64(imm)}
		var buf [InstrBytes]byte
		in.Encode(buf[:])
		return Decode(buf[:]) == in
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeRejectsBigImm(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("oversized immediate did not panic")
		}
	}()
	var buf [8]byte
	Instr{Op: OpAddi, Imm: 1 << 32}.Encode(buf[:])
}

func TestOpClasses(t *testing.T) {
	cases := map[Op]Class{
		OpAdd: ClassALU, OpMul: ClassMul, OpDiv: ClassDiv, OpRem: ClassDiv,
		OpFadd: ClassFPAdd, OpFmul: ClassFPMul, OpFdiv: ClassFPDiv,
		OpLd: ClassLoad, OpSb: ClassStore, OpBeq: ClassBranch,
		OpJal: ClassJump, OpJalr: ClassJump, OpHalt: ClassHalt, OpNop: ClassNop,
	}
	for op, want := range cases {
		if got := op.Class(); got != want {
			t.Errorf("%v.Class() = %d, want %d", op, got, want)
		}
	}
}

func TestMemBytes(t *testing.T) {
	cases := map[Op]int{OpLd: 8, OpLw: 4, OpLh: 2, OpLb: 1, OpSd: 8, OpSw: 4, OpSh: 2, OpSb: 1, OpAdd: 0}
	for op, want := range cases {
		if got := op.MemBytes(); got != want {
			t.Errorf("%v.MemBytes() = %d, want %d", op, got, want)
		}
	}
}

func TestAssembleBasic(t *testing.T) {
	p, err := Assemble(`
		# simple loop
		addi r1, zero, 10
	loop:
		addi r1, r1, -1
		bne  r1, r0, loop
		halt
	`, 0x1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Instrs) != 4 {
		t.Fatalf("got %d instructions", len(p.Instrs))
	}
	if p.Labels["loop"] != 0x1008 {
		t.Fatalf("loop label at %#x", p.Labels["loop"])
	}
	bne := p.Instrs[2]
	if bne.Op != OpBne || bne.Imm != -8 {
		t.Fatalf("bne = %+v, want PC-relative -8", bne)
	}
}

func TestAssembleMemOperands(t *testing.T) {
	p, err := Assemble(`
		ld r2, 16(r1)
		sd r3, -8(r4)
		lw r5, (r6)
	`, 0)
	if err != nil {
		t.Fatal(err)
	}
	if in := p.Instrs[0]; in.Rd != 2 || in.Rs1 != 1 || in.Imm != 16 {
		t.Fatalf("ld = %+v", in)
	}
	if in := p.Instrs[1]; in.Rs2 != 3 || in.Rs1 != 4 || in.Imm != -8 {
		t.Fatalf("sd = %+v", in)
	}
	if in := p.Instrs[2]; in.Rd != 5 || in.Rs1 != 6 || in.Imm != 0 {
		t.Fatalf("lw = %+v", in)
	}
}

func TestAssembleForwardReference(t *testing.T) {
	p, err := Assemble(`
		beq r0, r0, end
		nop
	end:
		halt
	`, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.Instrs[0].Imm != 16 {
		t.Fatalf("forward branch imm = %d, want 16", p.Instrs[0].Imm)
	}
}

func TestAssembleJumps(t *testing.T) {
	p, err := Assemble(`
	start:
		jal  r31, func
		halt
	func:
		jalr r0, r31, 0
	`, 0x100)
	if err != nil {
		t.Fatal(err)
	}
	if p.Instrs[0].Imm != 16 {
		t.Fatalf("jal imm = %d", p.Instrs[0].Imm)
	}
	if in := p.Instrs[2]; in.Op != OpJalr || in.Rs1 != 31 {
		t.Fatalf("jalr = %+v", in)
	}
}

func TestAssembleHexAndNegative(t *testing.T) {
	p, err := Assemble("addi r1, r0, 0x10\naddi r2, r0, -42", 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.Instrs[0].Imm != 16 || p.Instrs[1].Imm != -42 {
		t.Fatalf("imms = %d, %d", p.Instrs[0].Imm, p.Instrs[1].Imm)
	}
}

func TestAssembleNumericBranchTarget(t *testing.T) {
	p, err := Assemble("beq r1, r2, -16", 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.Instrs[0].Imm != -16 {
		t.Fatalf("imm = %d", p.Instrs[0].Imm)
	}
}

func TestAssembleErrors(t *testing.T) {
	cases := []string{
		"frob r1, r2, r3",     // unknown op
		"add r1, r2",          // operand count
		"addi r99, r0, 1",     // bad register
		"addi r1, r0, zzz",    // bad immediate
		"beq r1, r2, nowhere", // undefined label
		"dup: nop\ndup: nop",  // duplicate label
		"ld r1, 8[r2]",        // bad mem operand
		"halt r1",             // operands on halt
		"1bad: nop",           // bad label name
		"ld r1, 8(r2) junk",   // trailing junk
	}
	for _, src := range cases {
		if _, err := Assemble(src, 0); err == nil {
			t.Errorf("Assemble(%q) succeeded, want error", src)
		}
	}
}

func TestMustAssemblePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustAssemble on bad source did not panic")
		}
	}()
	MustAssemble("bogus", 0)
}

func TestProgramAt(t *testing.T) {
	p := MustAssemble("nop\nhalt", 0x2000)
	if in, ok := p.At(0x2000); !ok || in.Op != OpNop {
		t.Fatalf("At(base) = %v, %v", in, ok)
	}
	if in, ok := p.At(0x2008); !ok || in.Op != OpHalt {
		t.Fatalf("At(base+8) = %v, %v", in, ok)
	}
	if _, ok := p.At(0x2010); ok {
		t.Fatal("At past end reported ok")
	}
	if _, ok := p.At(0x2004); ok {
		t.Fatal("misaligned At reported ok")
	}
	if _, ok := p.At(0x1000); ok {
		t.Fatal("At below base reported ok")
	}
}

func TestProgramBytesDecode(t *testing.T) {
	p := MustAssemble("addi r1, r0, 7\nhalt", 0)
	b := p.Bytes()
	if len(b) != 2*InstrBytes {
		t.Fatalf("len = %d", len(b))
	}
	if got := Decode(b); got != p.Instrs[0] {
		t.Fatalf("decoded %+v, want %+v", got, p.Instrs[0])
	}
}

func TestDisassembly(t *testing.T) {
	cases := map[string]Instr{
		"add r1, r2, r3":  {Op: OpAdd, Rd: 1, Rs1: 2, Rs2: 3},
		"addi r1, r2, -5": {Op: OpAddi, Rd: 1, Rs1: 2, Imm: -5},
		"ld r4, 8(r5)":    {Op: OpLd, Rd: 4, Rs1: 5, Imm: 8},
		"sd r6, 0(r7)":    {Op: OpSd, Rs2: 6, Rs1: 7},
		"beq r1, r2, 16":  {Op: OpBeq, Rs1: 1, Rs2: 2, Imm: 16},
		"jal r31, 32":     {Op: OpJal, Rd: 31, Imm: 32},
		"jalr r0, r31, 0": {Op: OpJalr, Rs1: 31},
		"halt":            {Op: OpHalt},
		"lui r3, 4096":    {Op: OpLui, Rd: 3, Imm: 4096},
	}
	for want, in := range cases {
		if got := in.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}

func TestAssembleDisassembleRoundTrip(t *testing.T) {
	src := `addi r1, r0, 100
add r2, r1, r1
mul r3, r2, r1
ld r4, 16(r3)
sd r4, 24(r3)
beq r1, r2, 16
jal r31, 8
halt`
	p := MustAssemble(src, 0)
	var out []string
	for _, in := range p.Instrs {
		out = append(out, in.String())
	}
	p2 := MustAssemble(strings.Join(out, "\n"), 0)
	for i := range p.Instrs {
		if p.Instrs[i] != p2.Instrs[i] {
			t.Fatalf("instr %d: %+v != %+v", i, p.Instrs[i], p2.Instrs[i])
		}
	}
}
