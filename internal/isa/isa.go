// Package isa defines the small 64-bit RISC instruction set the workload
// kernels are written in. It stands in for the Alpha ISA the paper's
// SimpleScalar runs: the out-of-order core in package cpu executes these
// instructions both functionally and under a detailed timing model.
//
// The machine has 32 general registers (r0 hardwired to zero). There is
// no separate floating-point register file; the "FP" opcodes operate on
// integer values but occupy floating-point functional units with
// floating-point latencies, which is all a memory-system study requires
// (the dataflow and reference streams are what matter, not IEEE
// semantics). Instructions encode to fixed 8-byte words, so the
// instruction cache sees four instructions per 32-byte line.
package isa

import "fmt"

// Op enumerates the opcodes.
type Op uint8

const (
	OpNop Op = iota
	// Register-register integer ALU.
	OpAdd
	OpSub
	OpAnd
	OpOr
	OpXor
	OpSll
	OpSrl
	OpSra
	OpSlt
	OpSltu
	// Multiply/divide.
	OpMul
	OpDiv
	OpRem
	// Register-immediate ALU.
	OpAddi
	OpAndi
	OpOri
	OpXori
	OpSlli
	OpSrli
	OpSrai
	OpSlti
	OpLui
	// FP-latency arithmetic (integer semantics, FP unit occupancy).
	OpFadd
	OpFsub
	OpFmul
	OpFdiv
	// Memory. Loads zero-extend.
	OpLd // 8 bytes
	OpLw // 4 bytes
	OpLh // 2 bytes
	OpLb // 1 byte
	OpSd
	OpSw
	OpSh
	OpSb
	// Control. Branch/jump immediates are byte offsets from the
	// instruction's own PC; Jalr targets Rs1+Imm absolutely.
	OpBeq
	OpBne
	OpBlt
	OpBge
	OpBltu
	OpBgeu
	OpJal
	OpJalr
	OpHalt
	numOps
)

// InstrBytes is the size of one encoded instruction.
const InstrBytes = 8

// Class groups opcodes by the functional unit they occupy.
type Class uint8

const (
	ClassNop Class = iota
	ClassALU
	ClassMul
	ClassDiv
	ClassFPAdd
	ClassFPMul
	ClassFPDiv
	ClassLoad
	ClassStore
	ClassBranch
	ClassJump
	ClassHalt
)

var opInfo = [numOps]struct {
	name  string
	class Class
}{
	OpNop:  {"nop", ClassNop},
	OpAdd:  {"add", ClassALU},
	OpSub:  {"sub", ClassALU},
	OpAnd:  {"and", ClassALU},
	OpOr:   {"or", ClassALU},
	OpXor:  {"xor", ClassALU},
	OpSll:  {"sll", ClassALU},
	OpSrl:  {"srl", ClassALU},
	OpSra:  {"sra", ClassALU},
	OpSlt:  {"slt", ClassALU},
	OpSltu: {"sltu", ClassALU},
	OpMul:  {"mul", ClassMul},
	OpDiv:  {"div", ClassDiv},
	OpRem:  {"rem", ClassDiv},
	OpAddi: {"addi", ClassALU},
	OpAndi: {"andi", ClassALU},
	OpOri:  {"ori", ClassALU},
	OpXori: {"xori", ClassALU},
	OpSlli: {"slli", ClassALU},
	OpSrli: {"srli", ClassALU},
	OpSrai: {"srai", ClassALU},
	OpSlti: {"slti", ClassALU},
	OpLui:  {"lui", ClassALU},
	OpFadd: {"fadd", ClassFPAdd},
	OpFsub: {"fsub", ClassFPAdd},
	OpFmul: {"fmul", ClassFPMul},
	OpFdiv: {"fdiv", ClassFPDiv},
	OpLd:   {"ld", ClassLoad},
	OpLw:   {"lw", ClassLoad},
	OpLh:   {"lh", ClassLoad},
	OpLb:   {"lb", ClassLoad},
	OpSd:   {"sd", ClassStore},
	OpSw:   {"sw", ClassStore},
	OpSh:   {"sh", ClassStore},
	OpSb:   {"sb", ClassStore},
	OpBeq:  {"beq", ClassBranch},
	OpBne:  {"bne", ClassBranch},
	OpBlt:  {"blt", ClassBranch},
	OpBge:  {"bge", ClassBranch},
	OpBltu: {"bltu", ClassBranch},
	OpBgeu: {"bgeu", ClassBranch},
	OpJal:  {"jal", ClassJump},
	OpJalr: {"jalr", ClassJump},
	OpHalt: {"halt", ClassHalt},
}

// String returns the mnemonic.
func (o Op) String() string {
	if int(o) < len(opInfo) && opInfo[o].name != "" {
		return opInfo[o].name
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Class returns the functional-unit class of the opcode.
func (o Op) Class() Class {
	if int(o) < len(opInfo) {
		return opInfo[o].class
	}
	return ClassNop
}

// MemBytes returns the access width of a load/store opcode, or 0.
func (o Op) MemBytes() int {
	switch o {
	case OpLd, OpSd:
		return 8
	case OpLw, OpSw:
		return 4
	case OpLh, OpSh:
		return 2
	case OpLb, OpSb:
		return 1
	}
	return 0
}

// Instr is one decoded instruction.
type Instr struct {
	Op       Op
	Rd       uint8
	Rs1, Rs2 uint8
	Imm      int64 // encoded as int32
}

// String disassembles the instruction.
func (in Instr) String() string {
	switch in.Op.Class() {
	case ClassNop, ClassHalt:
		return in.Op.String()
	case ClassLoad:
		return fmt.Sprintf("%s r%d, %d(r%d)", in.Op, in.Rd, in.Imm, in.Rs1)
	case ClassStore:
		return fmt.Sprintf("%s r%d, %d(r%d)", in.Op, in.Rs2, in.Imm, in.Rs1)
	case ClassBranch:
		return fmt.Sprintf("%s r%d, r%d, %d", in.Op, in.Rs1, in.Rs2, in.Imm)
	case ClassJump:
		if in.Op == OpJalr {
			return fmt.Sprintf("jalr r%d, r%d, %d", in.Rd, in.Rs1, in.Imm)
		}
		return fmt.Sprintf("jal r%d, %d", in.Rd, in.Imm)
	}
	switch in.Op {
	case OpAddi, OpAndi, OpOri, OpXori, OpSlli, OpSrli, OpSrai, OpSlti:
		return fmt.Sprintf("%s r%d, r%d, %d", in.Op, in.Rd, in.Rs1, in.Imm)
	case OpLui:
		return fmt.Sprintf("lui r%d, %d", in.Rd, in.Imm)
	}
	return fmt.Sprintf("%s r%d, r%d, r%d", in.Op, in.Rd, in.Rs1, in.Rs2)
}

// Encode packs the instruction into 8 bytes:
// [op][rd][rs1][rs2][imm:int32 little-endian].
func (in Instr) Encode(dst []byte) {
	if len(dst) < InstrBytes {
		panic("isa: encode buffer too short")
	}
	if in.Imm > 1<<31-1 || in.Imm < -(1<<31) {
		panic(fmt.Sprintf("isa: immediate %d does not fit in 32 bits", in.Imm))
	}
	dst[0] = byte(in.Op)
	dst[1] = in.Rd
	dst[2] = in.Rs1
	dst[3] = in.Rs2
	imm := uint32(int32(in.Imm))
	dst[4] = byte(imm)
	dst[5] = byte(imm >> 8)
	dst[6] = byte(imm >> 16)
	dst[7] = byte(imm >> 24)
}

// Decode unpacks an instruction from 8 bytes.
func Decode(src []byte) Instr {
	if len(src) < InstrBytes {
		panic("isa: decode buffer too short")
	}
	imm := int32(uint32(src[4]) | uint32(src[5])<<8 | uint32(src[6])<<16 | uint32(src[7])<<24)
	return Instr{Op: Op(src[0]), Rd: src[1], Rs1: src[2], Rs2: src[3], Imm: int64(imm)}
}

// Program is an assembled code image.
type Program struct {
	Instrs []Instr
	// Base is the virtual address of Instrs[0]; instruction i lives at
	// Base + i*InstrBytes.
	Base uint64
	// Labels maps label names to instruction addresses.
	Labels map[string]uint64
}

// PC returns the address of instruction index i.
func (p *Program) PC(i int) uint64 { return p.Base + uint64(i)*InstrBytes }

// Bytes encodes the whole program.
func (p *Program) Bytes() []byte {
	out := make([]byte, len(p.Instrs)*InstrBytes)
	for i, in := range p.Instrs {
		in.Encode(out[i*InstrBytes:])
	}
	return out
}
