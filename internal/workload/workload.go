// Package workload provides the benchmark programs the experiments run:
// fourteen kernels, written in the simulator's ISA, that stand in for the
// SPEC2000 subset the paper evaluates (the programs with high L2 miss
// rates — Section 5.1). Each kernel reproduces the *memory behaviour* that
// matters to sequence-number prediction: working-set size relative to the
// L2, strided streaming vs. pointer chasing, read/write mix, and — most
// importantly — how often individual cache lines are rewritten, which is
// what drives counters away from their page roots.
//
// Builders emit both the program text (assembled on the spot) and the
// initial data image (pointer graphs, neighbor lists, hash chains), all
// derived deterministically from a seed.
package workload

import (
	"errors"
	"fmt"
	"sort"

	"ctrpred/internal/isa"
	"ctrpred/internal/mem"
	"ctrpred/internal/rng"
)

// ErrUnknownBenchmark reports a benchmark name outside the kernel set;
// match it with errors.Is after Build or sim.Run.
var ErrUnknownBenchmark = errors.New("unknown benchmark")

// CodeBase is where kernel code is loaded.
const CodeBase = 0x10000

// DataBase is where kernel data images start (4 KB-page aligned, well
// clear of the code).
const DataBase = 0x100000

// Scale controls how big and how long a kernel runs.
type Scale struct {
	// Footprint is the target main-data working set in bytes.
	Footprint int
	// Instructions is the approximate dynamic instruction budget the
	// kernel's loop bounds are derived from.
	Instructions uint64
}

// DefaultScale exercises working sets around and beyond the 256 KB L2 —
// scaled-down analogues of the paper's memory-bound SimPoints.
func DefaultScale() Scale {
	return Scale{Footprint: 2 << 20, Instructions: 2_000_000}
}

// TestScale is small enough for unit tests.
func TestScale() Scale {
	return Scale{Footprint: 64 << 10, Instructions: 50_000}
}

// AgeSpan declares a region whose counters carry pre-accumulated update
// history when the measured window begins. The paper fast-forwards at
// least 4 billion instructions before each SimPoint, "updating the
// profiled memory status" — i.e., counters arrive at the measurement
// window already far from their roots wherever the program has been
// writing. Executing billions of instructions is out of scope at library
// scale, so each kernel declares the counter state its fast-forward would
// have produced: its write regions, the mean accumulated update count,
// and the spatial coherence of that count (neighboring lines of a working
// region age together — the locality context-based prediction exploits).
type AgeSpan struct {
	Base  uint64
	Bytes int
	// MeanUpdates is the central counter offset of aged chunks. Update
	// counts accumulate over many passes, so they concentrate around the
	// mean (binomial-like) rather than spreading geometrically — the
	// temporal coherence context-based prediction exploits.
	MeanUpdates float64
	// Spread is the maximum ± deviation of a chunk's base offset from
	// MeanUpdates.
	Spread int
	// ChunkLines is the coherence granularity: lines in a chunk share a
	// base offset.
	ChunkLines int
	// Noise is the maximum per-line deviation added to the chunk base.
	Noise int
	// StaticFrac is the fraction of chunks left unaged (offset 0).
	StaticFrac float64
}

// Workload is a built benchmark: the program, plus the counter-aging
// profile of its write regions.
type Workload struct {
	Prog *isa.Program
	Ages []AgeSpan
}

// Spec describes one benchmark.
type Spec struct {
	Name        string
	Description string
	// MemoryBound marks the kernels the paper's IPC discussion singles
	// out as memory-bound.
	MemoryBound bool
	// WriteHeavy marks kernels whose lines are updated many times
	// (exercising adaptive resets and the optimized predictors).
	WriteHeavy bool
	build      func(s Scale, img *mem.Memory, r *rng.Xoshiro256) (string, []AgeSpan)
}

var registry = []Spec{
	{Name: "ammp", Description: "molecular dynamics: neighbor-list gather, write-once forces", MemoryBound: true, build: buildAmmp},
	{Name: "applu", Description: "banded solver: in-place 3-point sweeps", MemoryBound: true, WriteHeavy: true, build: buildApplu},
	{Name: "art", Description: "neural net: repeated weight scans, small hot activation region", MemoryBound: true, WriteHeavy: true, build: buildArt},
	{Name: "bzip2", Description: "block sort: random in-place swaps over a large buffer", MemoryBound: true, WriteHeavy: true, build: buildBzip2},
	{Name: "gcc", Description: "compiler: scattered reads/writes, hot/cold split", build: buildGcc},
	{Name: "gzip", Description: "compression: streaming input, heavily rewritten window", WriteHeavy: true, build: buildGzip},
	{Name: "mcf", Description: "network simplex: pointer chasing over a huge arena", MemoryBound: true, build: buildMcf},
	{Name: "mgrid", Description: "multigrid: sweeps at multiple strides", MemoryBound: true, WriteHeavy: true, build: buildMgrid},
	{Name: "parser", Description: "dictionary walk with occasional insertions", build: buildParser},
	{Name: "swim", Description: "shallow water: streaming stencil, sequential writes", MemoryBound: true, WriteHeavy: true, build: buildSwim},
	{Name: "twolf", Description: "placement: random element swaps in a moderate array", MemoryBound: true, WriteHeavy: true, build: buildTwolf},
	{Name: "vortex", Description: "OO database: hash-bucket chain lookups", MemoryBound: true, build: buildVortex},
	{Name: "vpr", Description: "routing: random graph neighbor walk with weight updates", MemoryBound: true, build: buildVpr},
	{Name: "wupwise", Description: "quantum chromodynamics: streaming BLAS-like FP", build: buildWupwise},
}

// Names returns all benchmark names, sorted.
func Names() []string {
	names := make([]string, len(registry))
	for i, s := range registry {
		names[i] = s.Name
	}
	sort.Strings(names)
	return names
}

// Lookup returns the spec for name.
func Lookup(name string) (Spec, bool) {
	for _, s := range registry {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}

// Build assembles the named benchmark at the given scale, writing its
// data image (and code image) into img. The returned workload carries the
// program (ready to run on a cpu.Core) and the counter-aging spans.
func Build(name string, s Scale, img *mem.Memory, seed uint64) (*Workload, error) {
	spec, ok := Lookup(name)
	if !ok {
		return nil, fmt.Errorf("workload: %w %q (have %v)", ErrUnknownBenchmark, name, Names())
	}
	if s.Footprint < 4096 || s.Instructions == 0 {
		return nil, fmt.Errorf("workload: degenerate scale %+v", s)
	}
	r := rng.New(seed ^ hashName(name))
	src, ages := spec.build(s, img, r)
	prog, err := isa.Assemble(src, CodeBase)
	if err != nil {
		return nil, fmt.Errorf("workload %s: internal assembly error: %w", name, err)
	}
	img.WriteBytes(prog.Base, prog.Bytes())
	return &Workload{Prog: prog, Ages: ages}, nil
}

// MustBuild is Build for known-good names and scales.
func MustBuild(name string, s Scale, img *mem.Memory, seed uint64) *Workload {
	w, err := Build(name, s, img, seed)
	if err != nil {
		panic(err)
	}
	return w
}

// SampleAges walks a span's chunks and lines, calling fn with each aged
// line's address and counter offset. Offsets are drawn deterministically
// from r: a chunk's base is the configured mean moved by a uniform draw
// within ±Spread, per-line noise is uniform.
func (a AgeSpan) SampleAges(r *rng.Xoshiro256, fn func(lineAddr uint64, offset uint64)) {
	if a.Bytes <= 0 {
		return
	}
	chunk := a.ChunkLines
	if chunk <= 0 {
		chunk = 1
	}
	lines := a.Bytes / 32
	for l := 0; l < lines; l += chunk {
		if a.StaticFrac > 0 && r.Bool(a.StaticFrac) {
			continue
		}
		base := int(a.MeanUpdates)
		if a.Spread > 0 {
			base += r.Intn(2*a.Spread+1) - a.Spread
		}
		if base < 0 {
			base = 0
		}
		for i := l; i < l+chunk && i < lines; i++ {
			off := uint64(base)
			if a.Noise > 0 {
				off += uint64(r.Intn(a.Noise + 1))
			}
			if off > 0 {
				fn(a.Base+uint64(i)*32, off)
			}
		}
	}
}

func hashName(name string) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return h
}

// iters derives a loop count from the instruction budget and the
// instructions executed per iteration, with a floor of 1.
func iters(s Scale, perIter int) int {
	n := int(s.Instructions) / perIter
	if n < 1 {
		n = 1
	}
	return n
}

// pow2AtMost returns the largest power of two ≤ n (n ≥ 1).
func pow2AtMost(n int) int {
	p := 1
	for p*2 <= n {
		p *= 2
	}
	return p
}

// lineWords is the number of 8-byte words in a 32-byte line.
const lineWords = 4

// fillRandom writes n 8-byte random words starting at base, a
// line-aligned address, a line at a time.
func fillRandom(img *mem.Memory, base uint64, n int, r *rng.Xoshiro256) {
	var line [lineWords]uint64
	for i := 0; i < n; i += lineWords {
		w := line[:min(lineWords, n-i)]
		for j := range w {
			w[j] = r.Uint64()
		}
		img.StoreWords(base+uint64(i)*8, w...)
	}
}
