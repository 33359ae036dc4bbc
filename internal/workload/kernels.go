package workload

import (
	"fmt"

	"ctrpred/internal/mem"
	"ctrpred/internal/rng"
)

// Register conventions used by all kernels:
//
//	r1-r8   pointers and temporaries
//	r9      outer loop counter
//	r10     xorshift64 PRNG state (kernels needing randomness)
//	r11-r19 inner counters and scratch
//	r20+    accumulators
//
// All kernels halt; loop bounds derive from Scale.Instructions. Each
// builder also declares the AgeSpans of its write regions — the counter
// state a long fast-forward would have accumulated there (see AgeSpan).

// xorshift is the in-ISA PRNG step on r10, clobbering rT.
func xorshift(rT int) string {
	return fmt.Sprintf(`	slli r%[1]d, r10, 13
	xor  r10, r10, r%[1]d
	srli r%[1]d, r10, 7
	xor  r10, r10, r%[1]d
	slli r%[1]d, r10, 17
	xor  r10, r10, r%[1]d
`, rT)
}

// buildMcf models mcf's network-simplex arc traversal: pointer chasing
// through a shuffled linked list spanning a footprint far larger than the
// L2. Reads dominate; only a sparse minority of nodes (cost relabeling)
// carries update history, so most counters sit at their page roots — yet
// the seqnum *cache* thrashes, which is exactly the contrast in
// Figures 7/10.
func buildMcf(s Scale, img *mem.Memory, r *rng.Xoshiro256) (string, []AgeSpan) {
	nodes := s.Footprint / 32
	if nodes < 2 {
		nodes = 2
	}
	// Random Hamiltonian cycle over the nodes: perm is the visiting
	// order, and node perm[i] costs the i-th draw after the shuffle. The
	// image is written by node, so each node's successor and cost are
	// packed into one int first (costs are below 1024).
	perm := make([]int, nodes)
	for i := range perm {
		perm[i] = i
	}
	for i := nodes - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	succ := make([]int, nodes)
	for i, from := range perm {
		succ[from] = perm[(i+1)%nodes]<<10 | r.Intn(1000)
	}
	addr := func(i int) uint64 { return DataBase + uint64(i)*32 }
	for n, sc := range succ {
		img.StoreWords(addr(n), addr(sc>>10), uint64(sc&1023))
	}
	n := iters(s, 6)
	src := fmt.Sprintf(`
	lui  r1, %d          # head node
	addi r9, r0, %d
loop:
	ld   r2, 0(r1)       # next
	ld   r3, 8(r1)       # cost
	add  r20, r20, r3
	add  r1, r2, r0
	addi r9, r9, -1
	bne  r9, r0, loop
	halt
`, DataBase>>12, n)
	ages := []AgeSpan{{
		Base: DataBase, Bytes: nodes * 32,
		MeanUpdates: 2, Spread: 2, ChunkLines: 128, Noise: 1, StaticFrac: 0.85,
	}}
	return src, ages
}

// buildSwim models swim's shallow-water stencils with the array rotation
// the real code performs (unew and u swap roles every timestep): each
// sweep reads one array and writes the other, then the pointers rotate.
// Both arrays therefore carry, and keep accumulating, nearly identical
// sweep-count histories — the global coherence stencil codes really show.
func buildSwim(s Scale, img *mem.Memory, r *rng.Xoshiro256) (string, []AgeSpan) {
	elems := s.Footprint / 2 / 8 // two arrays
	fillRandom(img, DataBase, elems, r)
	dstBase := uint64(DataBase) + uint64(elems)*8
	dstBase = (dstBase + 4095) &^ 4095
	perSweep := elems * 8
	sweeps := iters(s, perSweep) // 8 instrs/elem
	if sweeps < 2 {
		sweeps = 2
	}
	src := fmt.Sprintf(`
	addi r9, r0, %d       # sweeps
	lui  r15, %d          # array X
	lui  r16, %d          # array Y
sweep:
	add  r1, r15, r0      # src = X
	add  r2, r16, r0      # dst = Y
	addi r11, r0, %d      # elements-1 (avoid reading past the end)
inner:
	ld   r3, 0(r1)
	ld   r4, 8(r1)
	fadd r5, r3, r4
	sd   r5, 0(r2)
	addi r1, r1, 8
	addi r2, r2, 8
	addi r11, r11, -1
	bne  r11, r0, inner
	add  r17, r15, r0     # rotate arrays
	add  r15, r16, r0
	add  r16, r17, r0
	addi r9, r9, -1
	bne  r9, r0, sweep
	halt
`, sweeps, DataBase>>12, dstBase>>12, elems-1)
	ages := []AgeSpan{
		{Base: DataBase, Bytes: elems * 8, MeanUpdates: 4, Spread: 1, ChunkLines: 1 << 30, Noise: 1},
		{Base: dstBase, Bytes: elems * 8, MeanUpdates: 4, Spread: 1, ChunkLines: 1 << 30, Noise: 1},
	}
	return src, ages
}

// buildMgrid models mgrid's multigrid relaxation: in-place sweeps over
// one array at several strides (fine and coarse grids). Lines accumulate
// a few updates per pass at each level; coarse-grid lines age faster.
func buildMgrid(s Scale, img *mem.Memory, r *rng.Xoshiro256) (string, []AgeSpan) {
	elems := pow2AtMost(s.Footprint / 8)
	fillRandom(img, DataBase, elems, r)
	perPass := elems*9 + elems/8*9 + elems/64*9
	passes := iters(s, perPass)
	if passes < 1 {
		passes = 1
	}
	level := func(stride, count int) string {
		return fmt.Sprintf(`
	lui  r1, %d
	addi r11, r0, %d
lvl%d:
	ld   r3, 0(r1)
	ld   r4, %d(r1)
	fadd r5, r3, r4
	sd   r5, 0(r1)
	addi r1, r1, %d
	addi r11, r11, -1
	bne  r11, r0, lvl%d
`, DataBase>>12, count, stride, stride, stride, stride)
	}
	src := fmt.Sprintf(`
	addi r9, r0, %d
pass:%s%s%s	addi r9, r9, -1
	bne  r9, r0, pass
	halt
`, passes, level(8, elems-1), level(64, elems/8-1), level(512, elems/64-1))
	ages := []AgeSpan{{
		Base: DataBase, Bytes: elems * 8,
		MeanUpdates: 4, Spread: 1, ChunkLines: 1 << 30, Noise: 1,
	}}
	return src, ages
}

// buildApplu models applu's banded SSOR sweeps: an in-place 3-point
// update, so each line is both read and rewritten once per sweep with
// dependences between neighbors.
func buildApplu(s Scale, img *mem.Memory, r *rng.Xoshiro256) (string, []AgeSpan) {
	elems := s.Footprint / 8
	fillRandom(img, DataBase, elems, r)
	sweeps := iters(s, (elems-2)*10)
	if sweeps < 1 {
		sweeps = 1
	}
	src := fmt.Sprintf(`
	addi r9, r0, %d
sweep:
	lui  r1, %d
	addi r1, r1, 8        # start at element 1
	addi r11, r0, %d
inner:
	ld   r3, -8(r1)
	ld   r4, 0(r1)
	ld   r5, 8(r1)
	fadd r6, r3, r5
	fadd r6, r6, r4
	sd   r6, 0(r1)
	addi r1, r1, 8
	addi r11, r11, -1
	bne  r11, r0, inner
	addi r9, r9, -1
	bne  r9, r0, sweep
	halt
`, sweeps, DataBase>>12, elems-2)
	ages := []AgeSpan{{
		Base: DataBase, Bytes: elems * 8,
		MeanUpdates: 3, Spread: 1, ChunkLines: 1 << 30, Noise: 1, StaticFrac: 0.1,
	}}
	return src, ages
}

// buildArt models art's F1 simulation: repeated full scans of a weight
// array (reads) followed by updates to a small, hot activation region
// whose lines are rewritten every pass — a sharply bimodal counter
// distribution (static weights, deeply-aged activations).
func buildArt(s Scale, img *mem.Memory, r *rng.Xoshiro256) (string, []AgeSpan) {
	weights := s.Footprint / 8
	fillRandom(img, DataBase, weights, r)
	actBase := (uint64(DataBase) + uint64(weights)*8 + 4095) &^ 4095
	actElems := 512 // 4 KB hot region
	perPass := weights*6 + actElems*7
	passes := iters(s, perPass)
	if passes < 2 {
		passes = 2
	}
	src := fmt.Sprintf(`
	addi r9, r0, %d
pass:
	lui  r1, %d
	addi r11, r0, %d
scan:
	ld   r4, 0(r1)
	fmul r5, r4, r20
	fadd r21, r21, r5
	addi r1, r1, 8
	addi r11, r11, -1
	bne  r11, r0, scan
	lui  r2, %d
	addi r11, r0, %d
act:
	ld   r4, 0(r2)
	fadd r4, r4, r21
	sd   r4, 0(r2)
	addi r2, r2, 8
	addi r11, r11, -1
	bne  r11, r0, act
	addi r9, r9, -1
	bne  r9, r0, pass
	halt
`, passes, DataBase>>12, weights, actBase>>12, actElems)
	ages := []AgeSpan{{
		Base: actBase, Bytes: actElems * 8,
		MeanUpdates: 8, Spread: 1, ChunkLines: 1 << 30, Noise: 1,
	}}
	return src, ages
}

// buildBzip2 models bzip2's block sorting: the sorter works one block at
// a time, performing many random in-place swaps inside the current block
// before moving on. Block lines are rewritten in bursts, and the whole
// buffer arrives deeply and unevenly aged from earlier blocks — the
// adversarial case motivating adaptive resets and the optimized
// predictors.
func buildBzip2(s Scale, img *mem.Memory, r *rng.Xoshiro256) (string, []AgeSpan) {
	slots := pow2AtMost(s.Footprint / 8)
	fillRandom(img, DataBase, slots, r)
	blockSlots := 2048 // 16 KB working block
	if blockSlots > slots {
		blockSlots = slots
	}
	const swapsPerBlock = 1500
	blocks := iters(s, 19*swapsPerBlock)
	if blocks < 1 {
		blocks = 1
	}
	src := fmt.Sprintf(`
	lui  r1, %d           # buffer base
	addi r10, r0, %d      # rng seed
	addi r9, r0, %d       # blocks to sort
	addi r13, r0, 0       # current block base offset (slots)
block:
	addi r11, r0, %d      # swaps within this block
swap:
%s	andi r3, r10, %d
	add  r3, r3, r13
	slli r3, r3, 3
	add  r4, r1, r3
	srli r5, r10, 24
	andi r5, r5, %d
	slli r5, r5, 3
	add  r6, r1, r5
	ld   r7, 0(r4)
	ld   r8, 0(r6)
	sd   r8, 0(r4)
	sd   r7, 0(r6)
	addi r11, r11, -1
	bne  r11, r0, swap
	addi r13, r13, %d     # advance to the next block
	andi r13, r13, %d
	addi r9, r9, -1
	bne  r9, r0, block
	halt
`, DataBase>>12, 88172645463325252%1000000007, blocks, swapsPerBlock,
		xorshift(2), blockSlots-1, slots-1, blockSlots, slots-1)
	ages := []AgeSpan{{
		Base: DataBase, Bytes: slots * 8,
		MeanUpdates: 5, Spread: 2, ChunkLines: 512, Noise: 1, StaticFrac: 0.05,
	}}
	return src, ages
}

// buildGzip models gzip's deflate pipeline as it really phases: read a
// batch of input, then emit a batch into the sliding window, repeating.
// Misses therefore arrive in same-region runs — the temporal coherence
// the Latest Offset Register exploits — and the window arrives aged from
// earlier files while the input stream stays static.
func buildGzip(s Scale, img *mem.Memory, r *rng.Xoshiro256) (string, []AgeSpan) {
	inElems := s.Footprint / 8
	fillRandom(img, DataBase, inElems, r)
	winBase := (uint64(DataBase) + uint64(inElems)*8 + 4095) &^ 4095
	// The window is a quarter of the footprint (up to 256 KB): large
	// enough that window lines cycle through the L2 between rewrites.
	winBytes := 256 << 10
	if s.Footprint/4 < winBytes {
		winBytes = pow2AtMost(s.Footprint / 4)
	}
	winMask := winBytes - 1
	inMask := pow2AtMost(inElems)*8 - 1
	const batch = 1024 // 8 KB per phase
	batches := iters(s, batch*5+batch*6)
	if batches < 1 {
		batches = 1
	}
	src := fmt.Sprintf(`
	lui  r1, %d           # input
	lui  r2, %d           # window
	addi r3, r0, 0        # window offset
	addi r12, r0, 0       # input offset
	addi r9, r0, %d       # batches
phase:
	addi r11, r0, %d      # read batch
rd:
	add  r4, r1, r12
	ld   r5, 0(r4)
	add  r20, r20, r5
	addi r12, r12, 8
	andi r12, r12, %d
	addi r11, r11, -1
	bne  r11, r0, rd
	addi r11, r0, %d      # emit batch
wr:
	add  r7, r2, r3
	xor  r6, r20, r3
	sd   r6, 0(r7)
	addi r3, r3, 8
	andi r3, r3, %d
	addi r11, r11, -1
	bne  r11, r0, wr
	addi r9, r9, -1
	bne  r9, r0, phase
	halt
`, DataBase>>12, winBase>>12, batches, batch, inMask, batch, winMask)
	ages := []AgeSpan{{
		Base: winBase, Bytes: winBytes,
		MeanUpdates: 10, Spread: 2, ChunkLines: 1 << 30, Noise: 1,
	}}
	return src, ages
}

// buildGcc models gcc's irregular heap traffic with the pocket locality
// real compilers show: most references hit a small working pocket (the
// current function's IR) that drifts across a large hot region, with a
// minority scattering over a cold heap.
func buildGcc(s Scale, img *mem.Memory, r *rng.Xoshiro256) (string, []AgeSpan) {
	cold := pow2AtMost(s.Footprint / 8)
	fillRandom(img, DataBase, cold, r)
	hotBase := (uint64(DataBase) + uint64(cold)*8 + 4095) &^ 4095
	hotSlots := pow2AtMost(s.Footprint / 64) // hot region = footprint/8 bytes
	if hotSlots < 1024 {
		hotSlots = 1024
	}
	pocketSlots := 512 // 4 KB pocket
	const refsPerPocket = 400
	pockets := iters(s, refsPerPocket*21)
	if pockets < 1 {
		pockets = 1
	}
	src := fmt.Sprintf(`
	lui  r1, %d           # cold
	lui  r2, %d           # hot
	addi r10, r0, 424242
	addi r13, r0, 0       # pocket base offset (slots)
	addi r9, r0, %d       # pockets
pocket:
	addi r14, r0, %d      # refs in this pocket
ref:
%s	andi r3, r10, 7
	beq  r3, r0, coldref  # 1/8 of refs go cold
	srli r4, r10, 8
	andi r4, r4, %d
	add  r4, r4, r13
	slli r4, r4, 3
	add  r5, r2, r4
	ld   r6, 0(r5)
	addi r6, r6, 1
	sd   r6, 0(r5)
	beq  r0, r0, next
coldref:
	srli r4, r10, 8
	andi r4, r4, %d
	slli r4, r4, 3
	add  r5, r1, r4
	ld   r6, 0(r5)
	add  r20, r20, r6
next:
	addi r14, r14, -1
	bne  r14, r0, ref
	addi r13, r13, %d     # drift to the next pocket
	andi r13, r13, %d
	addi r9, r9, -1
	bne  r9, r0, pocket
	halt
`, DataBase>>12, hotBase>>12, pockets, refsPerPocket,
		xorshift(4), pocketSlots-1, cold-1, pocketSlots, hotSlots-1)
	ages := []AgeSpan{{
		Base: hotBase, Bytes: hotSlots * 8,
		MeanUpdates: 4, Spread: 2, ChunkLines: 128, Noise: 1, StaticFrac: 0.1,
	}}
	return src, ages
}

// buildParser models parser's dictionary walk: data-dependent bit-walks
// down an implicit tree stored in a moderate array, with occasional
// insertions (writes) along the path.
func buildParser(s Scale, img *mem.Memory, r *rng.Xoshiro256) (string, []AgeSpan) {
	slots := pow2AtMost(s.Footprint / 8)
	fillRandom(img, DataBase, slots, r)
	n := iters(s, 40)
	src := fmt.Sprintf(`
	lui  r1, %d
	addi r10, r0, 31337
	addi r9, r0, %d
loop:
%s	addi r4, r0, 1        # idx = 1
	addi r11, r0, 12      # depth
walk:
	slli r4, r4, 1
	andi r5, r10, 1
	add  r4, r4, r5
	srli r10, r10, 1
	andi r6, r4, %d
	slli r7, r6, 3
	add  r7, r1, r7
	ld   r8, 0(r7)
	add  r20, r20, r8
	addi r11, r11, -1
	bne  r11, r0, walk
	andi r5, r8, 15
	bne  r5, r0, skipins  # 1/16 walks insert
	sd   r20, 0(r7)
skipins:
	addi r9, r9, -1
	bne  r9, r0, loop
	halt
`, DataBase>>12, n, xorshift(3), slots-1)
	ages := []AgeSpan{{
		Base: DataBase, Bytes: slots * 8,
		MeanUpdates: 3, Spread: 3, ChunkLines: 128, Noise: 2, StaticFrac: 0.5,
	}}
	return src, ages
}

// buildTwolf models twolf's simulated-annealing placement with the
// neighborhood locality of real annealers: candidate cells are drawn from
// a window that drifts across the placement array, swapping when the
// "cost" improves. Rewrites scatter within the neighborhood while the
// neighborhood's update history stays coherent.
func buildTwolf(s Scale, img *mem.Memory, r *rng.Xoshiro256) (string, []AgeSpan) {
	slots := pow2AtMost(minInt(s.Footprint, 512<<10) / 8)
	fillRandom(img, DataBase, slots, r)
	hoodSlots := 2048 // 16 KB neighborhood
	if hoodSlots > slots {
		hoodSlots = slots
	}
	const movesPerHood = 600
	hoods := iters(s, movesPerHood*24)
	if hoods < 1 {
		hoods = 1
	}
	src := fmt.Sprintf(`
	lui  r1, %d
	addi r10, r0, 991
	addi r13, r0, 0       # neighborhood base (slots)
	addi r9, r0, %d       # neighborhoods
hood:
	addi r14, r0, %d      # moves in this neighborhood
move:
%s	andi r3, r10, %d
	add  r3, r3, r13
	slli r3, r3, 3
	add  r4, r1, r3
	srli r5, r10, 16
	andi r5, r5, %d
	add  r5, r5, r13
	slli r5, r5, 3
	add  r6, r1, r5
	ld   r7, 0(r4)
	ld   r8, 0(r6)
	sub  r11, r7, r8
	slt  r12, r11, r0
	beq  r12, r0, skip    # swap only when "cost" improves
	sd   r8, 0(r4)
	sd   r7, 0(r6)
skip:
	addi r14, r14, -1
	bne  r14, r0, move
	addi r13, r13, %d     # drift the neighborhood
	andi r13, r13, %d
	addi r9, r9, -1
	bne  r9, r0, hood
	halt
`, DataBase>>12, hoods, movesPerHood, xorshift(3),
		hoodSlots-1, hoodSlots-1, hoodSlots/2, slots-1)
	ages := []AgeSpan{{
		Base: DataBase, Bytes: slots * 8,
		MeanUpdates: 4, Spread: 2, ChunkLines: 256, Noise: 1, StaticFrac: 0.1,
	}}
	return src, ages
}

// buildVortex models vortex's object database: hashed bucket lookups
// followed by short chain walks, over a large read-mostly heap with rare
// updates to object headers.
func buildVortex(s Scale, img *mem.Memory, r *rng.Xoshiro256) (string, []AgeSpan) {
	// Objects: 32 B each; buckets hold object addresses; each object's
	// first word points to the next object in its chain (or 0).
	objects := s.Footprint / 32
	if objects < 16 {
		objects = 16
	}
	buckets := pow2AtMost(objects / 4)
	bucketBase := uint64(DataBase)
	objBase := (bucketBase + uint64(buckets)*8 + 4095) &^ 4095
	objAddr := func(i int) uint64 { return objBase + uint64(i)*32 }
	heads := make([]uint64, buckets)
	for i := 0; i < objects; i++ {
		b := r.Intn(buckets)
		img.StoreWords(objAddr(i), heads[b], uint64(i))
		heads[b] = objAddr(i)
	}
	for b := 0; b < buckets; b += lineWords {
		img.StoreWords(bucketBase+uint64(b)*8, heads[b:min(b+lineWords, buckets)]...)
	}
	n := iters(s, 30)
	src := fmt.Sprintf(`
	lui  r1, %d           # buckets
	addi r10, r0, 777777
	addi r9, r0, %d
loop:
%s	andi r3, r10, %d
	slli r3, r3, 3
	add  r4, r1, r3
	ld   r5, 0(r4)        # chain head
	addi r11, r0, 3       # walk up to 3 links
walk:
	beq  r5, r0, done
	ld   r6, 8(r5)
	add  r20, r20, r6
	ld   r5, 0(r5)
	addi r11, r11, -1
	bne  r11, r0, walk
done:
	addi r9, r9, -1
	bne  r9, r0, loop
	halt
`, DataBase>>12, n, xorshift(3), buckets-1)
	ages := []AgeSpan{{
		Base: objBase, Bytes: objects * 32,
		MeanUpdates: 2, Spread: 2, ChunkLines: 128, Noise: 1, StaticFrac: 0.8,
	}}
	return src, ages
}

// buildVpr models vpr's routing: a random walk over a grid graph with
// per-node adjacency stored inline, updating a congestion weight on a
// fraction of visited nodes.
func buildVpr(s Scale, img *mem.Memory, r *rng.Xoshiro256) (string, []AgeSpan) {
	nodes := pow2AtMost(s.Footprint / 32)
	addr := func(i int) uint64 { return DataBase + uint64(i)*32 }
	var node [lineWords]uint64 // three neighbours, then the weight
	for i := 0; i < nodes; i++ {
		for k := 0; k < 3; k++ {
			node[k] = addr(r.Intn(nodes))
		}
		node[3] = uint64(r.Intn(100))
		img.StoreWords(addr(i), node[:]...)
	}
	n := iters(s, 13)
	src := fmt.Sprintf(`
	lui  r1, %d           # current node
	addi r10, r0, 5150
	addi r9, r0, %d
loop:
%s	andi r3, r10, 1
	slli r3, r3, 3        # choose neighbor slot 0 or 1
	add  r4, r1, r3
	ld   r1, 0(r4)        # follow edge
	ld   r5, 24(r1)
	andi r6, r10, 7
	bne  r6, r0, skip     # 1/8 visits update congestion
	addi r5, r5, 1
	sd   r5, 24(r1)
skip:
	addi r9, r9, -1
	bne  r9, r0, loop
	halt
`, DataBase>>12, n, xorshift(2))
	ages := []AgeSpan{{
		Base: DataBase, Bytes: nodes * 32,
		MeanUpdates: 5, Spread: 2, ChunkLines: 256, Noise: 1, StaticFrac: 0.4,
	}}
	return src, ages
}

// buildAmmp models ammp's non-bonded force loop: for each atom, gather a
// few neighbors through an index list, accumulate, and write the atom's
// force once — many reads per write, mostly-static data with a lightly
// aged force array.
func buildAmmp(s Scale, img *mem.Memory, r *rng.Xoshiro256) (string, []AgeSpan) {
	atoms := pow2AtMost(s.Footprint / 48) // pos 8B + 4 nbr idx + force 8B
	posBase := uint64(DataBase)
	nbrBase := (posBase + uint64(atoms)*8 + 4095) &^ 4095
	frcBase := (nbrBase + uint64(atoms)*32 + 4095) &^ 4095
	fillRandom(img, posBase, atoms, r)
	var nbr [lineWords]uint64 // one atom's list fills one line
	for i := 0; i < atoms; i++ {
		for k := range nbr {
			nbr[k] = posBase + uint64(r.Intn(atoms))*8
		}
		img.StoreWords(nbrBase+uint64(i)*32, nbr[:]...)
	}
	perAtom := 4*3 + 6
	passes := iters(s, atoms*perAtom)
	if passes < 1 {
		passes = 1
	}
	src := fmt.Sprintf(`
	addi r9, r0, %d
pass:
	lui  r1, %d           # nbr list cursor
	lui  r2, %d           # force cursor
	addi r11, r0, %d      # atoms
atom:
	addi r20, r0, 0
	addi r12, r0, 4
nbr:
	ld   r3, 0(r1)        # neighbor pos address
	ld   r4, 0(r3)        # gather
	fadd r20, r20, r4
	addi r1, r1, 8
	addi r12, r12, -1
	bne  r12, r0, nbr
	sd   r20, 0(r2)
	addi r2, r2, 8
	addi r11, r11, -1
	bne  r11, r0, atom
	addi r9, r9, -1
	bne  r9, r0, pass
	halt
`, passes, nbrBase>>12, frcBase>>12, atoms)
	ages := []AgeSpan{{
		Base: frcBase, Bytes: atoms * 8,
		MeanUpdates: 2, Spread: 2, ChunkLines: 128, Noise: 1, StaticFrac: 0.3,
	}}
	return src, ages
}

// buildWupwise models wupwise's dense linear algebra: unrolled streaming
// multiply-accumulate over two source arrays into a destination, with the
// output fed back as an input on the next pass (as iterative solvers do),
// so all three arrays accumulate coherent update histories.
func buildWupwise(s Scale, img *mem.Memory, r *rng.Xoshiro256) (string, []AgeSpan) {
	elems := s.Footprint / 3 / 8 &^ 3
	if elems < 8 {
		elems = 8
	}
	aBase := uint64(DataBase)
	bBase := (aBase + uint64(elems)*8 + 4095) &^ 4095
	cBase := (bBase + uint64(elems)*8 + 4095) &^ 4095
	fillRandom(img, aBase, elems, r)
	fillRandom(img, bBase, elems, r)
	perPass := elems / 2 * 13
	passes := iters(s, perPass)
	if passes < 1 {
		passes = 1
	}
	src := fmt.Sprintf(`
	addi r9, r0, %d
	lui  r15, %d          # A
	lui  r16, %d          # B
	lui  r17, %d          # C
pass:
	add  r1, r15, r0
	add  r2, r16, r0
	add  r3, r17, r0
	addi r11, r0, %d      # elems/2 (unroll 2)
inner:
	ld   r4, 0(r1)
	ld   r5, 0(r2)
	fmul r6, r4, r5
	ld   r7, 8(r1)
	ld   r8, 8(r2)
	fmul r12, r7, r8
	fadd r6, r6, r12
	sd   r6, 0(r3)
	sd   r6, 8(r3)
	addi r1, r1, 16
	addi r2, r2, 16
	addi r3, r3, 16
	addi r11, r11, -1
	bne  r11, r0, inner
	add  r18, r15, r0     # rotate C into the inputs
	add  r15, r17, r0
	add  r17, r16, r0
	add  r16, r18, r0
	addi r9, r9, -1
	bne  r9, r0, pass
	halt
`, passes, aBase>>12, bBase>>12, cBase>>12, elems/2)
	ages := []AgeSpan{
		{Base: aBase, Bytes: elems * 8, MeanUpdates: 3, Spread: 1, ChunkLines: 1 << 30, Noise: 1},
		{Base: bBase, Bytes: elems * 8, MeanUpdates: 3, Spread: 1, ChunkLines: 1 << 30, Noise: 1},
		{Base: cBase, Bytes: elems * 8, MeanUpdates: 4, Spread: 1, ChunkLines: 1 << 30, Noise: 1},
	}
	return src, ages
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
