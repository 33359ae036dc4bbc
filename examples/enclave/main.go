// Enclave: a close-up of the security machinery. Builds a machine by
// hand, runs a program whose code and data live in encrypted RAM, and
// then plays the adversary: reads the off-chip ciphertext directly,
// watches a frequently rewritten line's counter advance (and its
// ciphertext change) across writebacks, and confirms pads are never
// reused.
package main

import (
	"fmt"
	"log"

	"ctrpred"
)

func main() {
	cfg := ctrpred.DefaultConfig(ctrpred.SchemePred(ctrpred.PredRegular))
	cfg.Scale = ctrpred.Scale{Footprint: 256 << 10, Instructions: 100_000}
	// A small L2 forces real evictions, so lines round-trip through
	// encrypted RAM many times.
	cfg.Mem.L2Size = 16 << 10

	m, err := ctrpred.NewMachine("gzip", cfg)
	if err != nil {
		log.Fatal(err)
	}

	// Plant a recognizable secret in gzip's (read-only) input stream, and
	// pick a line in its sliding window — the region the kernel rewrites
	// constantly.
	const secretAddr = 0x100040           // input region: value must survive
	const windowAddr = 0x100000 + 0x40040 // window region: counter must churn
	m.Image.Store(secretAddr, 8, 0xdeadbeefcafef00d)

	winSeq0 := m.Ctrl.Seq(windowAddr)
	winEnc0 := m.Ctrl.EncryptedLine(windowAddr)
	fmt.Printf("window line before: counter offset %d from page root\n",
		winSeq0-m.Pred.Root(windowAddr))
	fmt.Printf("window ciphertext : %x...\n", winEnc0[:16])
	secretEnc := m.Ctrl.EncryptedLine(secretAddr)
	fmt.Printf("secret ciphertext : %x...  (plaintext %#x)\n\n",
		secretEnc[:16], uint64(0xdeadbeefcafef00d))

	res := m.Run()

	fmt.Printf("ran %d instructions; %d encrypted fetches, %d writebacks\n",
		res.CPU.Instructions, res.Ctrl.Fetches, res.Ctrl.Evictions)
	fmt.Printf("root resets: %d, counter re-bases: %d\n\n", res.Pred.Resets, res.Pred.Rebases)

	// The secret is intact inside the boundary…
	if got := m.Image.Load(secretAddr, 8); got != 0xdeadbeefcafef00d {
		log.Fatalf("secret corrupted: %#x", got)
	}
	fmt.Printf("secret readable inside the boundary: %#x\n", m.Image.Load(secretAddr, 8))

	// …while the adversary's view of the churned window line changed with
	// every writeback.
	winSeq1 := m.Ctrl.Seq(windowAddr)
	winEnc1 := m.Ctrl.EncryptedLine(windowAddr)
	fmt.Printf("window line after : counter moved %d times\n", seqDelta(winSeq0, winSeq1))
	fmt.Printf("window ciphertext : %x...\n", winEnc1[:16])
	if winSeq1 == winSeq0 {
		log.Fatal("window line was never written back — demo misconfigured")
	}
	if winEnc1 == winEnc0 {
		log.Fatal("counter advanced but ciphertext unchanged — pad reuse!")
	}

	// The self-check tracked every (address, counter) pair used for
	// encryption across the whole run.
	fmt.Printf("\none-time-pad reuse across %d encryptions: %d (must be 0)\n",
		res.Ctrl.Evictions, res.PadViolations)
	if res.PadViolations != 0 {
		log.Fatal("pad reuse detected")
	}
	fmt.Println("counter-mode invariant held: every writeback used a fresh pad")
}

// seqDelta reports how far the counter moved, tolerating re-bases onto a
// fresh random root (which make the raw difference meaningless).
func seqDelta(before, after uint64) uint64 {
	d := after - before
	if d > 1<<32 {
		return 1 // re-based at least once
	}
	return d
}
