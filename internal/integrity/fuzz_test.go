package integrity

import (
	"testing"

	"ctrpred/internal/ctr"
	"ctrpred/internal/dram"
)

// FuzzIntegrityTree drives random interleavings of leaf updates,
// verifications and interior-node corruption against a shadow model,
// checking the security contract under every ordering:
//
//   - a (line, counter, ciphertext) tuple the tree was last updated with
//     verifies, unless the line's path was corrupted since;
//   - a corrupted path is always rejected, and a fresh update of the
//     same leaf restores verifiability;
//   - a wrong counter (stale or future) or wrong ciphertext never
//     verifies;
//   - no operation sequence panics.
//
// Opcodes come in 3-byte groups: (op, line selector, argument). The four
// fuzzed lines are spaced so they share no level-1 parent — corruption
// is injected at level 1, where detection is unconditional (higher
// levels may legitimately sit above a trusted cached node).
func FuzzIntegrityTree(f *testing.F) {
	f.Add([]byte{0, 0, 1, 1, 0, 0})                                     // update then verify
	f.Add([]byte{0, 0, 1, 4, 0, 3, 1, 0, 0, 0, 0, 2, 1, 0, 0})          // corrupt, detect, heal by update, verify
	f.Add([]byte{0, 1, 7, 2, 1, 9, 3, 1, 5})                            // wrong-counter and wrong-ciphertext probes
	f.Add([]byte{0, 0, 1, 0, 1, 2, 0, 2, 3, 0, 3, 4, 4, 2, 0, 1, 2, 0}) // many lines, corrupt one
	f.Fuzz(func(t *testing.T, data []byte) {
		tree := New(DefaultConfig(), dram.New(dram.DefaultConfig()))
		type shadow struct {
			seq     uint64
			enc     ctr.Line
			written bool
			// flipped tracks the parity of each corrupted level-1 bit: a
			// second flip of the same bit restores the node, so the path is
			// clean again iff every bit has been flipped an even number of
			// times. Byte-sized args map to distinct bits, so the set is
			// exact.
			flipped map[byte]bool
		}
		corrupted := func(st *shadow) bool {
			for _, on := range st.flipped {
				if on {
					return true
				}
			}
			return false
		}
		lines := map[uint64]*shadow{}
		now := uint64(0)
		for i := 0; i+2 < len(data); i += 3 {
			op, sel, arg := data[i]%5, data[i+1]%4, data[i+2]
			la := 0x1000 + uint64(sel)*0x10000
			st := lines[la]
			if st == nil {
				st = &shadow{}
				lines[la] = st
			}
			now += 100
			switch op {
			case 0: // legitimate update with a fresh tuple
				st.seq++
				st.enc[int(arg)%ctr.LineSize] ^= arg | 1
				tree.Update(now, la, st.seq, st.enc)
				st.written = true
				st.flipped = nil
			case 1: // verify the current tuple
				if !st.written {
					continue
				}
				ok, _ := tree.Verify(now, la, st.seq, st.enc)
				if ok && corrupted(st) {
					t.Fatalf("line %#x verified over a corrupted path", la)
				}
				if !ok && !corrupted(st) {
					t.Fatalf("line %#x: current tuple rejected on a clean path", la)
				}
			case 2: // a wrong counter must never verify
				if !st.written {
					continue
				}
				if ok, _ := tree.Verify(now, la, st.seq+1+uint64(arg), st.enc); ok {
					t.Fatalf("line %#x accepted counter %d (current %d)", la, st.seq+1+uint64(arg), st.seq)
				}
			case 3: // a wrong ciphertext must never verify
				if !st.written || st.seq == 0 {
					continue
				}
				bad := st.enc
				bad[(int(arg)/8)%ctr.LineSize] ^= 1 << (arg % 8)
				if bad == st.enc {
					continue
				}
				if ok, _ := tree.Verify(now, la, st.seq, bad); ok {
					t.Fatalf("line %#x accepted tampered ciphertext", la)
				}
			case 4: // adversarial interior-node corruption at level 1
				if tree.CorruptPath(la, 1, int(arg)) {
					if st.flipped == nil {
						st.flipped = map[byte]bool{}
					}
					st.flipped[arg] = !st.flipped[arg]
				} else if st.written {
					t.Fatalf("CorruptPath refused a written line %#x", la)
				}
			}
		}
		// A stale tuple recorded before any number of updates must also be
		// rejected (replay): re-walk every line with seq-1.
		for la, st := range lines {
			if !st.written || corrupted(st) || st.seq < 2 {
				continue
			}
			if ok, _ := tree.Verify(now, la, st.seq-1, st.enc); ok {
				t.Fatalf("line %#x accepted a stale counter", la)
			}
		}
	})
}
