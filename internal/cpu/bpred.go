package cpu

// gshare is a global-history branch direction predictor with 2-bit
// saturating counters, plus a small last-target table for indirect jumps.
type gshare struct {
	history  uint64
	counters [1 << gshareBits]uint8 // 2-bit saturating, initialized weakly not-taken

	targets map[uint64]uint64 // jalr last-target BTB
}

func newGshare() *gshare {
	g := &gshare{targets: make(map[uint64]uint64)}
	for i := range g.counters {
		g.counters[i] = 1 // weakly not-taken
	}
	return g
}

func (g *gshare) index(pc uint64) int {
	return int((pc>>3 ^ g.history) & (1<<gshareBits - 1))
}

// predictDirection returns the predicted taken/not-taken for pc.
func (g *gshare) predictDirection(pc uint64) bool {
	return g.counters[g.index(pc)] >= 2
}

// updateDirection trains the predictor with the actual outcome.
func (g *gshare) updateDirection(pc uint64, taken bool) {
	i := g.index(pc)
	if taken {
		if g.counters[i] < 3 {
			g.counters[i]++
		}
	} else {
		if g.counters[i] > 0 {
			g.counters[i]--
		}
	}
	g.history = g.history<<1 | b2u(taken)
}

// predictTarget returns the predicted target of an indirect jump at pc
// and whether a prediction exists.
func (g *gshare) predictTarget(pc uint64) (uint64, bool) {
	t, ok := g.targets[pc]
	return t, ok
}

// updateTarget trains the indirect-target table.
func (g *gshare) updateTarget(pc, target uint64) {
	g.targets[pc] = target
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// lvp is a last-value load-value predictor with 2-bit confidence — the
// classic Lipasti/Wilkerson/Shen mechanism the paper's Section 9.3
// contrasts OTP prediction against. A confident correct prediction lets
// dependents proceed at ALU speed while the memory access verifies in the
// background; a confident wrong prediction costs a squash.
type lvp struct {
	mask   uint64
	values []uint64
	conf   []uint8

	hits, misses uint64
}

func newLVP(entries int) *lvp {
	if entries <= 0 {
		return nil
	}
	n := 1
	for n < entries {
		n <<= 1
	}
	return &lvp{mask: uint64(n - 1), values: make([]uint64, n), conf: make([]uint8, n)}
}

func (l *lvp) index(pc uint64) uint64 { return (pc >> 3) & l.mask }

// predict returns the predicted value and whether the entry is confident
// enough to speculate on.
func (l *lvp) predict(pc uint64) (uint64, bool) {
	i := l.index(pc)
	return l.values[i], l.conf[i] >= 2
}

// train records the actual loaded value and whether a confident
// prediction was made, returning (speculated, correct).
func (l *lvp) train(pc uint64, actual uint64) (speculated, correct bool) {
	i := l.index(pc)
	pred, confident := l.values[i], l.conf[i] >= 2
	if pred == actual {
		if l.conf[i] < 3 {
			l.conf[i]++
		}
	} else {
		if l.conf[i] > 0 {
			l.conf[i]--
		}
		l.values[i] = actual
	}
	if confident {
		if pred == actual {
			l.hits++
			return true, true
		}
		l.misses++
		return true, false
	}
	return false, false
}
