package cryptoengine

import (
	"ctrpred/internal/ctr"
	"ctrpred/internal/stats"
)

// BipBip models a very-low-latency tweakable block cipher decrypting on
// fetch (BipBipCache): every demand or writeback request completes a
// fixed handful of cycles after it arrives, with no shared pipeline to
// contend for. Speculative pad requests are accepted for accounting but
// occupy nothing and complete instantly with the rest — when decryption
// costs almost nothing, precomputing pads buys almost nothing, which is
// the null hypothesis the `engines` experiment tests prediction against.
type BipBip struct {
	spec  Spec
	ks    *ctr.Keystream
	stats Stats
}

var _ EngineModel = (*BipBip)(nil)

// NewBipBip builds a bipbip model from a (normalized) spec.
func NewBipBip(spec Spec, ks *ctr.Keystream) *BipBip {
	spec = spec.Normalized()
	spec.Model = ModelBipBip
	b := &BipBip{spec: spec, ks: ks}
	b.stats.QueueWait = stats.NewHistogram(0, 1, 2, 4, 8, 16, 32, 64, 128)
	b.stats.Model = ModelBipBip
	return b
}

// Spec returns the normalized spec the model was built from.
func (b *BipBip) Spec() Spec { return b.spec }

// Stats returns a copy of the accumulated statistics.
func (b *BipBip) Stats() Stats { return b.stats }

// Keystream exposes the machine's keystream.
func (b *BipBip) Keystream() *ctr.Keystream { return b.ks }

// ScheduleOnly books one request; with no contention it is ready a
// fixed LatencyCycles after now.
func (b *BipBip) ScheduleOnly(now uint64, class Class) uint64 {
	b.stats.Issued[class]++
	b.stats.QueueWait.Observe(0)
	ready := now + b.spec.LatencyCycles
	if ready > b.stats.LastBusy {
		b.stats.LastBusy = ready
	}
	return ready
}

// ScheduleGuesses accepts the speculative burst but treats it as free:
// the guesses are counted (Issued, Bypassed) yet occupy no unit, and a
// match is ready after the fixed latency just like a demand request.
func (b *BipBip) ScheduleGuesses(now uint64, guesses []uint64, trueSeq uint64) (matchIdx int, padReady uint64) {
	matchIdx = -1
	n := uint64(len(guesses))
	if n == 0 {
		return -1, 0
	}
	b.stats.Issued[ClassPrediction] += n
	b.stats.Bypassed += n
	b.stats.QueueWait.ObserveRange(0, n)
	ready := now + b.spec.LatencyCycles
	if ready > b.stats.LastBusy {
		b.stats.LastBusy = ready
	}
	for i, g := range guesses {
		if g == trueSeq {
			return i, ready
		}
	}
	return -1, 0
}
