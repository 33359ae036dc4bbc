package cryptoengine

// BipBip models a very-low-latency tweakable block cipher decrypting on
// fetch (BipBipCache): every demand or writeback request completes a
// fixed handful of cycles after it arrives, with no shared pipeline to
// contend for. Speculative pad requests are accepted for accounting but
// occupy nothing and complete instantly with the rest — when decryption
// costs almost nothing, precomputing pads buys almost nothing, which is
// the null hypothesis the `engines` experiment tests prediction against.
type BipBip struct {
	base
}

var _ EngineModel = (*BipBip)(nil)

// NewBipBip builds a bipbip model from spec's timing (zero fields take
// the model's defaults).
func NewBipBip(spec Spec) *BipBip {
	return &BipBip{base: newBase(ModelBipBip, spec)}
}

// ScheduleOnly books one request; with no contention it starts at now
// and is ready a fixed LatencyCycles later.
func (b *BipBip) ScheduleOnly(now uint64, class Class) uint64 {
	return b.book(class, now, now)
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
