package cryptoengine

// Sealer models a banked, non-pipelined cipher engine in the style of
// in-SRAM AES macros (Sealer): each bank seals or unseals one line at a
// time with a high per-request latency, and throughput comes from bank
// parallelism rather than pipelining. A request is dispatched to the
// bank that frees earliest; the bank is then busy for the full latency,
// so sustained throughput is Banks/LatencyCycles requests per cycle —
// wide but coarse, where the paper's AES pipe is narrow but fine.
//
// Under light load Sealer's higher fixed latency makes counter
// prediction *more* valuable than under the AES pipe; under prediction
// bursts its banks saturate sooner, which is exactly the trade the
// `engines` experiment measures.
type Sealer struct {
	base
	// bankFree[i] is the cycle at which bank i accepts its next request.
	bankFree []uint64
}

var _ EngineModel = (*Sealer)(nil)

// NewSealer builds a sealer model from spec's timing (zero fields take
// the model's defaults).
func NewSealer(spec Spec) *Sealer {
	s := &Sealer{base: newBase(ModelSealer, spec)}
	s.bankFree = make([]uint64, s.spec.Banks)
	return s
}

// reserveBank dispatches a request at cycle now to the earliest-free
// bank and returns the cycle work starts on it.
func (s *Sealer) reserveBank(now uint64) uint64 {
	best := 0
	for i := 1; i < len(s.bankFree); i++ {
		if s.bankFree[i] < s.bankFree[best] {
			best = i
		}
	}
	start := now
	if s.bankFree[best] > start {
		start = s.bankFree[best]
	}
	s.bankFree[best] = start + s.spec.LatencyCycles
	return start
}

// ScheduleOnly books one request and returns its ready cycle.
func (s *Sealer) ScheduleOnly(now uint64, class Class) uint64 {
	return s.book(class, now, s.reserveBank(now))
}

// ScheduleGuesses books one prediction per guess across the banks, in
// guess order, and returns the first match plus its ready cycle.
func (s *Sealer) ScheduleGuesses(now uint64, guesses []uint64, trueSeq uint64) (matchIdx int, padReady uint64) {
	matchIdx = -1
	for i, g := range guesses {
		ready := s.ScheduleOnly(now, ClassPrediction)
		if matchIdx < 0 && g == trueSeq {
			matchIdx = i
			padReady = ready
		}
	}
	return matchIdx, padReady
}
