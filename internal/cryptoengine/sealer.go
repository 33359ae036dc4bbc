package cryptoengine

import (
	"ctrpred/internal/ctr"
	"ctrpred/internal/stats"
)

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
	spec  Spec
	ks    *ctr.Keystream
	stats Stats
	// bankFree[i] is the cycle at which bank i accepts its next request.
	bankFree []uint64
}

var _ EngineModel = (*Sealer)(nil)

// NewSealer builds a sealer model from spec's timing (zero fields take
// the model's defaults).
func NewSealer(spec Spec, ks *ctr.Keystream) *Sealer {
	spec.Model = ModelSealer
	spec = spec.Normalized()
	s := &Sealer{spec: spec, ks: ks, bankFree: make([]uint64, spec.Banks)}
	s.stats.QueueWait = stats.NewHistogram(0, 1, 2, 4, 8, 16, 32, 64, 128)
	s.stats.Model = ModelSealer
	s.stats.Banks = spec.Banks
	return s
}

// Spec returns the normalized spec the model was built from.
func (s *Sealer) Spec() Spec { return s.spec }

// Stats returns a copy of the accumulated statistics.
func (s *Sealer) Stats() Stats { return s.stats }

// Keystream exposes the machine's keystream.
func (s *Sealer) Keystream() *ctr.Keystream { return s.ks }

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
	s.stats.QueueWait.Observe(start - now)
	return start
}

// ScheduleOnly books one request and returns its ready cycle.
func (s *Sealer) ScheduleOnly(now uint64, class Class) uint64 {
	start := s.reserveBank(now)
	s.stats.Issued[class]++
	if start > now {
		s.stats.StallCycles += start - now
	}
	ready := start + s.spec.LatencyCycles
	if ready > s.stats.LastBusy {
		s.stats.LastBusy = ready
	}
	return ready
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
