// Package cryptoengine models the timing of the secure processor's pad
// engine. The paper fixes one engine, the fully pipelined AES of Section
// 5.2 and Table 1: a new pad request can enter the pipeline every cycle,
// and each request emerges Latency cycles later (96 ns for unrolled
// AES-256 with 6 stages per round at 1 ns/stage).
//
// The engine is shared by three request classes, exactly as in the paper:
// speculative pad precomputation (predictions), demand pad generation
// (after the real sequence number arrives), and writeback encryption of
// evicted dirty lines. Because predictions consume pipeline slots, an
// over-aggressive predictor can delay demand traffic — the effect the
// paper cites as the reason prediction depth cannot simply be increased.
//
// The question the paper's Figure 7 begs is how much of prediction's win
// survives a different engine, so a Spec names one of three models. One
// Engine runs them all as a pool of units: each unit starts up to width
// requests in one cycle and is then busy for hold cycles, and a request
// takes the earliest-free unit and is ready LatencyCycles after it
// starts. The models are three settings of that pool:
//
//   - aes: the paper's pipeline (the default) — one unit, width
//     IssuePerCycle, hold 1.
//   - sealer: banked, non-pipelined wide units in the style of in-SRAM
//     AES macros — Banks units, width 1, hold LatencyCycles. A high
//     per-request latency makes prediction worth more under light load,
//     and prediction bursts saturate the banks sooner.
//   - bipbip: a low-latency tweakable block cipher decrypting on fetch —
//     no units, so nothing waits and speculative pads buy almost nothing.
//
// The engine models timing only. The controller draws the pad bits it
// books requests for from its own ctr.Keystream, so the simulator still
// decrypts real ciphertext with real pads under every model, and results
// differ only in timing.
package cryptoengine

import "ctrpred/internal/stats"

// Class labels the purpose of a pad request, for accounting.
type Class int

const (
	// ClassPrediction is a speculative pad for a guessed sequence number.
	ClassPrediction Class = iota
	// ClassDemand is a pad computed after the true sequence number arrived.
	ClassDemand
	// ClassWriteback is a pad for encrypting an evicted dirty line.
	ClassWriteback
	numClasses
)

func (c Class) String() string {
	switch c {
	case ClassPrediction:
		return "prediction"
	case ClassDemand:
		return "demand"
	case ClassWriteback:
		return "writeback"
	}
	return "unknown"
}

// Stats aggregates engine activity.
type Stats struct {
	Issued      [numClasses]uint64 // requests issued per class
	StallCycles uint64             // cycles requests waited for an issue slot
	LastBusy    uint64             // last cycle at which the engine had work
	// QueueWait is the distribution of cycles each request waited for an
	// issue slot — the observable face of engine occupancy: a busy
	// engine (e.g. under an over-aggressive predictor) shows up as a
	// heavy tail.
	QueueWait *stats.Histogram
	// Model is the engine model that produced these stats ("" and "aes"
	// both mean the default pipelined AES).
	Model string
	// Banks is the sealer's bank count (0 for other models).
	Banks int
}

// IssuedTotal returns the total number of issued requests.
func (s *Stats) IssuedTotal() uint64 {
	var t uint64
	for _, v := range s.Issued {
		t += v
	}
	return t
}

// AddTo registers the engine's statistics into a metrics snapshot node.
// The default AES model emits exactly the historical counter set, so
// golden fixtures recorded before engine models existed stay
// byte-identical; non-default models add their identifying counters.
func (s *Stats) AddTo(n *stats.Snapshot) {
	for c := Class(0); c < numClasses; c++ {
		n.Counter("issued_"+c.String(), s.Issued[c])
	}
	n.Counter("issued_total", s.IssuedTotal())
	n.Counter("stall_cycles", s.StallCycles)
	n.Counter("last_busy", s.LastBusy)
	n.Histogram("queue_wait", s.QueueWait)
	if s.Model != "" && s.Model != ModelAES {
		n.Label("model", s.Model)
		if s.Banks > 0 {
			n.Counter("banks", uint64(s.Banks))
		}
		if s.Model == ModelBipBip {
			// bipbip has no units, so every guess bypasses them.
			n.Counter("bypassed", s.Issued[ClassPrediction])
		}
	}
}

// unit is one issue resource of the engine's pool.
type unit struct {
	free    uint64 // earliest cycle a request may start on the unit
	started int    // requests already started at cycle free
}

// Engine is the pad engine a Spec names: a pool of units, each starting
// up to width requests in a cycle and then busy for hold cycles. One
// request is both 16-byte pads of a line, i.e. the paper's dual-AES
// arrangement in Figure 3.
type Engine struct {
	spec  Spec
	stats Stats
	units []unit
	width int
	hold  uint64
}

// New builds the engine spec names (zero fields take the model's
// defaults, Table 1's for aes). Unknown model names return an error
// wrapping ErrUnknownEngine.
func New(spec Spec) (*Engine, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	spec = spec.Normalized()
	e := &Engine{spec: spec, width: 1, hold: 1}
	switch spec.Model {
	case ModelAES:
		e.units, e.width = make([]unit, 1), spec.IssuePerCycle
	case ModelSealer:
		e.units, e.hold = make([]unit, spec.Banks), spec.LatencyCycles
	case ModelBipBip:
		// No units: every request starts the cycle it arrives.
	}
	e.stats = Stats{
		QueueWait: stats.NewHistogram(0, 1, 2, 4, 8, 16, 32, 64, 128),
		Model:     spec.Model,
		Banks:     spec.Banks,
	}
	return e, nil
}

// Spec returns the normalized spec the engine was built from.
func (e *Engine) Spec() Spec { return e.spec }

// Stats returns a copy of the accumulated statistics.
func (e *Engine) Stats() Stats { return e.stats }

// start reserves an issue slot for a request arriving at cycle now and
// returns the cycle it starts. The request takes the earliest-free unit
// (the lowest index on ties) and starts at now or when that unit frees,
// whichever is later. With no units it starts at now.
func (e *Engine) start(now uint64) uint64 {
	if len(e.units) == 0 {
		return now
	}
	u := &e.units[0]
	for i := 1; i < len(e.units); i++ {
		if e.units[i].free < u.free {
			u = &e.units[i]
		}
	}
	if now > u.free {
		u.free, u.started = now, 0
	}
	start := u.free
	u.started++
	if u.started >= e.width {
		u.free, u.started = start+e.hold, 0
	}
	return start
}

// ScheduleOnly books one request of class arriving at cycle now and
// returns the cycle it is ready. A request that finds no free slot
// slips to a later cycle (recorded as stall time).
func (e *Engine) ScheduleOnly(now uint64, class Class) uint64 {
	start := e.start(now)
	e.stats.Issued[class]++
	e.stats.StallCycles += start - now
	e.stats.QueueWait.Observe(start - now)
	ready := start + e.spec.LatencyCycles
	e.stats.LastBusy = max(e.stats.LastBusy, ready)
	return ready
}

// ScheduleGuesses books one prediction-class request per guess — the
// speculative burst a counter-prediction miss issues — and returns the
// index of the first guess equal to trueSeq (-1 if none) plus the cycle
// at which that guess's pad is ready (0 if none). Accounting (Issued,
// StallCycles, LastBusy, QueueWait) is that of one ScheduleOnly per
// guess, in guess order.
func (e *Engine) ScheduleGuesses(now uint64, guesses []uint64, trueSeq uint64) (matchIdx int, padReady uint64) {
	if len(e.units) == 1 && e.width == 1 && e.hold == 1 && len(guesses) > 0 {
		return e.burst(now, guesses, trueSeq)
	}
	matchIdx = -1
	for i, g := range guesses {
		ready := e.ScheduleOnly(now, ClassPrediction)
		if matchIdx < 0 && g == trueSeq {
			matchIdx, padReady = i, ready
		}
	}
	return matchIdx, padReady
}

// burst is ScheduleGuesses on a single-issue pipeline, which takes the
// burst on consecutive cycles: the i-th guess waits one cycle longer
// than its predecessor, so the whole burst books with a few arithmetic
// updates instead of one reservation per guess.
func (e *Engine) burst(now uint64, guesses []uint64, trueSeq uint64) (matchIdx int, padReady uint64) {
	u := &e.units[0]
	start := max(now, u.free)
	n, wait := uint64(len(guesses)), start-now
	u.free = start + n
	e.stats.Issued[ClassPrediction] += n
	e.stats.StallCycles += wait*n + n*(n-1)/2
	e.stats.QueueWait.ObserveRange(wait, n)
	e.stats.LastBusy = max(e.stats.LastBusy, u.free-1+e.spec.LatencyCycles)
	for i, g := range guesses {
		if g == trueSeq {
			return i, start + uint64(i) + e.spec.LatencyCycles
		}
	}
	return -1, 0
}
