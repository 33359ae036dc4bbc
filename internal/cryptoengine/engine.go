// Package cryptoengine models the timing of the secure processor's fully
// pipelined AES engine (paper Section 5.2 and Table 1): a new pad request
// can enter the pipeline every cycle, and each request emerges Latency
// cycles later (96 ns for unrolled AES-256 with 6 stages per round at
// 1 ns/stage).
//
// The engine is shared by three request classes, exactly as in the paper:
// speculative pad precomputation (predictions), demand pad generation
// (after the real sequence number arrives), and writeback encryption of
// evicted dirty lines. Because predictions consume pipeline slots, an
// over-aggressive predictor can delay demand traffic — the effect the
// paper cites as the reason prediction depth cannot simply be increased.
//
// The engine models timing only. The controller draws the pad bits it
// books requests for from the ctr.Keystream the engine carries, so the
// simulator still decrypts real ciphertext with real pads.
package cryptoengine

import (
	"ctrpred/internal/ctr"
	"ctrpred/internal/stats"
)

// Config holds the engine's timing parameters.
type Config struct {
	// LatencyCycles is the pipeline depth in CPU cycles (default 96,
	// matching 96 ns at 1 GHz).
	LatencyCycles uint64
	// IssuePerCycle is how many pad requests (one request = both 16-byte
	// pads of a line, i.e. the paper's dual-AES arrangement in Figure 3)
	// can enter the pipeline per cycle.
	IssuePerCycle int
}

// DefaultConfig matches Table 1.
func DefaultConfig() Config {
	return Config{LatencyCycles: 96, IssuePerCycle: 1}
}

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
	LastBusy    uint64             // last cycle at which the pipe had work
	// QueueWait is the distribution of cycles each request waited for an
	// issue slot — the observable face of pipeline occupancy: a busy
	// pipe (e.g. an over-aggressive predictor) shows up as a heavy tail.
	QueueWait *stats.Histogram
	// Model is the engine model that produced these stats ("" and "aes"
	// both mean the default pipelined AES).
	Model string
	// Banks is the sealer's bank count (0 for other models).
	Banks int
	// Bypassed counts requests a model accepted but never occupied a
	// unit for — bipbip's speculative pads, which its decrypt-on-fetch
	// design makes free. Always 0 for aes and sealer.
	Bypassed uint64
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
			n.Counter("bypassed", s.Bypassed)
		}
	}
}

// Engine is the pipelined AES pad engine.
type Engine struct {
	cfg   Config
	ks    *ctr.Keystream
	stats Stats
	// nextIssue is the earliest cycle at which a new request may enter the
	// pipeline, given everything issued so far.
	nextIssue uint64
	// issuedThisCycle tracks multi-issue within the current nextIssue slot.
	issuedThisCycle int
}

// New creates an engine using key material via the given keystream.
func New(cfg Config, ks *ctr.Keystream) *Engine {
	if cfg.LatencyCycles == 0 {
		cfg.LatencyCycles = 96
	}
	if cfg.IssuePerCycle <= 0 {
		cfg.IssuePerCycle = 1
	}
	e := &Engine{cfg: cfg, ks: ks}
	e.stats.QueueWait = stats.NewHistogram(0, 1, 2, 4, 8, 16, 32, 64, 128)
	e.stats.Model = ModelAES
	return e
}

// Engine is the default EngineModel.
var _ EngineModel = (*Engine)(nil)

// Config returns the engine's configuration.
func (e *Engine) Config() Config { return e.cfg }

// Spec returns the canonical spec describing this engine's timing.
func (e *Engine) Spec() Spec {
	return Spec{Model: ModelAES, LatencyCycles: e.cfg.LatencyCycles, IssuePerCycle: e.cfg.IssuePerCycle}.Normalized()
}

// Stats returns a copy of the accumulated statistics.
func (e *Engine) Stats() Stats { return e.stats }

// ScheduleOnly issues a pad request at or after cycle now and returns the
// cycle at which it emerges from the pipeline. Requests are serviced in
// issue order; if the current cycle's issue slots are full the request
// slips to a later cycle (recorded as stall time).
func (e *Engine) ScheduleOnly(now uint64, class Class) uint64 {
	start := e.reserveSlot(now)
	e.stats.Issued[class]++
	if start > now {
		e.stats.StallCycles += start - now
	}
	ready := start + e.cfg.LatencyCycles
	if ready > e.stats.LastBusy {
		e.stats.LastBusy = ready
	}
	return ready
}

// ScheduleGuesses books one prediction-class pipeline slot per guess —
// the speculative burst a counter-prediction miss issues — and returns
// the index of the first guess equal to trueSeq (-1 if none) plus the
// cycle at which that guess's pad emerges from the pipeline (0 if none).
// Accounting (Issued, StallCycles, LastBusy, QueueWait) is identical to
// calling ScheduleOnly once per guess: the burst occupies consecutive
// issue slots, so the i-th guess waits one cycle longer than its
// predecessor and the whole burst books with two or three arithmetic
// updates instead of a per-request reservation walk.
func (e *Engine) ScheduleGuesses(now uint64, guesses []uint64, trueSeq uint64) (matchIdx int, padReady uint64) {
	matchIdx = -1
	for i, g := range guesses {
		if g == trueSeq {
			matchIdx = i
			break
		}
	}
	n := uint64(len(guesses))
	if n == 0 {
		return -1, 0
	}
	if e.cfg.IssuePerCycle != 1 {
		// Multi-issue: a burst does not map to one slot per cycle, so
		// book the guesses one request at a time.
		for i := range guesses {
			ready := e.ScheduleOnly(now, ClassPrediction)
			if i == matchIdx {
				padReady = ready
			}
		}
		return matchIdx, padReady
	}
	if now > e.nextIssue {
		e.nextIssue = now
		e.issuedThisCycle = 0
	}
	start0 := e.nextIssue
	wait := start0 - now
	e.stats.Issued[ClassPrediction] += n
	e.stats.StallCycles += wait*n + n*(n-1)/2
	e.stats.QueueWait.ObserveRange(wait, n)
	if last := start0 + n - 1 + e.cfg.LatencyCycles; last > e.stats.LastBusy {
		e.stats.LastBusy = last
	}
	e.nextIssue = start0 + n
	if matchIdx >= 0 {
		padReady = start0 + uint64(matchIdx) + e.cfg.LatencyCycles
	}
	return matchIdx, padReady
}

func (e *Engine) reserveSlot(now uint64) uint64 {
	if now > e.nextIssue {
		e.nextIssue = now
		e.issuedThisCycle = 0
	}
	start := e.nextIssue
	e.issuedThisCycle++
	if e.issuedThisCycle >= e.cfg.IssuePerCycle {
		e.nextIssue = start + 1
		e.issuedThisCycle = 0
	}
	e.stats.QueueWait.Observe(start - now)
	return start
}

// Keystream exposes the machine's keystream, the source of every pad bit
// the controller uses.
func (e *Engine) Keystream() *ctr.Keystream { return e.ks }
