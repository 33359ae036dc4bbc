// Package faults is the deterministic, seeded adversary of the threat
// model: it sits between the secure memory controller and the modeled
// DRAM and corrupts the encrypted image on a schedule. The paper's
// premise (Section 2.2) is that off-chip memory is untrusted — counter
// mode alone gives no integrity, so a hash tree must run alongside — and
// this package supplies the active attacker that premise implies, so
// detection coverage and recovery behavior become testable properties
// instead of assumptions.
//
// An Attack pairs an attack class (Kind) with a Trigger. The injector is
// consulted at every line fetch; an attack whose trigger conditions all
// hold fires against the line being fetched, corrupting it between the
// DRAM read and verification — the strongest position an adversary on
// the memory bus can take, and the one that makes detection latency
// well-defined (the very fetch that consumes the corruption must flag
// it). Attacks that are momentarily inapplicable (a replay with no stale
// capture yet, a counter rollback in direct mode) stay armed until a
// fetch where they apply, or report as never-fired.
//
// Everything is deterministic: the schedule comes from the Plan, bit and
// delta choices from a seeded generator, so a campaign is byte-for-byte
// reproducible at a given seed regardless of worker count.
package faults

import (
	"fmt"

	"ctrpred/internal/ctr"
	"ctrpred/internal/rng"
	"ctrpred/internal/stats"
)

// Kind is an attack class of the threat model.
type Kind uint8

const (
	// BitFlip flips one ciphertext bit of the fetched line.
	BitFlip Kind = iota
	// Splice swaps the fetched line's ciphertext with another address's
	// (a relocation attack: both lines are valid ciphertext, just not at
	// these addresses).
	Splice
	// Replay restores a stale (ciphertext, counter) pair captured at an
	// earlier writeback of the fetched line.
	Replay
	// Rollback decrements the fetched line's counter-table entry —
	// counter-table corruption aimed at forcing pad reuse.
	Rollback
	// NodeCorrupt flips a bit in an interior integrity-tree node on the
	// fetched line's path — attacking the protection instead of the data.
	NodeCorrupt
	// NumKinds bounds the Kind space for per-kind accounting arrays.
	NumKinds = int(NodeCorrupt) + 1
)

var kindNames = [NumKinds]string{"bitflip", "splice", "replay", "rollback", "nodecorrupt"}

func (k Kind) String() string {
	if int(k) < NumKinds {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Kinds lists every attack class.
func Kinds() []Kind {
	return []Kind{BitFlip, Splice, Replay, Rollback, NodeCorrupt}
}

// ParseKind parses an attack-class name as used by ParsePlan.
func ParseKind(s string) (Kind, error) {
	for i, n := range kindNames {
		if s == n {
			return Kind(i), nil
		}
	}
	return 0, fmt.Errorf("faults: unknown attack kind %q (want bitflip, splice, replay, rollback or nodecorrupt)", s)
}

// Trigger gates when an attack fires. Every nonzero condition must hold;
// the zero value fires on the first fetch. An attack fires at the first
// fetch where the trigger holds *and* the attack applies to the fetched
// line, and fires exactly once.
type Trigger struct {
	// Fetch arms the attack from the Nth line fetch onward (1-based).
	Fetch uint64
	// Instr arms the attack once N instructions have committed (needs an
	// instruction source; see Injector.SetInstrSource).
	Instr uint64
	// Cycle arms the attack from cycle N onward.
	Cycle uint64
	// AddrMask/AddrMatch restrict the attack to fetches whose line
	// address satisfies addr&AddrMask == AddrMatch&AddrMask. A zero mask
	// matches every address.
	AddrMask  uint64
	AddrMatch uint64
}

func (tr Trigger) armed(fetch, instr, cycle, la uint64) bool {
	if tr.Fetch != 0 && fetch < tr.Fetch {
		return false
	}
	if tr.Instr != 0 && instr < tr.Instr {
		return false
	}
	if tr.Cycle != 0 && cycle < tr.Cycle {
		return false
	}
	if tr.AddrMask != 0 && la&tr.AddrMask != tr.AddrMatch&tr.AddrMask {
		return false
	}
	return true
}

// Attack is one scheduled corruption.
type Attack struct {
	Kind    Kind
	Trigger Trigger
}

// Plan is a full attack schedule. The zero value (no attacks) is a valid
// armed-but-idle plan, useful for measuring injector overhead.
type Plan struct {
	Attacks []Attack
}

// Target is the adversary's write access to the untrusted memory state,
// implemented by the secure memory controller. Every method corrupts the
// line containing vaddr (la, line-aligned) and reports whether the
// corruption applied — false means the attack stays armed (e.g. no
// counters in direct mode, no stale capture yet, no tree attached).
type Target interface {
	// TamperData flips one ciphertext bit of line la.
	TamperData(la uint64, bit int) bool
	// TamperCounter rolls the counter-table entry of la back by delta.
	TamperCounter(la uint64, delta uint64) bool
	// TamperTreeNode flips a bit of an interior integrity node on la's
	// path.
	TamperTreeNode(la uint64, bit int) bool
	// SpliceLines swaps the ciphertext stored at la and lb.
	SpliceLines(la, lb uint64) bool
	// ReplayStale restores a previously captured (ciphertext, counter)
	// pair at la; it must refuse (return false) a pair identical to the
	// current state, which would be a no-op rather than a replay.
	ReplayStale(la uint64, enc ctr.Line, seq uint64) bool
}

// Stats is the injector's per-kind ledger. Detection latency is the
// cycle distance from an attack firing to the verification that flagged
// its line.
type Stats struct {
	Injected   [NumKinds]uint64
	Detected   [NumKinds]uint64
	LatencySum [NumKinds]uint64
}

// TotalInjected sums fired attacks across every kind.
func (s Stats) TotalInjected() (n uint64) {
	for _, v := range s.Injected {
		n += v
	}
	return n
}

// TotalDetected sums detected attacks across every kind.
func (s Stats) TotalDetected() (n uint64) {
	for _, v := range s.Detected {
		n += v
	}
	return n
}

// DetectionRate returns detected/injected for the kind; attacks that
// never fired are vacuously covered (rate 1).
func (s Stats) DetectionRate(k Kind) float64 {
	if s.Injected[k] == 0 {
		return 1
	}
	return float64(s.Detected[k]) / float64(s.Injected[k])
}

// MeanLatency returns the mean detection latency in cycles for the kind.
func (s Stats) MeanLatency(k Kind) float64 {
	if s.Detected[k] == 0 {
		return 0
	}
	return float64(s.LatencySum[k]) / float64(s.Detected[k])
}

// AddTo registers the ledger into a metrics snapshot node: one child per
// attack class plus run totals.
func (s Stats) AddTo(n *stats.Snapshot) {
	n.Counter("injected", s.TotalInjected())
	n.Counter("detected", s.TotalDetected())
	for _, k := range Kinds() {
		if s.Injected[k] == 0 && s.Detected[k] == 0 {
			continue
		}
		c := n.Child(k.String())
		c.Counter("injected", s.Injected[k])
		c.Counter("detected", s.Detected[k])
		c.Counter("latency_sum_cycles", s.LatencySum[k])
		c.Value("detection_rate", s.DetectionRate(k))
	}
}

// capture is a recorded writeback, the raw material of replay attacks.
type capture struct {
	enc ctr.Line
	seq uint64
	ok  bool
}

// attackState tracks one planned attack through its lifecycle.
type attackState struct {
	Attack
	fired      bool
	detected   bool
	firedCycle uint64
	line       uint64 // line the corruption landed on
}

// Injector drives a Plan against a Target. It is bound to one controller
// (Bind) and consulted on the controller's fetch/writeback path; it is
// not safe for concurrent use, matching the single-threaded simulator.
type Injector struct {
	target  Target
	rng     *rng.Xoshiro256
	instr   func() uint64
	attacks []attackState
	// captures holds the oldest writeback per line: the most stale pair
	// an adversary who started recording at run begin could replay.
	captures map[uint64]capture
	// needPairs counts unfired Replay attacks: once it reaches zero the
	// injector stops recording bus pairs, keeping the armed-but-idle
	// per-fetch cost to a trigger scan.
	needPairs int
	fetches   uint64
	lastLine  uint64
	havePrev  bool
	stats     Stats
}

// NewInjector builds an injector for the plan. The seed drives bit and
// delta choices; the schedule itself is fully determined by the plan.
func NewInjector(p Plan, seed uint64) *Injector {
	inj := &Injector{
		rng:      rng.New(seed ^ 0xfa17_1e55),
		captures: make(map[uint64]capture),
	}
	inj.attacks = make([]attackState, len(p.Attacks))
	for i, a := range p.Attacks {
		inj.attacks[i] = attackState{Attack: a}
		if a.Kind == Replay {
			inj.needPairs++
		}
	}
	return inj
}

// Bind points the injector at its target (the controller arming it).
func (i *Injector) Bind(t Target) { i.target = t }

// SetInstrSource supplies the committed-instruction counter for
// Trigger.Instr conditions. Without one, instruction triggers never arm.
func (i *Injector) SetInstrSource(fn func() uint64) { i.instr = fn }

// Stats returns a copy of the injection/detection ledger.
func (i *Injector) Stats() Stats { return i.stats }

// BeforeFetch is called by the controller at the start of every line
// fetch, before the counter is read and the line is verified: the moment
// an adversary on the memory bus would strike. Due attacks are applied
// to the line being fetched.
func (i *Injector) BeforeFetch(now uint64, la uint64) {
	i.fetches++
	var instr uint64
	if i.instr != nil {
		instr = i.instr()
	}
	for idx := range i.attacks {
		a := &i.attacks[idx]
		if a.fired || !a.Trigger.armed(i.fetches, instr, now, la) {
			continue
		}
		if i.apply(a, la) {
			a.fired = true
			a.firedCycle = now
			a.line = la
			i.stats.Injected[a.Kind]++
			if a.Kind == Replay {
				i.needPairs--
			}
		}
	}
	// Record the fetch for splice partner selection *after* applying, so
	// a splice always pairs the current line with an earlier one.
	if i.lastLine != la || !i.havePrev {
		i.lastLine, i.havePrev = la, true
	}
}

// apply performs one attack against the line being fetched; it reports
// whether the corruption landed (false keeps the attack armed).
func (i *Injector) apply(a *attackState, la uint64) bool {
	if i.target == nil {
		return false
	}
	switch a.Kind {
	case BitFlip:
		return i.target.TamperData(la, i.rng.Intn(8*ctr.LineSize))
	case Splice:
		if !i.havePrev || i.lastLine == la {
			return false // no distinct partner fetched yet
		}
		return i.target.SpliceLines(la, i.lastLine)
	case Replay:
		c := i.captures[la]
		if !c.ok {
			return false // nothing captured for this line yet
		}
		return i.target.ReplayStale(la, c.enc, c.seq)
	case Rollback:
		return i.target.TamperCounter(la, 1+i.rng.Uint64n(4))
	case NodeCorrupt:
		return i.target.TamperTreeNode(la, i.rng.Intn(256))
	}
	return false
}

// WantsPairs reports whether the injector still records bus pairs —
// true while an unfired Replay attack remains. Controllers use it to
// skip the ObservePair call (and its line copy) on the fetch/evict hot
// path when no replay material is needed.
func (i *Injector) WantsPairs() bool { return i.needPairs > 0 }

// ObservePair is called by the controller whenever a legitimate
// (ciphertext, counter) pair for la crosses the memory bus: at every
// fetch (the adversary snoops reads) and at every writeback (with the
// pair the writeback replaces). The injector keeps the first pair it
// sees per line — the most stale replay material an adversary recording
// from run begin could hold — and records nothing once every Replay
// attack has fired.
func (i *Injector) ObservePair(la uint64, enc ctr.Line, seq uint64) {
	if i.needPairs == 0 {
		return
	}
	if _, seen := i.captures[la]; !seen {
		i.captures[la] = capture{enc: enc, seq: seq, ok: true}
	}
}

// ObserveDetection is called by the controller when verification of la
// fails at the given cycle. Every fired, not-yet-detected attack whose
// corruption landed on la is credited — a verifier cannot attribute a
// mismatch to one of several overlapping corruptions.
func (i *Injector) ObserveDetection(la uint64, cycle uint64) {
	for idx := range i.attacks {
		a := &i.attacks[idx]
		if !a.fired || a.detected || a.line != la {
			continue
		}
		a.detected = true
		i.stats.Detected[a.Kind]++
		i.stats.LatencySum[a.Kind] += cycle - a.firedCycle
	}
}
