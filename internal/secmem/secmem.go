// Package secmem implements the secure memory controller: the boundary
// between the protected processor domain and the untrusted encrypted RAM
// (Figure 2). Every 32-byte block leaving the L2 is encrypted in counter
// mode; every block entering it is decrypted. The controller owns
//
//   - the encrypted off-chip image and the per-block counter table,
//   - the DRAM timing for line and counter fetches/writebacks,
//   - the crypto-engine pipeline scheduling, and
//   - the counter-availability mechanisms under study: nothing (baseline),
//     a sequence-number cache, OTP prediction, the two combined, or an
//     oracle that always knows the counter (Figure 4's three timelines).
//
// The controller is *functionally real*: it stores real AES-encrypted
// bytes, fetches really decrypt them, and a self-check compares each
// decryption against the architectural image in package mem. Prediction
// can therefore never corrupt data — a mispredicted pad simply fails the
// counter comparison and is discarded, exactly as in the hardware.
//
// Pads are computed only for lines whose data actually moves. Machines
// built from a shared pre-aged image (AgedTemplate) start from its
// counters, and each template line is encrypted the first time any of
// those machines fetches or writes it, into a slot every later machine
// reads; a cold machine pays AES for the lines it touches, not the
// whole image. A machine with an integrity tree starts from a clone of
// the tree the image loads into (see AgedTemplate.LoadTree) and seals
// the template lines it touches into its own pad table.
package secmem

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"ctrpred/internal/cryptoengine"
	"ctrpred/internal/ctr"
	"ctrpred/internal/dram"
	"ctrpred/internal/faults"
	"ctrpred/internal/integrity"
	"ctrpred/internal/mem"
	"ctrpred/internal/paged"
	"ctrpred/internal/predictor"
	"ctrpred/internal/seqcache"
	"ctrpred/internal/stats"
)

// Config parameterizes the controller.
type Config struct {
	// SeqTableBase is the physical address of the counter table; it is
	// placed far from data so the two compete for DRAM banks realistically
	// but never overlap.
	SeqTableBase uint64
	// Oracle makes every counter available at request time (the paper's
	// normalization baseline for IPC figures).
	Oracle bool
	// Direct replaces counter mode with direct (XEX) memory encryption —
	// the prior-art organization the paper contrasts against: no counters
	// anywhere, but decryption strictly serializes after the line fetch.
	Direct bool
	// SharedCounterChannel routes counter-table traffic over the data
	// channel instead of the dedicated two-bank counter channel. The
	// default (false) models counter storage with its own devices, the
	// usual organization: interleaving 8-byte counter reads between line
	// bursts on one channel thrashes open rows on every miss and
	// penalizes every scheme that must fetch counters.
	SharedCounterChannel bool
	// CounterBanks sizes the dedicated counter channel (default 2).
	CounterBanks int
	// SelfCheck verifies every decryption against the architectural
	// image and every encryption against pad-reuse (cheap; on by default
	// in tests and examples).
	SelfCheck bool
	// CountersOnly skips the payload stage of every fetch and writeback:
	// the controller tracks counters, predictor state, caches, DRAM and
	// engine timing — everything the hit-rate figures observe — but never
	// stores pads or ciphertext and never XORs data. The timing stage is
	// the same code either way, so every statistic and every returned
	// timing is identical to the full model; only FetchResult.Plain, which
	// has no consumer in this mode, stays zero. Long functional-mode
	// sweeps use it to cut the dominant allocations.
	// Incompatible with SelfCheck, Direct, integrity trees and fault
	// injection — New and the attach points enforce that.
	CountersOnly bool
	// Scheme labels SecurityErrors with the scheme under test; sim sets
	// it from the run configuration. Purely diagnostic.
	Scheme string
	// Recovery selects the reaction to a fetch that fails integrity
	// verification: RecoveryHalt (default) records a *SecurityError,
	// RecoveryQuarantine re-fetches and heals the line and keeps going.
	Recovery RecoveryPolicy
	// RetryBudget bounds quarantine re-fetch attempts per detection
	// (0 = DefaultRetryBudget).
	RetryBudget int
}

// DefaultConfig returns the standard controller configuration.
func DefaultConfig() Config {
	return Config{SeqTableBase: 1 << 40, SelfCheck: true}
}

// Stats aggregates controller activity.
type Stats struct {
	Fetches        uint64 // lines fetched from encrypted RAM (L2 misses)
	Evictions      uint64 // dirty lines written back
	CounterBufHits uint64 // counter found in the 4-entry fetch buffer
	TamperDetected uint64 // fetches failing integrity verification
	PredHits       uint64 // fetches whose counter was predicted
	SeqCacheHits   uint64 // fetches whose counter was in the seq cache
	BothHits       uint64 // counter both predicted and cached
	OracleHits     uint64 // fetches served by the oracle
	SelfCheckFails uint64 // decryptions that did not match the image
	// FetchLatency is the distribution of fetch completion latency in
	// cycles (request to decrypted data).
	FetchLatency *stats.Histogram
	// DecryptExposed accumulates the cycles by which decryption completed
	// *after* the line arrived from memory — the latency the paper's
	// techniques try to drive to zero.
	DecryptExposed uint64
}

// CounterCoverage returns the fraction of fetches whose counter was
// available without waiting for DRAM (predicted, cached, or oracle).
func (s *Stats) CounterCoverage() float64 {
	return stats.Rate(s.PredHits+s.SeqCacheHits-s.BothHits+s.OracleHits, s.Fetches)
}

// AddTo registers the controller's counters into a metrics snapshot node.
func (s *Stats) AddTo(n *stats.Snapshot) {
	n.Counter("fetches", s.Fetches)
	n.Counter("evictions", s.Evictions)
	n.Counter("counter_buf_hits", s.CounterBufHits)
	n.Counter("tamper_detected", s.TamperDetected)
	n.Counter("pred_hits", s.PredHits)
	n.Counter("seqcache_hits", s.SeqCacheHits)
	n.Counter("both_hits", s.BothHits)
	n.Counter("oracle_hits", s.OracleHits)
	n.Counter("selfcheck_fails", s.SelfCheckFails)
	n.Counter("decrypt_exposed_cycles", s.DecryptExposed)
	n.Histogram("fetch_latency", s.FetchLatency)
	n.Value("counter_coverage", s.CounterCoverage())
}

// FetchResult describes one line fetch, for tests and tracing.
type FetchResult struct {
	Done     uint64 // cycle at which decrypted data is available
	LineDone uint64 // cycle at which ciphertext arrived from DRAM
	SeqDone  uint64 // cycle at which the counter was available
	PredHit  bool
	SeqHit   bool
	// Authentic is false when the integrity tree rejected the fetched
	// (ciphertext, counter) pair — tampering or replay in untrusted RAM.
	// Always true when no tree is attached.
	Authentic bool
	// Recovered is true when verification failed but the quarantine
	// policy restored the line; Plain then holds the healed contents.
	Recovered bool
	TrueSeq   uint64
	Plain     ctr.Line
}

// Controller is the secure memory controller.
type Controller struct {
	cfg     Config
	dram    *dram.DRAM
	seqDRAM *dram.DRAM // counter-table channel (== dram when shared)
	engine  cryptoengine.EngineModel
	pred    *predictor.Predictor
	scache  *seqcache.Cache // nil when the design has no seq cache
	image   *mem.Memory     // architectural plaintext

	// The untrusted-RAM model is split into a hot counter table and a
	// cold ciphertext/pad table so the two can be touched — and, under
	// copy-on-write views of a shared template, *copied* — independently:
	// every fetch and eviction reads counters, but only the functional
	// decrypt/encrypt paths need the 64 bytes of pad material per line.
	// Counters-only mode never touches pads at all. The working set is
	// bounded and known at config time, so both live in paged backing
	// arrays (flat indexing, no hashing on the fetch/evict hot path) with
	// a sparse fallback beyond the dense horizon; a line is materialized
	// exactly when its counter-table entry exists.
	ctrs *paged.Table[ctrState]
	pads *paged.Table[padState]
	// tmpl is the pre-aged template a full-model controller without a
	// tree views (nil otherwise). Its lines have no entry in pads until
	// this controller writes them; until then they read through the
	// template's sealed slots. An integrity controller on a template
	// leaves tmpl nil: it seals a template line into pads at first touch.
	tmpl   *AgedTemplate
	tree   *integrity.Tree   // optional hash-tree integrity protection
	direct *ctr.DirectCipher // non-nil in direct mode

	tracker ctr.PadTracker
	stats   Stats
	sec     SecurityStats
	secErr  *SecurityError   // first recorded security violation
	faults  *faults.Injector // armed adversary, or nil

	// fetchObs, when set, receives every fetch's exact end-to-end
	// latency in cycles, alongside the bucketed FetchLatency histogram.
	// SLO reporting (internal/tenancy) needs true percentiles, which
	// buckets cannot provide; nil costs one branch per fetch.
	fetchObs func(latency uint64)

	// seqBuf is the counter-line fetch buffer: counters are fetched at
	// DRAM burst granularity (a 32-byte counter line covers four memory
	// blocks), and the last few counter lines remain in the controller.
	// This 128-byte buffer is part of the fetch pipeline in every
	// configuration; without it, every miss would pay a separate 8-byte
	// DRAM transaction for a counter its neighbor just fetched.
	seqBuf     [4]uint64
	seqBufAge  [4]uint64
	seqBufTick uint64
}

// ctrState is the hot half of one protected line's off-chip state: what
// every fetch and eviction must read, and all a counters-only controller
// ever stores (24 bytes against the pad half's 72).
type ctrState struct {
	seq uint64 // counter-table entry
	// goodSeq shadows the last legitimately written counter. Adversarial
	// counter corruption changes seq only, so recovery and evictions can
	// always advance from a counter known fresh — the role the root of
	// trust plays in hardware — and never reuse a pad.
	goodSeq uint64
	// tampered marks ciphertext the adversary corrupted, so the
	// plaintext self-check knows not to expect a faithful decryption.
	tampered bool
}

// padState is the cold half: the functional ciphertext and pad material,
// touched only by paths that actually move data bits. A template line
// this controller has not written has no padState of its own: it reads
// the template's sealed slot, and its first write copies that slot here.
type padState struct {
	enc ctr.Line // encrypted RAM contents
	// pad, when padValid, holds the OTP for (line address, seq), kept by
	// sealPad, which every path that encrypts the line goes through
	// (a template slot's seal, materialization, writeback, heal). Counter
	// mode decrypts with the exact pad, so a fetch books its pipeline
	// slots normally and skips re-running AES; every path that changes
	// seq either reseals the line or clears padValid. This is the
	// functional analogue of the paper's precomputation buffer.
	pad      ctr.Pad
	padValid bool
}

// New wires a controller. pred must be non-nil (use predictor.SchemeNone
// for designs without prediction — the predictor still owns per-page roots
// and counter assignment). sc may be nil.
func New(cfg Config, d *dram.DRAM, e cryptoengine.EngineModel, pred *predictor.Predictor, sc *seqcache.Cache, image *mem.Memory) *Controller {
	if pred == nil {
		panic("secmem: predictor must not be nil")
	}
	if cfg.CountersOnly {
		if cfg.SelfCheck {
			panic("secmem: CountersOnly stores no plaintext to check; disable SelfCheck")
		}
		if cfg.Direct {
			panic("secmem: CountersOnly is meaningless under direct encryption")
		}
	}
	if cfg.SeqTableBase == 0 {
		cfg.SeqTableBase = 1 << 40
	}
	seqD := d
	if !cfg.SharedCounterChannel && d != nil {
		banks := cfg.CounterBanks
		if banks == 0 {
			banks = 2
		}
		scfg := d.Config()
		scfg.Banks = banks
		scfg.PartitionAddr = 0
		seqD = dram.New(scfg)
	}
	var direct *ctr.DirectCipher
	if cfg.Direct && e != nil {
		direct = e.Keystream().DirectCipher()
	}
	return &Controller{
		cfg:     cfg,
		direct:  direct,
		dram:    d,
		seqDRAM: seqD,
		engine:  e,
		pred:    pred,
		scache:  sc,
		image:   image,
		ctrs:    paged.New[ctrState](ctr.LineSize),
		pads:    paged.New[padState](ctr.LineSize),
		stats:   Stats{FetchLatency: stats.NewHistogram(100, 150, 200, 300, 500)},
	}
}

// Stats returns the accumulated statistics (the histogram is shared).
func (c *Controller) Stats() Stats { return c.stats }

// SetFetchObserver registers fn to receive the exact latency of every
// line fetch the controller services, in cycles, as each completes. The
// bucketed FetchLatency histogram cannot answer percentile questions
// tighter than its bounds; SLO reporting samples through this hook
// instead. Pass nil to unregister. The observer must not re-enter the
// controller.
func (c *Controller) SetFetchObserver(fn func(latency uint64)) { c.fetchObs = fn }

// observeFetch books one serviced fetch's end-to-end latency into the
// histogram and, when registered, the exact-sample observer, plus the
// decryption latency exposed past the line's arrival.
func (c *Controller) observeFetch(now uint64, res *FetchResult) {
	lat := res.Done - now
	c.stats.FetchLatency.Observe(lat)
	if c.fetchObs != nil {
		c.fetchObs(lat)
	}
	if res.Done > res.LineDone {
		c.stats.DecryptExposed += res.Done - res.LineDone
	}
}

// Predictor returns the counter predictor in use.
func (c *Controller) Predictor() *predictor.Predictor { return c.pred }

// SeqCache returns the sequence-number cache, or nil.
func (c *Controller) SeqCache() *seqcache.Cache { return c.scache }

// PadViolations reports one-time-pad reuse detected by the self-check.
func (c *Controller) PadViolations() uint64 { return c.tracker.Violations }

// CountersOnly reports whether the controller runs the counters-only
// model (see Config.CountersOnly).
func (c *Controller) CountersOnly() bool { return c.cfg.CountersOnly }

// AttachIntegrity enables hash-tree verification of every fetch and
// update of every writeback. Must be called before any line is touched,
// and so before UseAgedTemplate, so the tree covers the whole image. On
// a template, t must be a clone of the tree the template's aged lines
// were loaded into (AgedTemplate.LoadTree); every other template line
// gets its leaf when the controller first touches it.
func (c *Controller) AttachIntegrity(t *integrity.Tree) {
	if c.cfg.CountersOnly {
		panic("secmem: AttachIntegrity on a counters-only controller (no ciphertext to verify)")
	}
	if c.ctrs.Count() != 0 {
		panic("secmem: AttachIntegrity after lines were touched")
	}
	c.tree = t
}

// IntegrityTree returns the attached tree, or nil.
func (c *Controller) IntegrityTree() *integrity.Tree { return c.tree }

// TamperData flips one ciphertext bit of line la in the untrusted RAM —
// the basic adversary move. The next fetch must fail integrity
// verification (with a tree attached) and would otherwise silently
// decrypt to garbage; the plaintext self-check is suppressed for
// tampered lines so the corruption is observable, not a model bug.
// It refuses in counters-only mode (no ciphertext exists to corrupt).
// Implements faults.Target.
func (c *Controller) TamperData(la uint64, bit int) bool {
	if c.cfg.CountersOnly {
		return false
	}
	cs, ps := c.owned(mem.LineAddr(la))
	ps.enc[(bit/8)%ctr.LineSize] ^= 1 << (bit % 8)
	cs.tampered = true
	return true
}

// TamperCounter rolls line la's counter-table entry back by delta —
// counter-table corruption aimed at forcing pad reuse. It refuses in
// direct mode (no counters exist) and in counters-only mode (armed
// adversaries require the full functional model). The corrupted counter
// takes effect at the line's next fetch; on-chip counter copies (seq
// cache, fetch buffer) model availability timing, not values, so they do
// not mask the corruption. Implements faults.Target.
func (c *Controller) TamperCounter(la uint64, delta uint64) bool {
	if c.direct != nil || c.cfg.CountersOnly {
		return false
	}
	cs, ps := c.owned(mem.LineAddr(la))
	if delta == 0 || cs.seq == 0 {
		return false // nothing to roll back; the attack stays armed
	}
	if delta > cs.seq {
		// Saturate rather than wrap: an underflowed ~2^64 counter must
		// never leak into any recovery or writeback path.
		delta = cs.seq
	}
	cs.seq -= delta
	ps.padValid = false // the stored pad no longer matches the counter
	cs.tampered = true
	return true
}

// TamperTreeNode flips one bit of an interior integrity node on la's
// path (the leaf's parent — always compared on the next verification).
// It refuses when no tree is attached. Implements faults.Target.
func (c *Controller) TamperTreeNode(la uint64, bit int) bool {
	if c.tree == nil {
		return false
	}
	c.materialize(mem.LineAddr(la)) // ensure the leaf path exists
	return c.tree.CorruptPath(mem.LineAddr(la), 1, bit)
}

// SpliceLines swaps the ciphertext stored at lines la and lb — a
// relocation attack: both lines hold valid ciphertext, just not at these
// addresses. It refuses in counters-only mode. Implements faults.Target.
func (c *Controller) SpliceLines(la, lb uint64) bool {
	if c.cfg.CountersOnly {
		return false
	}
	la, lb = mem.LineAddr(la), mem.LineAddr(lb)
	if la == lb {
		return false
	}
	ca, pa := c.owned(la)
	cb, pb := c.owned(lb)
	pa.enc, pb.enc = pb.enc, pa.enc
	ca.tampered, cb.tampered = true, true
	return true
}

// ReplayStale restores a previously captured (ciphertext, counter) pair
// at line la — the classic replay attack. It refuses a pair identical to
// the current off-chip state (that would be a no-op, not a replay) and
// refuses in counters-only mode. Implements faults.Target.
func (c *Controller) ReplayStale(la uint64, enc ctr.Line, seq uint64) bool {
	if c.cfg.CountersOnly {
		return false
	}
	cs, ps := c.owned(mem.LineAddr(la))
	if cs.seq == seq && ps.enc == enc {
		return false
	}
	ps.enc = enc
	cs.seq = seq
	ps.padValid = false // the stored pad no longer matches the counter
	cs.tampered = true
	return true
}

// ArmFaults installs a fault injector on the fetch/writeback path and
// binds it to this controller. Attacks only apply to fetches issued
// after arming; a nil injector disarms. With no injector armed the data
// path takes a single nil-check per fetch.
func (c *Controller) ArmFaults(inj *faults.Injector) {
	if inj != nil && c.cfg.CountersOnly {
		panic("secmem: ArmFaults on a counters-only controller (attacks need the functional model)")
	}
	c.faults = inj
	if inj != nil {
		inj.Bind(c)
	}
}

// FaultInjector returns the armed injector, or nil.
func (c *Controller) FaultInjector() *faults.Injector { return c.faults }

// SecurityErr returns the first recorded security violation (tamper
// detection under RecoveryHalt, or any self-check failure), or nil. The
// simulator polls it at instruction checkpoints to halt the run.
func (c *Controller) SecurityErr() error {
	if c.secErr == nil {
		return nil
	}
	return c.secErr
}

// SecurityStats returns the recovery/degradation counters.
func (c *Controller) SecurityStats() SecurityStats { return c.sec }

// recordSecurityError notes a violation; the first one is kept as the
// run's SecurityErr (later ones still count).
func (c *Controller) recordSecurityError(kind ErrorKind, la, seq, cycle uint64) {
	c.sec.Violations++
	if c.secErr != nil {
		return
	}
	c.secErr = &SecurityError{Kind: kind, LineAddr: la, Seq: seq, Cycle: cycle, Scheme: c.cfg.Scheme}
}

func (c *Controller) seqAddr(lineAddr uint64) uint64 {
	return c.cfg.SeqTableBase + lineAddr/ctr.LineSize*seqcache.SeqBytes
}

// fetchCounter returns the cycle at which the counter of la is available,
// reading a full counter line from the counter channel unless the fetch
// buffer already holds it.
func (c *Controller) fetchCounter(now uint64, la uint64) uint64 {
	lineAddr := c.seqAddr(la) &^ uint64(ctr.LineSize-1)
	c.seqBufTick++
	victim := 0
	for i, a := range c.seqBuf {
		if a == lineAddr && c.seqBufAge[i] != 0 {
			c.seqBufAge[i] = c.seqBufTick
			c.stats.CounterBufHits++
			return now
		}
		if c.seqBufAge[i] < c.seqBufAge[victim] {
			victim = i
		}
	}
	done := c.seqDRAM.Access(now, lineAddr, ctr.LineSize, false)
	c.seqBuf[victim] = lineAddr
	c.seqBufAge[victim] = c.seqBufTick
	return done
}

// materialize lazily creates the encrypted copy of a line the first time
// the off-chip image is touched, modeling the loader writing the program
// image through the crypto engine with the page's initial (root) counter.
// It returns the line's off-chip state for *reading*: when the state is a
// view of a shared pre-aged template the pointers may reach into the
// template (a template line this controller never wrote reads its sealed
// slot, sealing it if no controller has yet), so mutation paths must go
// through owned instead. The pad half is nil in counters-only mode.
func (c *Controller) materialize(la uint64) (*ctrState, *padState) {
	if cs := c.ctrs.Lookup(la); cs != nil {
		if c.cfg.CountersOnly {
			return cs, nil
		}
		if ps := c.pads.Lookup(la); ps != nil {
			return cs, ps
		}
		if c.tmpl != nil {
			return cs, c.tmpl.slot(la)
		}
		ps, _ := c.pads.Ensure(la)
		c.loadLine(ps, la, cs.seq)
		return cs, ps
	}
	return c.owned(la)
}

// owned returns la's off-chip state for *writing*: it materializes the
// line if needed and, when the state is a view of a shared template,
// forces the copy-on-write so the caller's mutation stays machine-local.
func (c *Controller) owned(la uint64) (*ctrState, *padState) {
	cs, ps, fresh := c.ensure(la)
	if fresh {
		c.initLine(cs, ps, la, 0)
	}
	return cs, ps
}

// ensure creates la's table entries, or copies them out of a shared
// template, and reports whether the line is new. A template line's first
// write starts from its sealed slot, or on an integrity controller from
// loadLine. Counters-only mode never touches the pad table and returns a
// nil pad half.
func (c *Controller) ensure(la uint64) (*ctrState, *padState, bool) {
	cs, fresh := c.ctrs.Ensure(la)
	if c.cfg.CountersOnly {
		return cs, nil, fresh
	}
	ps, padFresh := c.pads.Ensure(la)
	if padFresh && !fresh {
		// Only template lines have a counter but no pad entry.
		if c.tmpl != nil {
			*ps = *c.tmpl.slot(la)
		} else {
			c.loadLine(ps, la, cs.seq)
		}
	}
	return cs, ps, fresh
}

// loadLine is an integrity controller's first touch of template line la:
// it seals the line under its template counter seq into this
// controller's pad table and, unless the tree already holds the leaf
// (the aged lines LoadTree installed), installs it exactly as initLine
// does when eager aging's controller first touches the line.
func (c *Controller) loadLine(ps *padState, la, seq uint64) {
	sealPad(c.engine.Keystream(), c.image, ps, la, seq)
	if !c.tree.Has(la) {
		c.tree.Update(0, la, seq, ps.enc)
	}
}

// initLine encrypts a freshly created line's architectural contents into
// its off-chip state: under the page's root counter plus offset in
// counter mode (a nonzero offset models pre-aged update history), under
// the address tweak alone in direct mode. The tree leaf is installed at
// cycle 0, and that load update is timed: its node writes occupy the
// node cache and the data channel like any writeback's.
func (c *Controller) initLine(cs *ctrState, ps *padState, la, offset uint64) {
	var seq uint64
	if c.direct != nil {
		ps.enc = c.direct.EncryptLine(c.image.LineAt(la), la)
	} else {
		seq = c.pred.Root(la) + offset
		c.seal(cs, ps, la, seq)
	}
	if c.tree != nil {
		c.tree.Update(0, la, seq, ps.enc)
	}
}

// seal sets la's counter to seq and, unless the pad half is absent
// (counters-only mode), encrypts the line's architectural contents under
// it, keeping the pad: the next fetch, and any later one while the
// counter is unchanged, decrypts under the identical pad.
func (c *Controller) seal(cs *ctrState, ps *padState, la, seq uint64) {
	cs.seq, cs.goodSeq, cs.tampered = seq, seq, false
	if ps != nil {
		sealPad(c.engine.Keystream(), c.image, ps, la, seq)
	}
	if c.cfg.SelfCheck {
		c.tracker.RecordEncrypt(la, seq)
	}
}

// sealPad is seal's data step, shared with an AgedTemplate's slot seal:
// it encrypts la's architectural contents under seq and keeps the pad.
func sealPad(ks *ctr.Keystream, image *mem.Memory, ps *padState, la, seq uint64) {
	ks.PadInto(&ps.pad, la, seq)
	plain := image.LineRef(la) // nil for never-written memory, which reads as zero
	if plain == nil {
		plain = &ctr.Line{}
	}
	ctr.XORLine(&ps.enc, plain, &ps.pad)
	ps.padValid = true
}

// AgeLine initializes the counter of the line containing vaddr to
// root+offset, modeling update history accumulated before the measured
// window (the paper's multi-billion-instruction fast-forward "updates the
// profiled memory status"). It must be called before the line is first
// fetched or evicted; calls after the line has been touched are ignored.
// Direct mode has no counter to age and just materializes the line.
func (c *Controller) AgeLine(vaddr uint64, offset uint64) {
	la := mem.LineAddr(vaddr)
	if c.ctrs.Lookup(la) != nil {
		return
	}
	cs, ps, _ := c.ensure(la)
	c.initLine(cs, ps, la, offset)
}

// AgedTemplate is a frozen pre-aged off-chip state — the result of the
// AgeLine setup loop run once — that any number of machines with the same
// (key, image, counter seed) share copy-on-write instead of re-aging
// megabytes of lines per run. Build one with BuildAgedTemplate and attach
// it with Controller.UseAgedTemplate.
//
// It has two halves. The counter half (24 bytes a line) is built eagerly
// and frozen; it is all a counters-only machine reads. The pad half is a
// table of slots, one per counter-half line, allocated when the first
// full-model controller without a tree attaches: a slot holds the line's
// ciphertext and pad under its counter-half seq (72 bytes) and is sealed
// the first time any attached controller reads or writes the line. A
// cold machine so pays AES only for the lines it touches, and every
// later machine reads the seals earlier ones made. Pads depend only on
// (key, line, seq), so the seal order never shows in any result.
//
// Integrity controllers never read the pad half: each starts from a clone
// of a tree LoadTree built once and seals the lines it touches into its
// own pad table, so an integrity-only template allocates no slots.
type AgedTemplate struct {
	ctrs *paged.Table[ctrState]
	// ks and image are the slot seal's key and frozen plaintext.
	ks    *ctr.Keystream
	image *mem.Memory

	padOnce sync.Once
	// slots is the pad half, built by padOnce and frozen before any
	// controller sees it; a slot's contents are published by its state.
	slots *paged.Table[padSlot]
	// pool is an empty frozen table whose page pool backs every attached
	// controller's own pad table: pages a closed machine released serve
	// the next machine's first writes.
	pool    *paged.Table[padState]
	nsealed atomic.Int64 // slots sealed so far
}

// padSlot is one line of a template's pad half. Its state moves once
// from slotEmpty through slotSealing to slotSealed; ps may be read only
// after loading slotSealed.
type padSlot struct {
	state atomic.Uint32
	ps    padState
}

const (
	slotEmpty uint32 = iota
	slotSealing
	slotSealed
)

// Lines reports how many distinct lines the template pre-aged.
func (t *AgedTemplate) Lines() int { return t.ctrs.Count() }

// SealedLines reports how many of the template's lines attached
// full-model controllers have sealed so far.
func (t *AgedTemplate) SealedLines() int { return int(t.nsealed.Load()) }

// BuildAgedTemplate replays the aging setup loop once into the counter
// half of a frozen template: visit yields the sampled (line address,
// counter offset) pairs in setup order, roots maps a line address to its
// page root counter (it is consulted exactly once per distinct line, in
// first-touch order, so a caller drawing roots from a seeded stream
// reproduces the per-run draw sequence), and ks/image supply the key and
// plaintext for the pad half, sealed later line by line. Duplicate line
// addresses are skipped exactly as Controller.AgeLine skips
// already-touched lines. The caller must not modify image afterwards.
func BuildAgedTemplate(ks *ctr.Keystream, image *mem.Memory, roots func(la uint64) uint64, visit func(yield func(la, offset uint64))) *AgedTemplate {
	t := &AgedTemplate{ctrs: paged.New[ctrState](ctr.LineSize), ks: ks, image: image}
	visit(func(la, offset uint64) {
		la = mem.LineAddr(la)
		cs, fresh := t.ctrs.Ensure(la)
		if !fresh {
			return
		}
		seq := roots(la) + offset
		cs.seq, cs.goodSeq = seq, seq
	})
	t.ctrs.Freeze()
	return t
}

// LoadTree installs into tree, at cycle 0 and in the order lines yields
// them, the leaf of each distinct line: under its counter-half seq, over
// its ciphertext sealed with the template key into a temporary. A line
// the tree already holds is skipped, as AgeLine skips a touched line, so
// yielding eager aging's samples reproduces the tree, node-cache and DRAM
// state that aging leaves on an integrity machine. Every yielded line must
// be a template line.
func (t *AgedTemplate) LoadTree(tree *integrity.Tree, lines func(yield func(la uint64))) {
	var ps padState
	lines(func(la uint64) {
		la = mem.LineAddr(la)
		if tree.Has(la) {
			return
		}
		seq := t.ctrs.Lookup(la).seq
		sealPad(t.ks, t.image, &ps, la, seq)
		tree.Update(0, la, seq, ps.enc)
	})
}

// buildPadHalf allocates one empty slot per counter-half line, and the
// page pool, on the first full-model attach. It computes no pad.
func (t *AgedTemplate) buildPadHalf() {
	t.slots = paged.New[padSlot](ctr.LineSize)
	t.ctrs.ForEach(func(la uint64, _ *ctrState) { t.slots.Ensure(la) })
	t.slots.Freeze()
	t.pool = paged.New[padState](ctr.LineSize)
	t.pool.Freeze()
}

// slot returns template line la's slot, sealing it under the counter
// half's seq if no controller has yet. Controllers racing to seal one
// line agree through the slot's state: one seals, the others wait for it.
func (t *AgedTemplate) slot(la uint64) *padState {
	s := t.slots.Lookup(la)
	if s.state.Load() == slotSealed {
		return &s.ps
	}
	if s.state.CompareAndSwap(slotEmpty, slotSealing) {
		sealPad(t.ks, t.image, &s.ps, la, t.ctrs.Lookup(la).seq)
		t.nsealed.Add(1)
		s.state.Store(slotSealed)
		return &s.ps
	}
	for s.state.Load() != slotSealed {
		runtime.Gosched()
	}
	return &s.ps
}

// usedPad reports whether (la, seq) is a template pad: the pair each
// counter-half line is sealed under, whether or not any controller has
// sealed it yet.
func (t *AgedTemplate) usedPad(la, seq uint64) bool {
	cs := t.ctrs.Lookup(la)
	return cs != nil && cs.seq == seq
}

// UseAgedTemplate replaces the controller's empty off-chip state with a
// copy-on-write view of the template's counter half. A full-model
// controller counts every template pad as used, so re-encrypting a line
// under its template counter is still a violation. Without a tree it
// also reads the pad half (allocating its empty slots if no controller
// has yet) and its own pad table starts empty; with one (attached first,
// see AttachIntegrity) it seals each template line into its own pad
// table at first touch. A counters-only controller views the counter
// half alone. The caller must have advanced the controller's predictor
// to the same per-page roots the template was built with — sim does this
// by replaying the root draws in template order. Must be called before
// any line is touched.
func (c *Controller) UseAgedTemplate(t *AgedTemplate) {
	if c.ctrs.Count() != 0 {
		panic("secmem: UseAgedTemplate after lines were touched")
	}
	c.ctrs = paged.NewView(t.ctrs)
	if c.cfg.CountersOnly {
		return
	}
	c.tracker.SetBase(t.usedPad)
	if c.tree != nil {
		return
	}
	t.padOnce.Do(t.buildPadHalf)
	c.tmpl = t
	c.pads = paged.NewView(t.pool)
}

// Release returns the controller's copy-on-write line state to the aged
// template's page pools (a no-op unless UseAgedTemplate attached one).
// The controller must not be used afterward.
func (c *Controller) Release() {
	c.ctrs.Release()
	c.pads.Release()
}

// FetchLine services an L2 miss for the line containing vaddr, starting
// at cycle now. It returns the decrypted line and full timing detail.
//
// Every fetch runs two stages. The timing stage — fetchTiming in counter
// mode, fetchDirect under direct encryption — books counter
// availability, the DRAM line access and the engine's pad requests, and
// fixes when the data is usable. The payload stage then moves the data
// bits: decryption, integrity verification, tamper handling and the
// self-check. Counters-only mode stores no ciphertext and skips it.
func (c *Controller) FetchLine(now uint64, vaddr uint64) FetchResult {
	la := mem.LineAddr(vaddr)
	c.stats.Fetches++
	cs, ps := c.materialize(la)
	if c.faults != nil {
		if !cs.tampered && c.faults.WantsPairs() {
			// The adversary snoops reads as well as writes: the pair on
			// the bus is replay material.
			c.faults.ObservePair(la, ps.enc, cs.seq)
		}
		// The adversary strikes between the DRAM read and verification.
		c.faults.BeforeFetch(now, la)
		// An attack mutates through owned, which may have copied the
		// line's page out of a shared template; re-acquire so the fetch
		// reads the corrupted machine-local copy, not the template's.
		cs, ps = c.materialize(la)
	}
	var res FetchResult
	if c.direct != nil {
		c.fetchDirect(&res, now, la)
	} else {
		c.fetchTiming(&res, now, la, cs.seq)
	}
	if ps != nil {
		c.payload(&res, now, la, cs, ps)
	}
	c.observeFetch(now, &res)
	return res
}

// fetchTiming is the counter-mode timing stage (Figure 4). The counter
// fetch is issued ahead of the line fetch (it is on the pad critical
// path) and both stream over DRAM; speculative pads are booked for the
// predicted counters, and a demand pad follows the true counter unless a
// prediction already covers it. Data is usable one XOR cycle after both
// ciphertext and pad are in hand.
func (c *Controller) fetchTiming(res *FetchResult, now, la, trueSeq uint64) {
	res.TrueSeq = trueSeq
	res.Authentic = true
	seqInCache := c.scache != nil && c.scache.Access(la)
	switch {
	case c.cfg.Oracle:
		res.SeqDone = now
		c.stats.OracleHits++
	case seqInCache:
		res.SeqDone = now
		res.SeqHit = true
		c.stats.SeqCacheHits++
	default:
		res.SeqDone = c.fetchCounter(now, la)
	}
	res.LineDone = c.dram.Access(now, la, ctr.LineSize, false)

	// Prediction only engages when the counter is not already on chip;
	// membership is still evaluated for the Figure 9 overlap accounting.
	// Every guess occupies a pipeline slot (a discarded pad's value is
	// unobservable, its timing is not); the whole burst is booked in one
	// batched engine pass.
	var padReady uint64
	if !c.cfg.Oracle {
		if guesses := c.pred.Predict(la); len(guesses) > 0 {
			if res.SeqHit {
				res.PredHit = slices.Contains(guesses, trueSeq)
			} else {
				var matchIdx int
				matchIdx, padReady = c.engine.ScheduleGuesses(now, guesses, trueSeq)
				res.PredHit = matchIdx >= 0
			}
			// The guess list is handed back so the hit depth is attributed
			// to this fetch's own guesses, never a stale internal buffer.
			c.pred.Observe(la, trueSeq, guesses)
		}
	}
	if res.PredHit {
		c.stats.PredHits++
		if res.SeqHit {
			c.stats.BothHits++
		}
	}
	if res.PredHit && !res.SeqHit {
		// A speculative pad is confirmed only when the true counter is
		// available for comparison.
		padReady = max(padReady, res.SeqDone)
	} else {
		// Not predicted, or the counter was on chip, where hardware takes
		// the demand path too.
		padReady = c.engine.ScheduleOnly(res.SeqDone, cryptoengine.ClassDemand)
	}
	res.Done = max(res.LineDone, padReady) + 1
}

// fetchDirect is the timing stage under direct encryption: decryption
// can only start once the whole ciphertext has arrived — the
// serialization counter mode exists to break.
func (c *Controller) fetchDirect(res *FetchResult, now, la uint64) {
	res.Authentic = true
	res.LineDone = c.dram.Access(now, la, ctr.LineSize, false)
	res.SeqDone = res.LineDone // no counters in this mode
	res.Done = c.engine.ScheduleOnly(res.LineDone, cryptoengine.ClassDemand) + 1
}

// payload is the fetch's data stage. Counter mode decrypts under the pad
// the line kept from its last encryption; only after the adversary has
// changed the counter is the pad recomputed from the keystream. The
// result is then verified against the integrity tree, handed to tamper
// handling if rejected, and compared with the architectural image.
func (c *Controller) payload(res *FetchResult, now, la uint64, cs *ctrState, ps *padState) {
	if c.direct != nil {
		res.Plain = c.direct.DecryptLine(ps.enc, la)
	} else {
		pad := &ps.pad
		var fresh ctr.Pad
		if !ps.padValid {
			c.engine.Keystream().PadInto(&fresh, la, res.TrueSeq)
			pad = &fresh
		}
		ctr.XORLine(&res.Plain, &ps.enc, pad)
	}

	// Integrity verification proceeds from ciphertext arrival, in
	// parallel with pad generation; data is architecturally usable only
	// once both decryption and verification complete.
	if c.tree != nil {
		ok, vDone := c.tree.Verify(res.LineDone, la, res.TrueSeq, ps.enc)
		res.Authentic = ok
		res.Done = max(res.Done, vDone+1)
		if !ok {
			c.handleTamper(res, now, la, cs, ps)
		}
	}

	if c.cfg.SelfCheck && (res.Authentic || res.Recovered) && !cs.tampered {
		want := c.image.LineRef(la) // nil for never-written memory, which reads as zero
		if (want != nil && res.Plain != *want) || (want == nil && res.Plain != (ctr.Line{})) {
			c.stats.SelfCheckFails++
			c.recordSecurityError(KindSelfCheck, la, res.TrueSeq, now)
		}
	}
}

// handleTamper reacts to a failed integrity verification at la: under
// RecoveryHalt it records the typed error (the simulator halts at its
// next checkpoint); under RecoveryQuarantine it quarantines the line,
// re-fetches within the retry budget, and heals persistent corruption
// from the protected domain, updating res with the recovered data and
// completion time.
func (c *Controller) handleTamper(res *FetchResult, now, la uint64, cs *ctrState, ps *padState) {
	c.stats.TamperDetected++
	if c.faults != nil {
		c.faults.ObserveDetection(la, res.Done)
	}
	if c.cfg.Recovery != RecoveryQuarantine {
		c.recordSecurityError(KindTamper, la, res.TrueSeq, now)
		return
	}
	plain, done := c.quarantine(res.Done, la, cs, ps)
	res.Plain = plain
	res.Recovered = true
	res.Done = max(res.Done, done)
}

// quarantine re-fetches a rejected line up to the retry budget (a
// transient fault would clear here) and, when the corruption persists,
// restores the line from the protected domain. It returns the usable
// plaintext and the cycle recovery completed.
func (c *Controller) quarantine(now uint64, la uint64, cs *ctrState, ps *padState) (ctr.Line, uint64) {
	c.sec.Quarantined++
	budget := c.cfg.RetryBudget
	if budget <= 0 {
		budget = DefaultRetryBudget
	}
	// Direct mode keys the tree with counter 0 everywhere (fetches and
	// writebacks); the re-verify must match or a transient fault could
	// never requalify.
	seq := cs.seq
	if c.direct != nil {
		seq = 0
	}
	t := now
	for i := 0; i < budget; i++ {
		c.sec.Retries++
		t = c.dram.Access(t, la, ctr.LineSize, false)
		ok, vDone := c.tree.Verify(t, la, seq, ps.enc)
		if vDone > t {
			t = vDone
		}
		if ok {
			// The re-read verified: the fault was transient. Decrypt the
			// (now trusted) off-chip copy functionally; the pad cost was
			// already paid on the demand path.
			c.sec.Requalified++
			if c.direct != nil {
				return c.direct.DecryptLine(ps.enc, la), t + 1
			}
			return c.engine.Keystream().DecryptLine(ps.enc, la, cs.seq), t + 1
		}
	}
	// Persistent corruption: restore from the architectural image under
	// a fresh counter, exactly like a writeback, and rewrite the tree
	// path. The degradation is counted; the line leaves quarantine clean.
	t = c.heal(t, la)
	return c.image.LineAt(la), t + 1
}

// heal is the recovery writeback: it re-encrypts la's architectural
// contents under a fresh counter and reinstalls its tree path, and it
// completes only once the tree update has too.
func (c *Controller) heal(now uint64, la uint64) uint64 {
	cs, ps := c.owned(la)
	c.sec.Healed++
	done, treeDone := c.writeback(now, la, cs, ps)
	return max(done, treeDone)
}

// EvictLine writes back the (dirty) line containing vaddr, re-encrypting
// the current architectural contents under the line's next counter value.
// It returns the cycle at which the writeback completes; writebacks are
// buffered in hardware, so callers normally ignore it beyond statistics.
func (c *Controller) EvictLine(now uint64, vaddr uint64) uint64 {
	la := mem.LineAddr(vaddr)
	c.stats.Evictions++
	cs, ps := c.owned(la) // a store-allocated line may never have been fetched
	if c.faults != nil && c.faults.WantsPairs() {
		// The adversary records the off-chip pair this writeback replaces:
		// the most stale replay material an attacker snooping the bus from
		// run begin could hold.
		c.faults.ObservePair(la, ps.enc, cs.seq)
	}
	done, _ := c.writeback(now, la, cs, ps)
	return done
}

// writeback is the one writeback pipeline behind EvictLine and heal. It
// books the engine's writeback pad and re-encrypts la's architectural
// contents — under the line's next counter in counter mode, under the
// address tweak in direct mode — then updates the tree and books the
// line and counter writes. Counters-only mode advances the counter and
// books identical timing without sealing any data. It returns the cycle
// the pad and the DRAM writes complete, and separately the cycle the
// tree update completes (0 without a tree).
func (c *Controller) writeback(now, la uint64, cs *ctrState, ps *padState) (done, treeDone uint64) {
	done = c.engine.ScheduleOnly(now, cryptoengine.ClassWriteback)
	var seq uint64
	if c.direct != nil {
		ps.enc = c.direct.EncryptLine(c.image.LineAt(la), la)
		cs.tampered = false
	} else {
		// Advance from the shadow goodSeq, never the off-chip counter: a
		// legitimate cs.seq equals goodSeq, and any divergence is
		// adversarial (rollback, replay, or underflow wrap) — a writeback
		// must never let it pick the pad.
		seq = c.pred.NextSeqForEvict(la, cs.goodSeq)
		c.seal(cs, ps, la, seq) // also clears tampered: the writeback replaces corrupted data
	}
	if c.tree != nil {
		treeDone = c.tree.Update(now, la, seq, ps.enc)
	}
	// The evicted line sits in the write buffer while its pad is
	// computed; its DRAM traffic is scheduled from the eviction time so
	// buffered writebacks do not block younger demand fetches (the model
	// serializes channel reservations in call order).
	done = max(done, c.dram.Access(now, la, ctr.LineSize, true))
	if c.direct == nil {
		// Counter writes are write-through; the cached copy (if any) is
		// updated in place.
		if c.scache != nil {
			c.scache.Update(la)
		}
		done = max(done, c.seqDRAM.Access(now, c.seqAddr(la), seqcache.SeqBytes, true))
	}
	return done, treeDone
}

// Seq returns the current counter of the line containing vaddr (tests).
func (c *Controller) Seq(vaddr uint64) uint64 {
	cs, _ := c.materialize(mem.LineAddr(vaddr))
	return cs.seq
}

// EncryptedLine returns the off-chip ciphertext of the line containing
// vaddr, as an adversary probing the RAM would see it (tests, examples).
// Panics in counters-only mode, which stores no ciphertext.
func (c *Controller) EncryptedLine(vaddr uint64) ctr.Line {
	if c.cfg.CountersOnly {
		panic("secmem: EncryptedLine on a counters-only controller")
	}
	la := mem.LineAddr(vaddr)
	_, ps := c.materialize(la)
	return ps.enc
}
