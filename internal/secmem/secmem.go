// Package secmem implements the secure memory controller: the boundary
// between the protected processor domain and the untrusted encrypted RAM
// (Figure 2). Every 32-byte block leaving the L2 is encrypted in counter
// mode; every block entering it is decrypted. The controller owns
//
//   - the encrypted off-chip image and the per-block counter table,
//   - the DRAM timing for line and counter fetches/writebacks (when it
//     has a data channel),
//   - the crypto-engine pipeline scheduling (likewise), and
//   - the counter-availability mechanisms under study: nothing (baseline),
//     a sequence-number cache, OTP prediction, the two combined, or an
//     oracle that always knows the counter (Figure 4's three timelines).
//
// A controller built without a data channel is untimed, the model of
// the paper's simplified hit-rate mode: its fetches and writebacks run
// every counter step — the counter caches, prediction, counter
// assignment and their statistics — and book no DRAM, engine or
// fetch-latency time.
//
// The controller is *functionally real*: it stores real AES-encrypted
// bytes, fetches really decrypt them, and a self-check compares each
// decryption against the architectural image in package mem. Prediction
// can therefore never corrupt data — a mispredicted pad simply fails the
// counter comparison and is discarded, exactly as in the hardware.
//
// A line's off-chip state is what the untrusted RAM holds for it: an
// 8-byte counter-table entry, and the ciphertext with the pad that
// sealed it. The adversary's writes (TamperData, TamperCounter,
// SpliceLines, ReplayStale) leave a forged (counter, ciphertext) pair
// beside that state rather than in it; a fetch reads the forgery in the
// line's place, and the line's next writeback discards it. The tables so
// hold only legitimate state, and every writeback advances from the last
// legitimate counter.
//
// Pads are computed only for lines whose data actually moves. Machines
// built from a shared pre-aged image (AgedTemplate) start from its
// counters, and each template line is encrypted the first time any of
// those machines fetches or writes it, into a slot every later machine
// reads; a cold machine pays AES for the lines it touches, not the
// whole image. A machine with an integrity tree reads the same slots and
// starts from a clone of the tree the image loads into (see
// AgedTemplate.LoadTree).
package secmem

import (
	"runtime"
	"sync"
	"sync/atomic"

	"ctrpred/internal/cache"
	"ctrpred/internal/cryptoengine"
	"ctrpred/internal/ctr"
	"ctrpred/internal/dram"
	"ctrpred/internal/faults"
	"ctrpred/internal/integrity"
	"ctrpred/internal/mem"
	"ctrpred/internal/paged"
	"ctrpred/internal/predictor"
	"ctrpred/internal/stats"
)

// Config parameterizes the controller.
type Config struct {
	// Oracle makes every counter available at request time (the paper's
	// normalization baseline for IPC figures).
	Oracle bool
	// Direct replaces counter mode with direct (XEX) memory encryption —
	// the prior-art organization the paper contrasts against: no counters
	// anywhere, but decryption strictly serializes after the line fetch.
	Direct bool
	// SelfCheck verifies every decryption against the architectural
	// image and every encryption against pad-reuse (cheap; on by default
	// in tests and examples).
	SelfCheck bool
	// CountersOnly skips the payload stage of every fetch and writeback:
	// the controller tracks counters, predictor state and the counter
	// caches — everything the hit-rate figures observe — and, when it has
	// a data channel, DRAM and engine timing, but never stores pads or
	// ciphertext and never XORs data. The timing stage is the same code
	// either way, so every statistic and every returned timing is
	// identical to the full model; only FetchResult.Plain, which has no
	// consumer in this mode, stays zero. Long functional-mode sweeps use
	// it, on an untimed controller, to cut the dominant allocations.
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
	// SeqCacheBytes > 0 gives the controller a dedicated sequence-number
	// cache of that capacity (SeqCacheGeometry), the prior-art scheme of
	// [Suh et al. 2003] and [Yang et al. 2003].
	SeqCacheBytes int
}

// DefaultConfig returns the standard controller configuration.
func DefaultConfig() Config {
	return Config{SelfCheck: true}
}

// The counter table sits at seqTableBase, far from data, one seqBytes
// counter per line, and is read and written over a dedicated channel of
// counterBanks banks with the data channel's timing: counter storage with
// its own devices, the usual organization. Interleaving 8-byte counter
// reads between line bursts on one channel would thrash open rows on
// every miss and penalize every scheme that must fetch counters.
const (
	seqTableBase = 1 << 40
	seqBytes     = 8
	counterBanks = 2
)

// SeqCacheGeometry returns the shape of a sequence-number cache of
// sizeBytes (4 KB … 512 KB in the paper's sweeps): 4-way (1-way below
// four lines) over 32-byte counter lines, so one cache line holds the
// counters of four adjacent memory blocks, the source of the scheme's
// spatial locality. Check it with Validate before New, which panics on a
// size the cache model cannot build.
func SeqCacheGeometry(sizeBytes int) cache.Config {
	ways := 4
	if sizeBytes/ctr.LineSize < ways {
		ways = 1
	}
	return cache.Config{Name: "seqcache", SizeBytes: sizeBytes, LineSize: ctr.LineSize, Ways: ways}
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
	// cycles (request to decrypted data); nil on an untimed controller,
	// which books no time.
	FetchLatency *stats.Histogram
	// DecryptExposed accumulates the cycles by which decryption completed
	// *after* the line arrived from memory — the latency the paper's
	// techniques try to drive to zero. It stays 0 when untimed.
	DecryptExposed uint64
}

// CounterCoverage returns the fraction of fetches whose counter was
// available without waiting for DRAM (predicted, cached, or oracle).
func (s *Stats) CounterCoverage() float64 {
	return stats.Rate(s.PredHits+s.SeqCacheHits-s.BothHits+s.OracleHits, s.Fetches)
}

// AddTo registers the controller's counters into a metrics snapshot node.
// An untimed controller's node has no timing entries.
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
	n.Value("counter_coverage", s.CounterCoverage())
	if s.FetchLatency != nil {
		n.Counter("decrypt_exposed_cycles", s.DecryptExposed)
		n.Histogram("fetch_latency", s.FetchLatency)
	}
}

// FetchResult describes one line fetch, for tests and tracing. On an
// untimed controller every cycle in it is the fetch's start, plus any
// hashing time of an attached tree.
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
	cfg Config
	// dram is the data channel, seqDRAM the counter-table channel and
	// engine the pad pipeline; all three are nil on an untimed controller.
	dram    *dram.DRAM
	seqDRAM *dram.DRAM
	engine  *cryptoengine.Engine
	ks      *ctr.Keystream // the source of every pad bit
	pred    *predictor.Predictor
	image   *mem.Memory // architectural plaintext

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
	ctrs *paged.Table[uint64]
	pads *paged.Table[padState]
	// forged holds the pairs the adversary wrote over lines, by line
	// address; nil until the first attack lands. A fetch reads a line's
	// forgery in place of its own pair, and the line's next writeback
	// deletes it. The tables above so never hold adversarial state: the
	// counter-table entry is the counter a writeback advances from (the
	// role the root of trust plays in hardware), and an attack on a
	// template line copies no page out of the template.
	forged map[uint64]pair
	// tmpl is the pre-aged template a full-model controller views (nil
	// otherwise). Its lines have no entry in pads until this controller
	// writes them; until then they read through the template's sealed
	// slots.
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

	// ctrBuf is the counter-line fetch buffer: counters are fetched at
	// DRAM burst granularity (a 32-byte counter line covers four memory
	// blocks), and the four most recently used counter lines remain in
	// the controller. This 128-byte buffer is part of the fetch pipeline
	// in every configuration; without it, every miss would pay a
	// separate 8-byte DRAM transaction for a counter its neighbor just
	// fetched.
	ctrBuf *cache.Cache
	// scache is the sequence-number cache, nil when Config.SeqCacheBytes
	// is 0: read-allocate on a fetch, write-update on a writeback, where
	// a miss allocates too (the evicted line is the block most recently
	// displaced, a likely near-future miss). Both caches are keyed by
	// counterLine, and counter writes are write-through, so neither holds
	// dirty state.
	scache *cache.Cache
}

// padState is the cold half of a line's off-chip state (the counter
// table is the hot half): its ciphertext and the pad that sealed it,
// touched only by paths that actually move data bits. Every path that
// sets a counter seals the line under it (a template slot's seal,
// materialization, writeback, heal), so the pad is always the OTP for
// (line address, counter): a fetch books its pipeline slots normally
// and skips re-running AES, the functional analogue of the paper's
// precomputation buffer. A template line this controller has not
// written has no padState of its own: it reads the template's sealed
// slot, and its first write copies that slot here.
type padState struct {
	enc ctr.Line // encrypted RAM contents
	pad ctr.Pad
}

// pair is a (counter, ciphertext) pair as the untrusted RAM holds it for
// one line: what the adversary forges, and what it snoops off the bus.
type pair struct {
	seq uint64
	enc ctr.Line
}

// New wires a controller. Lines move over data channel d, e books the
// pad requests' timing and ks supplies their bits. With d and e both nil
// the controller is untimed (see the package doc). pred must be non-nil
// (use predictor.SchemeNone for designs without prediction — the
// predictor still owns per-page roots and counter assignment).
func New(cfg Config, d *dram.DRAM, e *cryptoengine.Engine, ks *ctr.Keystream, pred *predictor.Predictor, image *mem.Memory) *Controller {
	if pred == nil {
		panic("secmem: predictor must not be nil")
	}
	if (d == nil) != (e == nil) {
		panic("secmem: a data channel and an engine come together; pass neither for an untimed controller")
	}
	if cfg.CountersOnly {
		if cfg.SelfCheck {
			panic("secmem: CountersOnly stores no plaintext to check; disable SelfCheck")
		}
		if cfg.Direct {
			panic("secmem: CountersOnly is meaningless under direct encryption")
		}
	}
	var seqD *dram.DRAM
	var lat *stats.Histogram
	if d != nil {
		seqD = dram.New(dram.Config{Banks: counterBanks})
		lat = stats.NewHistogram(100, 150, 200, 300, 500)
	}
	var direct *ctr.DirectCipher
	if cfg.Direct && ks != nil {
		direct = ks.DirectCipher()
	}
	var sc *cache.Cache
	if cfg.SeqCacheBytes > 0 {
		sc = cache.New(SeqCacheGeometry(cfg.SeqCacheBytes))
	}
	return &Controller{
		cfg:     cfg,
		direct:  direct,
		dram:    d,
		seqDRAM: seqD,
		engine:  e,
		ks:      ks,
		pred:    pred,
		image:   image,
		ctrs:    paged.New[uint64](ctr.LineSize),
		pads:    paged.New[padState](ctr.LineSize),
		stats:   Stats{FetchLatency: lat},
		ctrBuf:  cache.New(cache.Config{Name: "counter buffer", SizeBytes: 4 * ctr.LineSize, LineSize: ctr.LineSize, Ways: 4}),
		scache:  sc,
	}
}

// Stats returns the accumulated statistics (the histogram is shared).
func (c *Controller) Stats() Stats { return c.stats }

// SetFetchObserver registers fn to receive the exact latency of every
// line fetch the controller services, in cycles, as each completes; an
// untimed controller never calls it. The
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

// SeqCacheStats returns the sequence-number cache's statistics, or nil
// when the controller has none.
func (c *Controller) SeqCacheStats() *cache.Stats {
	if c.scache == nil {
		return nil
	}
	st := c.scache.Stats()
	return &st
}

// ContextSwitch empties the controller's on-chip counter state, the
// counter-line buffer and the sequence-number cache: the state a process
// finds when it is switched back in after another process's traffic
// displaced it. Per-page roots and other predictor state are the
// predictor's to keep or flush.
func (c *Controller) ContextSwitch() {
	c.ctrBuf.InvalidateAll()
	if c.scache != nil {
		c.scache.InvalidateAll()
	}
}

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
// decrypt to garbage; a fetch of a forged pair skips the plaintext
// self-check, so the corruption is observable, not a model bug.
// It refuses in counters-only mode (no ciphertext exists to corrupt).
// Implements faults.Target.
func (c *Controller) TamperData(la uint64, bit int) bool {
	if c.cfg.CountersOnly {
		return false
	}
	la = mem.LineAddr(la)
	p := c.offChip(la)
	p.enc[(bit/8)%ctr.LineSize] ^= 1 << (bit % 8)
	c.forge(la, p)
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
	la = mem.LineAddr(la)
	p := c.offChip(la)
	if delta == 0 || p.seq == 0 {
		return false // nothing to roll back; the attack stays armed
	}
	// Saturate rather than wrap: a fetch must never read an underflowed
	// ~2^64 counter.
	p.seq -= min(delta, p.seq)
	c.forge(la, p)
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
	pa, pb := c.offChip(la), c.offChip(lb)
	pa.enc, pb.enc = pb.enc, pa.enc
	c.forge(la, pa)
	c.forge(lb, pb)
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
	la = mem.LineAddr(la)
	p := pair{seq: seq, enc: enc}
	if c.offChip(la) == p {
		return false
	}
	c.forge(la, p)
	return true
}

// offChip returns the pair line la holds in the untrusted RAM,
// materializing the line if needed: the adversary's forgery if one is in
// place, else the line's own counter and (outside counters-only mode)
// ciphertext.
func (c *Controller) offChip(la uint64) pair {
	seq, ps := c.materialize(la)
	if p, ok := c.forged[la]; ok {
		return p
	}
	p := pair{seq: seq}
	if ps != nil {
		p.enc = ps.enc
	}
	return p
}

// forge writes the adversary's pair p over line la's off-chip state.
func (c *Controller) forge(la uint64, p pair) {
	if c.forged == nil {
		c.forged = make(map[uint64]pair)
	}
	c.forged[la] = p
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

// seqAddr is the address of la's counter in the counter table.
func seqAddr(la uint64) uint64 {
	return seqTableBase + la/ctr.LineSize*seqBytes
}

// counterLine is the address of the counter line holding la's counter:
// the key of both on-chip counter caches and the counter channel's read
// address.
func counterLine(la uint64) uint64 {
	return seqAddr(la) &^ uint64(ctr.LineSize-1)
}

// materialize lazily creates the encrypted copy of a line the first time
// the off-chip image is touched, modeling the loader writing the program
// image through the crypto engine. A template line already holds its
// counter: the root its page was mapped with, plus its aged offset, even
// if the page's root has reset since. Any other line is created under
// its page's current root. It returns the line's own counter and its pad
// half for *reading*: the pad half of a template line this controller
// never wrote is the template's sealed slot (see tmplLine), so mutation
// paths must go through owned instead. The pad half is nil in
// counters-only mode.
func (c *Controller) materialize(la uint64) (uint64, *padState) {
	if cs := c.ctrs.Lookup(la); cs != nil {
		if c.cfg.CountersOnly {
			return *cs, nil
		}
		if ps := c.pads.Lookup(la); ps != nil {
			return *cs, ps
		}
		return *cs, c.tmplLine(la, *cs)
	}
	cs, ps := c.owned(la)
	return *cs, ps
}

// owned returns la's off-chip state for *writing*: it materializes the
// line if needed and, when the state is a view of a shared template,
// forces the copy-on-write so the caller's mutation stays machine-local.
func (c *Controller) owned(la uint64) (*uint64, *padState) {
	cs, ps, fresh := c.ensure(la)
	if fresh {
		c.initLine(cs, ps, la, 0)
	}
	return cs, ps
}

// ensure creates la's table entries, or copies them out of a shared
// template, and reports whether the line is new. A template line's first
// write starts from its sealed slot. Counters-only mode never touches
// the pad table and returns a nil pad half.
func (c *Controller) ensure(la uint64) (*uint64, *padState, bool) {
	cs, fresh := c.ctrs.Ensure(la)
	if c.cfg.CountersOnly {
		return cs, nil, fresh
	}
	ps, padFresh := c.pads.Ensure(la)
	if padFresh && !fresh {
		// Only template lines have a counter but no pad entry.
		*ps = *c.tmplLine(la, *cs)
	}
	return cs, ps, fresh
}

// tmplLine returns template line la's sealed slot (see
// AgedTemplate.slot). An integrity controller's first touch of a line
// the loaded tree image lacks also installs the line's leaf under its
// template counter seq at cycle 0, as initLine does for a line eager
// aging creates at first touch.
func (c *Controller) tmplLine(la, seq uint64) *padState {
	ps := c.tmpl.slot(la)
	if c.tree != nil && !c.tree.Has(la) {
		c.tree.Update(0, la, seq, ps.enc)
	}
	return ps
}

// initLine encrypts a freshly created line's architectural contents into
// its off-chip state: under the page's root counter plus offset in
// counter mode (a nonzero offset models pre-aged update history), under
// the address tweak alone in direct mode. The tree leaf is installed at
// cycle 0, and that load update is timed: its node writes occupy the
// node cache and the data channel like any writeback's.
func (c *Controller) initLine(cs *uint64, ps *padState, la, offset uint64) {
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
func (c *Controller) seal(cs *uint64, ps *padState, la, seq uint64) {
	*cs = seq
	if ps != nil {
		sealPad(c.ks, c.image, ps, la, seq)
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
}

// AgeLine initializes the counter of the line containing vaddr to
// root+offset, modeling update history accumulated before the measured
// window (the paper's multi-billion-instruction fast-forward "updates the
// profiled memory status"). It must be called before the line is first
// fetched or evicted; calls after the line has been touched are ignored.
// Direct mode has no counter to age and just materializes the line.
// Machines start from an AgedTemplate instead; AgeLine is the per-line
// reference tests hold templates to.
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
// It has two halves. The counter half (8 bytes a line) is built eagerly
// and frozen; it is all a counters-only machine reads. The pad half is a
// table of slots, one per counter-half line, allocated when the first
// full-model controller attaches or the first tree loads: a slot holds
// the line's ciphertext and pad under its counter-half seq (68 bytes
// with its state) and is sealed the first time any attached controller
// or tree load reads or writes the line. A cold machine so pays AES only
// for the lines it touches, and every later machine reads the seals
// earlier ones made. Pads depend only on (key, line, seq), so the seal
// order never shows in any result. Controllers with and without an
// integrity tree read the same slots.
type AgedTemplate struct {
	ctrs *paged.Table[uint64]
	// ks and image are the slot seal's key and frozen plaintext. A
	// keystream serves one goroutine at a time, and controllers and tree
	// loads seal slots concurrently: sealMu takes turns.
	ks     *ctr.Keystream
	image  *mem.Memory
	sealMu sync.Mutex

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
// full-model controllers and tree loads have sealed so far.
func (t *AgedTemplate) SealedLines() int { return int(t.nsealed.Load()) }

// AgedLine is one sample of a workload's aging profile: the line at Addr
// starts the measured window Offset updates past its page root.
type AgedLine struct {
	Addr, Offset uint64
}

// BuildAgedTemplate runs the aging setup once into the counter half of a
// frozen template, in the order eager aging and first-touch
// materialization would reach each line: first the aged samples, in
// sampling order, each distinct line at its page root plus its offset
// (a repeated line keeps its first sample, as Controller.AgeLine skips a
// touched line); then every other line the image holds, in ascending
// address order, at its page root. roots maps a line address to its
// page root counter and is consulted exactly once per distinct line, in
// that order, so a caller drawing roots from a seeded stream reproduces
// the per-run draw sequence. The image's lines are added a page at a
// time from its presence bitmaps. ks and image supply the key and
// plaintext of the pad half, sealed later line by line; the caller must
// not modify image afterwards.
func BuildAgedTemplate(ks *ctr.Keystream, image *mem.Memory, roots func(la uint64) uint64, aged []AgedLine) *AgedTemplate {
	t := &AgedTemplate{ctrs: paged.New[uint64](ctr.LineSize), ks: ks, image: image}
	for _, a := range aged {
		la := mem.LineAddr(a.Addr)
		if cs, fresh := t.ctrs.Ensure(la); fresh {
			*cs = roots(la) + a.Offset
		}
	}
	mem.Cover(t.ctrs, image, func(la uint64, cs *uint64) { *cs = roots(la) })
	t.ctrs.Freeze()
	return t
}

// LoadTree installs into tree, at cycle 0 and in sampling order, the
// leaf of each distinct aged line: under its counter-half seq, over the
// ciphertext of its slot, which the load seals if no controller has
// (allocating the pad half if none has attached). A line the tree
// already holds is skipped, as AgeLine skips a touched line, so eager
// aging's samples reproduce the tree, node-cache and DRAM state that
// aging leaves on an integrity machine. Every line must be a template
// line.
func (t *AgedTemplate) LoadTree(tree *integrity.Tree, aged []AgedLine) {
	t.padOnce.Do(t.buildPadHalf)
	for _, a := range aged {
		la := mem.LineAddr(a.Addr)
		if !tree.Has(la) {
			tree.Update(0, la, *t.ctrs.Lookup(la), t.slot(la).enc)
		}
	}
}

// buildPadHalf allocates one empty slot per counter-half line, a page of
// slots per counter-half page, and the page pool, on the first
// full-model attach or tree load. It computes no pad.
func (t *AgedTemplate) buildPadHalf() {
	t.slots = paged.New[padSlot](ctr.LineSize)
	paged.Cover(t.slots, t.ctrs, nil)
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
		t.sealMu.Lock()
		sealPad(t.ks, t.image, &s.ps, la, *t.ctrs.Lookup(la))
		t.sealMu.Unlock()
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
	return cs != nil && *cs == seq
}

// UseAgedTemplate replaces the controller's empty off-chip state with a
// copy-on-write view of the template's counter half. A counters-only
// controller views the counter half alone. A full-model controller also
// reads the pad half (allocating its empty slots if no controller or tree
// load has yet), its own pad table starts empty, and it counts every
// template pad as used, so re-encrypting a line under its template
// counter is still a violation. An integrity controller attaches its tree
// first (see AttachIntegrity). The caller must have advanced the
// controller's predictor to the same per-page roots the template was
// built with — sim does this by replaying the root draws in template
// order. Must be called before any line is touched.
func (c *Controller) UseAgedTemplate(t *AgedTemplate) {
	if c.ctrs.Count() != 0 {
		panic("secmem: UseAgedTemplate after lines were touched")
	}
	c.ctrs = paged.NewView(t.ctrs)
	if c.cfg.CountersOnly {
		return
	}
	c.tracker.SetBase(t.usedPad)
	t.padOnce.Do(t.buildPadHalf)
	c.tmpl = t
	c.pads = paged.NewView(t.pool)
}

// Release returns the controller's copy-on-write line state to the aged
// template's page pools (a no-op unless UseAgedTemplate attached one),
// and a cloned tree's node pages to its image. The controller must not
// be used afterward.
func (c *Controller) Release() {
	c.ctrs.Release()
	c.pads.Release()
	if c.tree != nil {
		c.tree.Release()
	}
}

// FetchLine services an L2 miss for the line containing vaddr, starting
// at cycle now. It returns the decrypted line and full timing detail.
//
// Every fetch runs two stages. The timing stage — fetchTiming in counter
// mode, fetchDirect under direct encryption — books counter
// availability, the DRAM line access and the engine's pad requests, and
// fixes when the data is usable; on an untimed controller only its
// counter half runs. The payload stage then moves the data bits:
// decryption, integrity verification, tamper handling and the
// self-check. Counters-only mode stores no ciphertext and skips it.
func (c *Controller) FetchLine(now uint64, vaddr uint64) FetchResult {
	la := mem.LineAddr(vaddr)
	c.stats.Fetches++
	seq, ps := c.materialize(la)
	if c.faults != nil {
		if _, forged := c.forged[la]; !forged && c.faults.WantsPairs() {
			// The adversary snoops reads as well as writes: the pair on
			// the bus is replay material.
			c.faults.ObservePair(la, ps.enc, seq)
		}
		// The adversary strikes between the DRAM read and verification.
		c.faults.BeforeFetch(now, la)
	}
	// A forged pair is read in the line's place: its ciphertext under the
	// pad of its counter.
	var fp padState
	p, forged := c.forged[la]
	if forged {
		seq, fp.enc = p.seq, p.enc
		if c.direct == nil {
			c.ks.PadInto(&fp.pad, la, seq)
		}
		ps = &fp
	}
	var res FetchResult
	if c.direct != nil {
		c.fetchDirect(&res, now, la)
	} else {
		c.fetchTiming(&res, now, la, seq)
	}
	if ps != nil {
		c.payload(&res, now, la, ps, forged)
	}
	if c.dram != nil {
		c.observeFetch(now, &res)
	}
	return res
}

// fetchTiming is the counter-mode timing stage (Figure 4). Its counter
// half finds where the counter is — the oracle, the seq cache, the
// counter-line buffer or, failing those, the counter channel — and runs
// the predictor; a hit is decided by membership in the guess list, never
// by timing, so an untimed controller stops there. The timed half issues
// the counter fetch ahead of the line fetch (it is on the pad critical
// path) and streams both over DRAM; speculative pads are booked for the
// predicted counters, and a demand pad follows the true counter unless a
// prediction already covers it. Data is usable one XOR cycle after both
// ciphertext and pad are in hand.
func (c *Controller) fetchTiming(res *FetchResult, now, la, trueSeq uint64) {
	res.TrueSeq = trueSeq
	res.Authentic = true
	cl := counterLine(la)
	var seqInCache bool
	if c.scache != nil {
		seqInCache, _ = c.scache.Access(cl, false)
	}
	ctrFetch := false // the counter line must come over the counter channel
	switch {
	case c.cfg.Oracle:
		c.stats.OracleHits++
	case seqInCache:
		res.SeqHit = true
		c.stats.SeqCacheHits++
	default:
		hit, _ := c.ctrBuf.Access(cl, false)
		if hit {
			c.stats.CounterBufHits++
		}
		ctrFetch = !hit
	}

	// Prediction only engages when the counter is not already on chip;
	// membership is still evaluated for the Figure 9 overlap accounting.
	var guesses []uint64
	if !c.cfg.Oracle {
		if guesses = c.pred.Predict(la); len(guesses) > 0 {
			// The guess list is handed back so the hit depth is attributed
			// to this fetch's own guesses, never a stale internal buffer.
			res.PredHit = c.pred.Observe(la, trueSeq, guesses)
		}
	}
	if res.PredHit {
		c.stats.PredHits++
		if res.SeqHit {
			c.stats.BothHits++
		}
	}
	// An untimed controller stops here: its counter, line and data are
	// at hand the cycle the fetch starts.
	res.SeqDone, res.LineDone, res.Done = now, now, now
	if c.dram == nil {
		return
	}

	if ctrFetch {
		res.SeqDone = c.seqDRAM.Access(now, cl, ctr.LineSize, false)
	}
	res.LineDone = c.dram.Access(now, la, ctr.LineSize, false)
	// Every guess occupies a pipeline slot (a discarded pad's value is
	// unobservable, its timing is not); the whole burst is booked in one
	// batched engine pass.
	var padReady uint64
	if len(guesses) > 0 && !res.SeqHit {
		_, padReady = c.engine.ScheduleGuesses(now, guesses, trueSeq)
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
// serialization counter mode exists to break. It has no counter half.
func (c *Controller) fetchDirect(res *FetchResult, now, la uint64) {
	res.Authentic = true
	res.LineDone, res.Done = now, now
	if c.dram != nil {
		res.LineDone = c.dram.Access(now, la, ctr.LineSize, false)
		res.Done = c.engine.ScheduleOnly(res.LineDone, cryptoengine.ClassDemand) + 1
	}
	res.SeqDone = res.LineDone // no counters in this mode
}

// payload is the fetch's data stage. Counter mode decrypts under the pad
// kept with the ciphertext: the line's own, or for a forged pair the pad
// recomputed for its counter. The result is then verified against the
// integrity tree, handed to tamper handling if rejected, and, unless the
// pair was forged, compared with the architectural image.
func (c *Controller) payload(res *FetchResult, now, la uint64, ps *padState, forged bool) {
	if c.direct != nil {
		res.Plain = c.direct.DecryptLine(ps.enc, la)
	} else {
		ctr.XORLine(&res.Plain, &ps.enc, &ps.pad)
	}

	// Integrity verification proceeds from ciphertext arrival, in
	// parallel with pad generation; data is architecturally usable only
	// once both decryption and verification complete.
	if c.tree != nil {
		ok, vDone := c.tree.Verify(res.LineDone, la, res.TrueSeq, ps.enc)
		res.Authentic = ok
		res.Done = max(res.Done, vDone+1)
		if !ok {
			c.handleTamper(res, now, la, ps)
		}
	}

	if c.cfg.SelfCheck && (res.Authentic || res.Recovered) && !forged {
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
// completion time. ps holds the ciphertext the fetch read.
func (c *Controller) handleTamper(res *FetchResult, now, la uint64, ps *padState) {
	c.stats.TamperDetected++
	if c.faults != nil {
		c.faults.ObserveDetection(la, res.Done)
	}
	if c.cfg.Recovery != RecoveryQuarantine {
		c.recordSecurityError(KindTamper, la, res.TrueSeq, now)
		return
	}
	plain, done := c.quarantine(res.Done, la, res.TrueSeq, ps)
	res.Plain = plain
	res.Recovered = true
	res.Done = max(res.Done, done)
}

// quarantine re-fetches a rejected line up to the retry budget (a
// transient fault would clear here) and, when the corruption persists,
// restores the line from the protected domain. seq and ps are the
// rejected pair. It returns the usable plaintext and the cycle recovery
// completed.
func (c *Controller) quarantine(now uint64, la, seq uint64, ps *padState) (ctr.Line, uint64) {
	c.sec.Quarantined++
	budget := c.cfg.RetryBudget
	if budget <= 0 {
		budget = DefaultRetryBudget
	}
	// Direct mode keys the tree with counter 0 everywhere (fetches and
	// writebacks); the re-verify must match or a transient fault could
	// never requalify.
	if c.direct != nil {
		seq = 0
	}
	t := now
	for i := 0; i < budget; i++ {
		c.sec.Retries++
		if c.dram != nil {
			t = c.dram.Access(t, la, ctr.LineSize, false)
		}
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
			return c.ks.DecryptLine(ps.enc, la, seq), t + 1
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
		p := c.offChip(la)
		c.faults.ObservePair(la, p.enc, p.seq)
	}
	done, _ := c.writeback(now, la, cs, ps)
	return done
}

// writeback is the one writeback pipeline behind EvictLine and heal. It
// re-encrypts la's architectural contents — under the line's next
// counter in counter mode, under the address tweak in direct mode —
// replacing any pair the adversary forged at la, updates the tree and
// the seq cache, and then books the engine's writeback pad and the line
// and counter writes. Counters-only mode advances the counter and books
// identical timing without sealing any data; an untimed controller
// books no time. It returns the cycle the pad and the DRAM writes
// complete (now when untimed), and separately the cycle the tree update
// completes (0 without a tree).
func (c *Controller) writeback(now, la uint64, cs *uint64, ps *padState) (done, treeDone uint64) {
	delete(c.forged, la)
	var seq uint64
	if c.direct != nil {
		ps.enc = c.direct.EncryptLine(c.image.LineAt(la), la)
	} else {
		// The counter table holds no forged counter, so the pad is never
		// picked by a rollback or a replay.
		seq = c.pred.NextSeqForEvict(la, *cs)
		c.seal(cs, ps, la, seq)
	}
	if c.tree != nil {
		treeDone = c.tree.Update(now, la, seq, ps.enc)
	}
	if c.direct == nil && c.scache != nil {
		// Counter writes are write-through; the seq cache is updated in
		// place, allocating on a miss.
		c.scache.Access(counterLine(la), false)
	}
	if c.dram == nil {
		return now, treeDone
	}

	// The evicted line sits in the write buffer while its pad is
	// computed; its DRAM traffic is scheduled from the eviction time so
	// buffered writebacks do not block younger demand fetches (the model
	// serializes channel reservations in call order, the tree's node
	// writes above first).
	done = c.engine.ScheduleOnly(now, cryptoengine.ClassWriteback)
	done = max(done, c.dram.Access(now, la, ctr.LineSize, true))
	if c.direct == nil {
		done = max(done, c.seqDRAM.Access(now, seqAddr(la), seqBytes, true))
	}
	return done, treeDone
}

// Seq returns the off-chip counter of the line containing vaddr, as an
// adversary probing the RAM would see it (tests).
func (c *Controller) Seq(vaddr uint64) uint64 {
	return c.offChip(mem.LineAddr(vaddr)).seq
}

// EncryptedLine returns the off-chip ciphertext of the line containing
// vaddr, as an adversary probing the RAM would see it (tests, examples).
// Panics in counters-only mode, which stores no ciphertext.
func (c *Controller) EncryptedLine(vaddr uint64) ctr.Line {
	if c.cfg.CountersOnly {
		panic("secmem: EncryptedLine on a counters-only controller")
	}
	return c.offChip(mem.LineAddr(vaddr)).enc
}
