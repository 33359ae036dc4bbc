// Package sim wires a complete secure processor — out-of-order core,
// cache/TLB hierarchy, DRAM, crypto engine, secure memory controller, and
// one of the counter-availability schemes — around a workload, runs it,
// and collects every statistic the paper's figures need.
//
// Two modes mirror the paper's methodology (Section 5.1): Performance
// mode runs the detailed out-of-order model and reports IPC; HitRate mode
// runs the fast functional model over longer windows and reports
// prediction/seq-cache hit rates. The functional core reads no latency,
// so a HitRate machine has no DRAM channels or cipher engine and books
// no time below its core: its controller is untimed (see package
// secmem). A HitRate run's front end does the same work under every
// counter scheme, so RunGroupContext runs one front end for several
// schemes at once.
package sim

import (
	"context"
	"errors"
	"fmt"

	"ctrpred/internal/cache"
	"ctrpred/internal/cpu"
	"ctrpred/internal/cryptoengine"
	"ctrpred/internal/ctr"
	"ctrpred/internal/dram"
	"ctrpred/internal/faults"
	"ctrpred/internal/integrity"
	"ctrpred/internal/mem"
	"ctrpred/internal/memsys"
	"ctrpred/internal/predictor"
	"ctrpred/internal/secmem"
	"ctrpred/internal/workload"
)

// Mode selects the simulation fidelity.
type Mode int

const (
	// Performance runs the out-of-order timing model (IPC figures).
	Performance Mode = iota
	// HitRate runs the fast functional model (prediction-rate figures).
	HitRate
)

func (m Mode) String() string {
	if m == HitRate {
		return "hitrate"
	}
	return "performance"
}

// Scheme describes the counter-availability mechanism under test.
type Scheme struct {
	// Name is the label used in experiment output.
	Name string
	// SeqCacheBytes > 0 adds a sequence-number cache of that size.
	SeqCacheBytes int
	// Pred selects the prediction scheme (predictor.SchemeNone disables).
	Pred predictor.Scheme
	// PredConfig optionally overrides the predictor's settings; when
	// nil, predictor.DefaultConfig() is used. The scheme is Pred either
	// way, and the root seed derives from Config.Seed.
	PredConfig *predictor.Config
	// Oracle makes every counter available instantly.
	Oracle bool
	// Direct uses direct (XEX) memory encryption instead of counter mode.
	Direct bool
}

// Canonical schemes used across the experiments.
func SchemeBaseline() Scheme { return Scheme{Name: "baseline"} }
func SchemeOracle() Scheme   { return Scheme{Name: "oracle", Oracle: true} }
func SchemeDirect() Scheme   { return Scheme{Name: "direct", Direct: true} }
func SchemeSeqCache(bytes int) Scheme {
	return Scheme{Name: "seqcache-" + sizeLabel(bytes), SeqCacheBytes: bytes}
}
func SchemePred(p predictor.Scheme) Scheme {
	return Scheme{Name: "pred-" + p.String(), Pred: p}
}
func SchemeCombined(bytes int, p predictor.Scheme) Scheme {
	return Scheme{
		Name:          fmt.Sprintf("seqcache-%s+pred-%s", sizeLabel(bytes), p),
		SeqCacheBytes: bytes,
		Pred:          p,
	}
}

// sizeLabel renders a capacity for scheme names: whole KiB above 1 KiB
// (1 MiB stays "1024K", matching the figures' labels), raw bytes below —
// a 512-byte cache is "512B", not the truncated "0K".
func sizeLabel(bytes int) string {
	if bytes < 1<<10 {
		return fmt.Sprintf("%dB", bytes)
	}
	return fmt.Sprintf("%dK", bytes>>10)
}

// Config is a full machine + run configuration.
type Config struct {
	CPU cpu.Config
	Mem memsys.Config
	// Engine selects the cipher-engine timing model (see
	// cryptoengine.ParseEngine). The zero Spec is the default pipelined
	// AES, so configs predating engine models keep their meaning.
	Engine cryptoengine.Spec
	Scheme Scheme
	Scale  workload.Scale
	Mode   Mode
	// Seed drives workload layout, key material and predictor roots.
	Seed uint64
	// SelfCheck verifies decryptions and pad uniqueness while running.
	SelfCheck bool
	// Integrity attaches the hash-tree memory authentication the paper
	// assumes alongside encryption (Section 2.2): every fetch verifies,
	// every writeback updates the tree.
	Integrity bool
	// CheckInterval is the number of committed instructions between
	// run checkpoints (context cancellation and security-halt polling).
	// A cancel or a RecoveryHalt detection therefore lands within one
	// interval of simulated instructions, not at run granularity. 0
	// means DefaultCheckInterval. It has no effect on timing or
	// statistics.
	CheckInterval uint64
	// Faults arms the adversarial fault injector with an attack plan
	// (nil = clean memory). Without the integrity tree most attacks pass
	// undetected — that is the paper's point — so campaigns should pair
	// Faults with Integrity.
	Faults *faults.Plan
	// Recovery selects the controller's reaction to detected tampering:
	// halt at the first detection (default) or quarantine-and-heal.
	Recovery secmem.RecoveryPolicy
	// RetryBudget bounds quarantine re-fetch attempts (0 = secmem's
	// DefaultRetryBudget).
	RetryBudget int
}

// DefaultCheckInterval is the cancellation-checkpoint spacing used when
// Config.CheckInterval is zero: small enough that a cancel lands in
// well under a second of wall-clock simulation, large enough that the
// poll is unmeasurable against the per-instruction work.
const DefaultCheckInterval = 10_000

// DefaultConfig returns the Table 1 machine with the given scheme, the
// 256 KB L2, performance mode, and the default workload scale.
func DefaultConfig(s Scheme) Config {
	return Config{
		Mem:       memsys.DefaultConfig(),
		Engine:    cryptoengine.DefaultSpec(),
		Scheme:    s,
		Scale:     workload.DefaultScale(),
		Mode:      Performance,
		Seed:      1,
		SelfCheck: true,
	}
}

// WithL2 returns the config with the given L2 size (its latency
// follows, see memsys.Config.L2Latency).
func (c Config) WithL2(size int) Config {
	c.Mem.L2Size = size
	return c
}

// WithMode returns the config in the given mode. It leaves the
// dirty-flush interval alone; a caller that compresses the run's window
// scales the interval itself, as the figure harness does.
func (c Config) WithMode(m Mode) Config {
	c.Mode = m
	return c
}

// WithIntegrity returns the config with hash-tree protection enabled.
func (c Config) WithIntegrity() Config {
	c.Integrity = true
	return c
}

// WithSeed returns the config with the given seed for workload layout,
// key material and predictor roots.
func (c Config) WithSeed(seed uint64) Config {
	c.Seed = seed
	return c
}

// WithInstrBudget returns the config with the given dynamic instruction
// budget.
func (c Config) WithInstrBudget(n uint64) Config {
	c.Scale.Instructions = n
	return c
}

// WithFootprint returns the config with the given workload working-set
// target in bytes.
func (c Config) WithFootprint(bytes int) Config {
	c.Scale.Footprint = bytes
	return c
}

// WithFaults returns the config with the given attack plan armed.
func (c Config) WithFaults(p *faults.Plan) Config {
	c.Faults = p
	return c
}

// WithRecovery returns the config with the given recovery policy.
func (c Config) WithRecovery(p secmem.RecoveryPolicy) Config {
	c.Recovery = p
	return c
}

// WithEngine returns the config with the given cipher-engine model.
// The spec is normalized so equivalent specs fingerprint identically.
func (c Config) WithEngine(s cryptoengine.Spec) Config {
	c.Engine = s.Normalized()
	return c
}

// Result carries everything a run produced.
type Result struct {
	Benchmark string
	Scheme    string
	Mode      Mode

	CPU  cpu.Stats
	Ctrl secmem.Stats
	Pred predictor.Stats
	// Engine and DRAM are the timing models' statistics, zero in HitRate
	// mode, which has neither.
	Engine    cryptoengine.Stats
	DRAM      dram.Stats
	Hierarchy memsys.Stats
	L1D, L2   cache.Stats
	SeqCache  *cache.Stats     // nil when the scheme has none
	Integrity *integrity.Stats // nil when the tree is disabled
	// Security carries the recovery/degradation counters; nil unless the
	// injector was armed or a security event occurred, so clean-run
	// snapshots are unchanged.
	Security *secmem.SecurityStats
	// Faults is the injector's ledger; nil when no injector was armed.
	Faults *faults.Stats

	// PadViolations counts one-time-pad reuse (must be 0).
	PadViolations uint64
}

// IPC returns instructions per cycle (performance mode).
func (r Result) IPC() float64 { return r.CPU.IPC() }

// PredRate returns the sequence-number prediction rate.
func (r Result) PredRate() float64 { return r.Pred.HitRate() }

// SeqHitRate returns the sequence-number cache hit rate over fetches.
func (r Result) SeqHitRate() float64 {
	if r.Ctrl.Fetches == 0 {
		return 0
	}
	return float64(r.Ctrl.SeqCacheHits) / float64(r.Ctrl.Fetches)
}

// Machine is an assembled simulator instance. Most callers use Run; the
// examples use Machine directly to poke at components. The counter
// side's components — Ctrl, Pred, Engine, DRAM and Faults — are
// promoted from the embedded side.
type Machine struct {
	Config Config
	// Benchmark is the workload the machine was built for; results carry
	// it so a Result can never be mislabeled by the caller.
	Benchmark string
	Image     *mem.Memory
	Core      *cpu.Core
	Sys       *memsys.System
	*side
	// mirrors are the further counter sides of a group run, driven by the
	// same hierarchy as the machine's own (see RunGroupContext).
	mirrors []*side

	// progress, when set, is invoked at every RunContext checkpoint with
	// the committed-instruction count. It rides the existing
	// CheckInterval polling, so it has zero cost when unset and no
	// effect on timing or statistics either way.
	progress func(committed uint64)
}

// side is one counter side: the secure memory controller (with its
// on-chip counter caches) and its predictor, and in performance mode its
// cipher-engine model and DRAM channels. Everything above it — the image
// view, the core, the caches, the TLBs and memsys — is the front end,
// which a group run shares among several sides.
type side struct {
	Ctrl *secmem.Controller
	Pred *predictor.Predictor
	// Engine and DRAM (the data channel) are nil on a HitRate side.
	Engine *cryptoengine.Engine
	DRAM   *dram.DRAM
	// Faults is the armed adversary, or nil for clean memory.
	Faults *faults.Injector

	scheme string // labels the side's Result
}

// OnProgress registers fn to be called at every RunContext checkpoint
// (every Config.CheckInterval committed instructions) with the number of
// instructions committed so far. Long-running services use it to stream
// liveness without touching the simulation's behavior. Pass nil to
// unregister.
func (m *Machine) OnProgress(fn func(committed uint64)) { m.progress = fn }

// Close returns the machine's copy-on-write pages — the architectural
// image view, the controllers' line state and a cloned integrity tree's
// node tables — to their templates' shared pools, so the next machine of
// the sweep reuses the memory
// instead of allocating it. The machine must not be run or inspected
// afterward. Optional: an unclosed machine is reclaimed by the garbage
// collector as usual, it just recycles nothing.
func (m *Machine) Close() {
	m.Ctrl.Release()
	for _, s := range m.mirrors {
		s.Ctrl.Release()
	}
	m.Image.Release()
}

// countersOnly reports whether cfg runs the controller's counters-only
// model. Functional hit-rate runs observe only counter, predictor and
// cache dynamics, and their controllers book no time; when nothing needs
// the plaintext path either — no self-check, no integrity tree, no armed
// adversary, not direct encryption — the controller also skips its
// payload stage: identical statistics without storing pads or
// ciphertext. This is what lets long hit-rate sweeps run in a fraction
// of the memory, and what lets a row of them share one front end.
func countersOnly(cfg Config) bool {
	return cfg.Mode == HitRate && !cfg.SelfCheck && !cfg.Integrity &&
		cfg.Faults == nil && !cfg.Scheme.Direct
}

// NewMachine builds the machine and loads the named workload. The
// seed-deterministic parts — assembled program, written image, aging
// profile, pre-aged encrypted state and the hash tree loaded with it —
// come from a process-wide template cache (see template.go) and are
// attached copy-on-write or cloned, so building the N-th machine of a
// sweep costs caches and predictor state, not a rebuild of megabytes of
// identical memory contents.
func NewMachine(bench string, cfg Config) (*Machine, error) {
	return build(bench, []Config{cfg})
}

// build assembles one front end, decided by cfgs[0], around one counter
// side per config: the first is the machine's own, the rest its mirrors.
func build(bench string, cfgs []Config) (*Machine, error) {
	cfg := cfgs[0]
	tmpl, err := getTemplate(bench, cfg)
	if err != nil {
		return nil, err
	}
	image := mem.NewView(tmpl.image)
	sides := make([]*side, len(cfgs))
	ctrls := make([]*secmem.Controller, len(cfgs))
	for i, c := range cfgs {
		if sides[i], err = newSide(c, tmpl, image); err != nil {
			return nil, err
		}
		ctrls[i] = sides[i].Ctrl
	}
	sys := memsys.New(cfg.Mem, ctrls[0], ctrls[1:]...)
	core := cpu.New(cfg.CPU, tmpl.prog, image, sys)
	if inj := sides[0].Faults; inj != nil {
		inj.SetInstrSource(core.Committed)
	}
	return &Machine{
		Config: cfg, Benchmark: bench, Image: image, Core: core, Sys: sys,
		side: sides[0], mirrors: sides[1:],
	}, nil
}

// newSide builds cfg's counter side over the template and the machine's
// image view, aged as a long fast-forward would have left it: it views
// the template's pre-aged counters copy-on-write and replays the
// template's per-page root draws into its own predictor. An integrity
// side starts from a clone of the tree the template loads with those
// counters, on a clone of the data channel that load wrote to in
// performance mode and on no channel in HitRate mode. Direct mode has
// no counters to age: it starts from a fresh channel (and tree) and
// encrypts each line at first touch.
func newSide(cfg Config, tmpl *machineTemplate, image *mem.Memory) (*side, error) {
	var d *dram.DRAM
	var tree *integrity.Tree
	if cfg.Integrity && !cfg.Scheme.Direct {
		imgTree, imgDRAM := tmpl.treeImage()
		if cfg.Mode == Performance {
			d = imgDRAM.Clone()
		}
		tree = imgTree.Clone(d)
	} else {
		d = dataChannel(cfg)
		if cfg.Integrity {
			tree = integrity.New(integrity.DefaultConfig(), d)
		}
	}
	s, err := wireSide(cfg, d, tree, image)
	if err != nil || cfg.Scheme.Direct {
		return s, err
	}
	if cfg.Scheme.Pred == predictor.SchemeTwoLevel {
		// The paper simulates the prediction mechanism during
		// fast-forward, so two-level range state starts warm. The table
		// walks create pages in sample order, the order the template
		// drew their roots in.
		for _, a := range tmpl.ageList {
			s.Pred.WarmRange(a.Addr, a.Offset)
		}
	}
	for _, la := range tmpl.agePages {
		s.Pred.Root(la)
	}
	s.Ctrl.UseAgedTemplate(tmpl.aged)
	return s, nil
}

// dataChannel returns a fresh data channel for a performance-mode side
// and nil for a HitRate one.
func dataChannel(cfg Config) *dram.DRAM {
	if cfg.Mode == HitRate {
		return nil
	}
	return dram.New(dram.DefaultConfig())
}

// wireSide builds cfg's predictor and controller over data channel d and,
// when there is one, cfg's engine; it attaches tree when it is non-nil
// and arms cfg's fault plan. A side without a channel is untimed, but
// its engine spec must still name a known model. The side's off-chip
// state starts empty.
func wireSide(cfg Config, d *dram.DRAM, tree *integrity.Tree, image *mem.Memory) (*side, error) {
	var engine *cryptoengine.Engine
	var err error
	if d != nil {
		engine, err = cryptoengine.New(cfg.Engine)
	} else {
		err = cfg.Engine.Validate()
	}
	if err != nil {
		return nil, err
	}

	pcfg := predictor.DefaultConfig()
	if cfg.Scheme.PredConfig != nil {
		pcfg = *cfg.Scheme.PredConfig
	}
	pred := predictor.New(cfg.Scheme.Pred, pcfg, rootSeed(cfg.Seed))

	scfg := secmem.DefaultConfig()
	scfg.Oracle = cfg.Scheme.Oracle
	scfg.Direct = cfg.Scheme.Direct
	scfg.SelfCheck = cfg.SelfCheck
	scfg.CountersOnly = countersOnly(cfg)
	scfg.Scheme = cfg.Scheme.Name
	scfg.Recovery = cfg.Recovery
	scfg.RetryBudget = cfg.RetryBudget
	scfg.SeqCacheBytes = cfg.Scheme.SeqCacheBytes
	ctrl := secmem.New(scfg, d, engine, ctr.NewKeystream(machineKey(cfg.Seed)), pred, image)
	if tree != nil {
		ctrl.AttachIntegrity(tree)
	}
	var inj *faults.Injector
	if cfg.Faults != nil {
		inj = faults.NewInjector(*cfg.Faults, cfg.Seed^0xfa0175)
		ctrl.ArmFaults(inj)
	}
	return &side{
		Ctrl: ctrl, Pred: pred, Engine: engine, DRAM: d,
		Faults: inj, scheme: cfg.Scheme.Name,
	}, nil
}

// rootSeed derives the seed of a machine's page-root generator from the
// run seed. The template draws its roots from the same generator, so a
// machine replaying them holds the roots the template aged its lines
// under.
func rootSeed(seed uint64) uint64 { return seed ^ 0xabcdef }

// Run executes the machine to the configured instruction budget and
// collects the result, labeled with the benchmark the machine was built
// for.
func (m *Machine) Run() Result {
	res, _ := m.RunContext(context.Background())
	return res
}

// RunContext is Run with cancellation and security-halt propagation: a
// checkpoint polled every Config.CheckInterval committed instructions
// stops the simulation within one interval of a context cancel, a
// deadline expiry, or — under RecoveryHalt — the controller recording a
// *SecurityError on tampered memory. On interruption the partial Result
// collected so far is returned alongside the error (mirroring the
// sweep-level *PartialError contract). A clean run whose checkpoints
// never fire is cycle-for-cycle identical to Run.
func (m *Machine) RunContext(ctx context.Context) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	return m.collect(m.run(ctx), m.side), m.runErr()
}

// run drives the core to the configured instruction budget under the
// checkpoint poll and returns its statistics.
func (m *Machine) run(ctx context.Context) cpu.Stats {
	m.armCheckpoint(ctx)
	defer m.Core.SetCheckpoint(0, nil)
	if m.Config.Mode == HitRate {
		return m.Core.RunFunctional(m.Config.Scale.Instructions)
	}
	return m.Core.Run(m.Config.Scale.Instructions)
}

// armCheckpoint installs the per-interval poll RunContext and
// RunSliceContext share: progress streaming, security-halt propagation,
// and context cancellation.
func (m *Machine) armCheckpoint(ctx context.Context) {
	interval := m.Config.CheckInterval
	if interval == 0 {
		interval = DefaultCheckInterval
	}
	ctxErr := func() error { return nil }
	if ctx.Done() != nil {
		ctxErr = ctx.Err
	}
	m.Core.SetCheckpoint(interval, func() error {
		if m.progress != nil {
			m.progress(m.Core.Committed())
		}
		if err := m.Ctrl.SecurityErr(); err != nil {
			return err
		}
		return ctxErr()
	})
}

// runErr resolves what interrupted the core, if anything.
func (m *Machine) runErr() error {
	err := m.Core.StopCause()
	if err == nil {
		// A violation inside the final checkpoint interval still halts
		// the result, even though no checkpoint fired after it.
		err = m.Ctrl.SecurityErr()
	}
	return err
}

// collect assembles counter side s's Result from the front end's
// current statistics and the side's own.
func (m *Machine) collect(cs cpu.Stats, s *side) Result {
	_, l1d, l2 := m.Sys.Caches()
	res := Result{
		Benchmark:     m.Benchmark,
		Scheme:        s.scheme,
		Mode:          m.Config.Mode,
		CPU:           cs,
		Ctrl:          s.Ctrl.Stats(),
		Pred:          s.Pred.Stats(),
		Hierarchy:     m.Sys.Stats(),
		L1D:           l1d.Stats(),
		L2:            l2.Stats(),
		SeqCache:      s.Ctrl.SeqCacheStats(),
		PadViolations: s.Ctrl.PadViolations(),
	}
	if s.DRAM != nil {
		res.Engine = s.Engine.Stats()
		res.DRAM = s.DRAM.Stats()
	}
	if tree := s.Ctrl.IntegrityTree(); tree != nil {
		st := tree.Stats()
		res.Integrity = &st
	}
	if s.Faults != nil {
		fs := s.Faults.Stats()
		res.Faults = &fs
	}
	if ss := s.Ctrl.SecurityStats(); s.Faults != nil || ss != (secmem.SecurityStats{}) {
		res.Security = &ss
	}
	return res
}

// RunSliceContext runs the machine's timing core until its
// committed-instruction count reaches target (an absolute count), one
// timeslice of a longer residency: dirty lines are left in place so the
// next slice — or Finish, which drains them — continues where this one
// stopped. Checkpoints poll exactly as in RunContext. It reports whether
// the core can continue (false once the program halts or the budget
// passes target) alongside any interrupting error. Slicing is a
// performance-mode facility: a HitRate machine books no time for the
// timing core to wait on, so it runs whole via RunContext and slicing it
// is an error.
func (m *Machine) RunSliceContext(ctx context.Context, target uint64) (bool, error) {
	if m.Config.Mode == HitRate {
		return false, errors.New("sim: a HitRate machine cannot run in slices; use RunContext")
	}
	if err := ctx.Err(); err != nil {
		return false, err
	}
	m.armCheckpoint(ctx)
	defer m.Core.SetCheckpoint(0, nil)
	m.Core.RunSlice(target)
	if err := m.runErr(); err != nil {
		return false, err
	}
	return !m.Core.Halted(), nil
}

// SwitchIn applies the context-switch disturbance another process left
// behind before this machine's next slice runs: dirty data written back
// (advancing counters), caches, TLBs and the controller's counter caches
// invalidated, and — unless retainPredictor — the predictor's transient
// state flushed. Per-page roots always survive; they are part of the
// saved process context (see predictor.FlushTransient).
func (m *Machine) SwitchIn(retainPredictor bool) {
	m.Sys.ContextSwitch(m.Core.Stats().Cycles)
	if !retainPredictor {
		m.Pred.FlushTransient()
	}
}

// Finish closes a sliced run: still-dirty lines are written back into
// the measured region, as Run's epilogue does, and the Result is
// assembled from everything the slices accumulated.
func (m *Machine) Finish() Result {
	m.Sys.DrainDirty(m.Core.Stats().Cycles)
	return m.collect(m.Core.Stats(), m.side)
}

// Run builds and runs the named benchmark under cfg.
func Run(bench string, cfg Config) (Result, error) {
	return RunContext(context.Background(), bench, cfg)
}

// RunContext builds and runs the named benchmark under cfg, polling ctx
// at Config.CheckInterval instruction checkpoints so cancellation lands
// within a bounded amount of simulated work.
func RunContext(ctx context.Context, bench string, cfg Config) (Result, error) {
	m, err := NewMachine(bench, cfg)
	if err != nil {
		return Result{}, err
	}
	defer m.Close()
	return m.RunContext(ctx)
}
