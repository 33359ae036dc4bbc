// Package sim wires a complete secure processor — out-of-order core,
// cache/TLB hierarchy, DRAM, crypto engine, secure memory controller, and
// one of the counter-availability schemes — around a workload, runs it,
// and collects every statistic the paper's figures need.
//
// Two modes mirror the paper's methodology (Section 5.1): Performance
// mode runs the detailed out-of-order model and reports IPC; HitRate mode
// runs the fast functional model over longer windows and reports
// prediction/seq-cache hit rates.
package sim

import (
	"context"
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
	"ctrpred/internal/seqcache"
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
	// PredConfig optionally overrides the full predictor configuration;
	// when nil, predictor.DefaultConfig(Pred) is used.
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
	CPU  cpu.Config
	Mem  memsys.Config
	DRAM dram.Config
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
		CPU:       cpu.DefaultConfig(),
		Mem:       memsys.DefaultConfig(),
		DRAM:      dram.DefaultConfig(),
		Engine:    cryptoengine.DefaultSpec(),
		Scheme:    s,
		Scale:     workload.DefaultScale(),
		Mode:      Performance,
		Seed:      1,
		SelfCheck: true,
	}
}

// WithL2 returns the config with the L2 size (and latency) adjusted.
func (c Config) WithL2(size int) Config {
	c.Mem = c.Mem.WithL2(size)
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

	CPU       cpu.Stats
	Ctrl      secmem.Stats
	Pred      predictor.Stats
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
// examples use Machine directly to poke at components.
type Machine struct {
	Config Config
	// Benchmark is the workload the machine was built for; results carry
	// it so a Result can never be mislabeled by the caller.
	Benchmark string
	Image     *mem.Memory
	Core      *cpu.Core
	Sys       *memsys.System
	Ctrl      *secmem.Controller
	Pred      *predictor.Predictor
	SCache    *seqcache.Cache
	Engine    cryptoengine.EngineModel
	DRAM      *dram.DRAM
	// Faults is the armed adversary, or nil for clean memory.
	Faults *faults.Injector

	// progress, when set, is invoked at every RunContext checkpoint with
	// the committed-instruction count. It rides the existing
	// CheckInterval polling, so it has zero cost when unset and no
	// effect on timing or statistics either way.
	progress func(committed uint64)
}

// OnProgress registers fn to be called at every RunContext checkpoint
// (every Config.CheckInterval committed instructions) with the number of
// instructions committed so far. Long-running services use it to stream
// liveness without touching the simulation's behavior. Pass nil to
// unregister.
func (m *Machine) OnProgress(fn func(committed uint64)) { m.progress = fn }

// Close returns the machine's copy-on-write pages — the architectural
// image view and the controller's line state — to their templates'
// shared pools, so the next machine of the sweep reuses the memory
// instead of allocating it. The machine must not be run or inspected
// afterward. Optional: an unclosed machine is reclaimed by the garbage
// collector as usual, it just recycles nothing.
func (m *Machine) Close() {
	m.Ctrl.Release()
	m.Image.Release()
}

// NewMachine builds the machine and loads the named workload. The
// seed-deterministic parts — assembled program, written image, aging
// profile, pre-aged encrypted state and the hash tree loaded with it —
// come from a process-wide template cache (see template.go) and are
// attached copy-on-write or cloned, so building the N-th machine of a
// sweep costs caches and predictor state, not a rebuild of megabytes of
// identical memory contents.
func NewMachine(bench string, cfg Config) (*Machine, error) {
	tmpl, err := getTemplate(bench, cfg)
	if err != nil {
		return nil, err
	}
	image := mem.NewView(tmpl.image)

	// Direct mode ages nothing, and custom predictor geometry replays
	// eager aging below; every other machine attaches the template.
	attach := !cfg.Scheme.Direct && cfg.Scheme.PredConfig == nil
	var d *dram.DRAM
	var tree *integrity.Tree
	switch {
	case cfg.Integrity && attach:
		// The tree eager aging would build, with the node-cache and
		// data-channel state its timed load leaves behind.
		imgTree, imgDRAM, err := tmpl.treeImage(cfg.DRAM)
		if err != nil {
			return nil, err
		}
		d = imgDRAM.Clone()
		tree = imgTree.Clone(d)
	case cfg.Integrity:
		d = dram.New(cfg.DRAM)
		tree = integrity.New(integrity.DefaultConfig(), d)
	default:
		d = dram.New(cfg.DRAM)
	}
	engine, err := cryptoengine.NewModel(cfg.Engine, ctr.NewKeystream(machineKey(cfg.Seed)))
	if err != nil {
		return nil, err
	}

	pcfg := predictor.DefaultConfig(cfg.Scheme.Pred)
	if cfg.Scheme.PredConfig != nil {
		pcfg = *cfg.Scheme.PredConfig
	}
	pcfg.Seed = cfg.Seed ^ 0xabcdef
	pred := predictor.New(pcfg)

	var sc *seqcache.Cache
	if cfg.Scheme.SeqCacheBytes > 0 {
		sc = seqcache.New(cfg.Scheme.SeqCacheBytes)
	}

	scfg := secmem.DefaultConfig()
	scfg.Oracle = cfg.Scheme.Oracle
	scfg.Direct = cfg.Scheme.Direct
	scfg.SelfCheck = cfg.SelfCheck
	// Functional hit-rate runs observe only counter, predictor and cache
	// dynamics; when nothing needs the plaintext path — no self-check, no
	// integrity tree, no armed adversary, not direct encryption — the
	// controller skips its payload stage: identical timing and statistics
	// without storing pads or ciphertext. This is what lets long hit-rate
	// sweeps run in a fraction of the memory.
	scfg.CountersOnly = cfg.Mode == HitRate && !cfg.SelfCheck &&
		!cfg.Integrity && cfg.Faults == nil && !cfg.Scheme.Direct
	scfg.Scheme = cfg.Scheme.Name
	scfg.Recovery = cfg.Recovery
	scfg.RetryBudget = cfg.RetryBudget
	ctrl := secmem.New(scfg, d, engine, pred, sc, image)
	if tree != nil {
		ctrl.AttachIntegrity(tree)
	}
	var inj *faults.Injector
	if cfg.Faults != nil {
		inj = faults.NewInjector(*cfg.Faults, cfg.Seed^0xfa0175)
		ctrl.ArmFaults(inj)
	}

	// Apply the workload's counter-aging profile: the update history a
	// long fast-forward would have left in each write region, including
	// warm two-level range state (the paper simulates the prediction
	// mechanism during fast-forward). Direct mode has no counters to age.
	//
	// The common case attaches the template's pre-aged encrypted state as
	// a copy-on-write view and only replays the per-page root draws into
	// this machine's predictor (in template order, so the drawn values
	// are identical to eager aging); an integrity machine's tree was
	// cloned above already loaded. Custom predictor geometry changes
	// which pages draw roots, so it replays the eager per-line loop from
	// the cached sample list — byte-identical to the original sampling
	// loop.
	if !cfg.Scheme.Direct {
		if !attach {
			for _, s := range tmpl.ageList {
				ctrl.AgeLine(s.la, s.off)
				pred.WarmRange(s.la, s.off)
			}
		} else {
			if pcfg.Scheme == predictor.SchemeTwoLevel {
				// Warm range state first: its table walks create the
				// counter pages in sample order, matching eager aging
				// (where AgeLine touched each page at the same point).
				for _, s := range tmpl.ageList {
					pred.WarmRange(s.la, s.off)
				}
			}
			for _, la := range tmpl.agePages {
				pred.Root(la)
			}
			ctrl.UseAgedTemplate(tmpl.aged)
		}
	}

	sys := memsys.New(cfg.Mem, ctrl)
	core := cpu.New(cfg.CPU, tmpl.prog, image, sys)
	if inj != nil {
		inj.SetInstrSource(core.Committed)
	}

	return &Machine{
		Config: cfg, Benchmark: bench, Image: image, Core: core, Sys: sys,
		Ctrl: ctrl, Pred: pred, SCache: sc, Engine: engine, DRAM: d,
		Faults: inj,
	}, nil
}

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
	m.armCheckpoint(ctx)
	defer m.Core.SetCheckpoint(0, nil)
	var cs cpu.Stats
	if m.Config.Mode == HitRate {
		cs = m.Core.RunFunctional(m.Config.Scale.Instructions)
	} else {
		cs = m.Core.Run(m.Config.Scale.Instructions)
	}
	return m.collect(cs), m.runErr()
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

// collect assembles the Result from the machine's current statistics.
func (m *Machine) collect(cs cpu.Stats) Result {
	_, l1d, l2 := m.Sys.Caches()
	res := Result{
		Benchmark:     m.Benchmark,
		Scheme:        m.Config.Scheme.Name,
		Mode:          m.Config.Mode,
		CPU:           cs,
		Ctrl:          m.Ctrl.Stats(),
		Pred:          m.Pred.Stats(),
		Engine:        m.Engine.Stats(),
		DRAM:          m.DRAM.Stats(),
		Hierarchy:     m.Sys.Stats(),
		L1D:           l1d.Stats(),
		L2:            l2.Stats(),
		PadViolations: m.Ctrl.PadViolations(),
	}
	if m.SCache != nil {
		s := m.SCache.Stats()
		res.SeqCache = &s
	}
	if tree := m.Ctrl.IntegrityTree(); tree != nil {
		s := tree.Stats()
		res.Integrity = &s
	}
	if m.Faults != nil {
		fs := m.Faults.Stats()
		res.Faults = &fs
	}
	if ss := m.Ctrl.SecurityStats(); m.Faults != nil || ss != (secmem.SecurityStats{}) {
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
// performance-mode facility; HitRate machines run whole via RunContext.
func (m *Machine) RunSliceContext(ctx context.Context, target uint64) (bool, error) {
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
// (advancing counters), caches/TLBs/sequence-number cache invalidated,
// and — unless retainPredictor — the predictor's transient state
// flushed. Per-page roots always survive; they are part of the saved
// process context (see predictor.FlushTransient).
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
	return m.collect(m.Core.Stats())
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
