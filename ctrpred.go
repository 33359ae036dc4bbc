// Package ctrpred is a from-scratch reproduction of "High Efficiency
// Counter Mode Security Architecture via Prediction and Precomputation"
// (Shi, Lee, Ghosh, Lu, Boldyreva — ISCA 2005).
//
// The library contains everything the paper's evaluation needs, built on
// the Go standard library alone:
//
//   - a counter-mode memory-encryption layer over AES-256 (pads of the
//     form AES(key, vaddr‖counter) XORed with 32-byte lines; the
//     standard library's kernel, held to the package's own FIPS-197
//     reference),
//   - the paper's contribution: sequence-number (OTP) prediction and
//     precomputation — regular, adaptive (PHV root resets), two-level
//     (range table) and context-based (LOR) predictors,
//   - the baselines: sequence-number caches of any size and an oracle,
//   - the substrate: pluggable cipher-engine timing models (the paper's
//     pipelined AES plus banked in-SRAM and low-latency designs),
//     set-associative caches, TLBs, an SDRAM bank/bus model, an
//     out-of-order core running a small RISC ISA, and fourteen
//     SPEC2000-like workload kernels,
//   - an experiment harness that regenerates every table and figure of
//     the paper's evaluation.
//
// # Quick start
//
//	cfg := ctrpred.DefaultConfig(ctrpred.SchemePred(ctrpred.PredContext))
//	res, err := ctrpred.Run("mcf", cfg)
//	fmt.Println(res.IPC(), res.PredRate())
//
// Figures:
//
//	fig, err := ctrpred.RunExperiment("fig7", ctrpred.DefaultOptions())
//	fmt.Println(fig.Table)
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-vs-measured record.
package ctrpred

import (
	"context"

	"ctrpred/internal/cryptoengine"
	"ctrpred/internal/experiments"
	"ctrpred/internal/faults"
	"ctrpred/internal/predictor"
	"ctrpred/internal/runpool"
	"ctrpred/internal/secmem"
	"ctrpred/internal/sim"
	"ctrpred/internal/stats"
	"ctrpred/internal/tenancy"
	"ctrpred/internal/workload"
)

// Re-exported simulator types. The aliases make the internal packages'
// types usable by external importers of this module.
type (
	// Config is a full machine + run configuration.
	Config = sim.Config
	// Scheme selects the counter-availability mechanism under test.
	Scheme = sim.Scheme
	// Result carries the statistics of one simulation run.
	Result = sim.Result
	// Mode selects performance (IPC) or hit-rate fidelity.
	Mode = sim.Mode
	// Scale controls workload footprint and instruction budget.
	Scale = workload.Scale
	// PredScheme selects a prediction algorithm.
	PredScheme = predictor.Scheme
	// PredConfig exposes every predictor knob (depth, swing, PHV, …).
	PredConfig = predictor.Config
	// Machine is an assembled simulator instance for direct component
	// access (the examples use it).
	Machine = sim.Machine
	// ExperimentOptions scopes and scales a figure regeneration. Its
	// Workers field caps concurrent simulations per sweep (0 = one per
	// CPU); Progress receives one RunUpdate per finished simulation.
	ExperimentOptions = experiments.Options
	// ExperimentResult is one regenerated figure or table.
	ExperimentResult = experiments.Result
	// RunUpdate reports one finished simulation of a parallel sweep to
	// the ExperimentOptions.Progress callback.
	RunUpdate = runpool.Update
	// Snapshot is the structured metrics tree that Result.Snapshot and
	// ExperimentResult.Snapshot export (deterministic JSON/CSV).
	Snapshot = stats.Snapshot
	// PartialError reports a sweep interrupted by context cancellation
	// or deadline expiry; its Completed field lists the grid cells that
	// finished. errors.Is(err, context.Canceled) matches through it.
	PartialError = runpool.PartialError
	// SecurityError is the typed error a run returns when tampering is
	// detected (or a self-check fails) under the Halt recovery policy.
	// errors.Is matches it against ErrTamperDetected/ErrSelfCheckFailed;
	// errors.As extracts the line address, counter, cycle and scheme.
	SecurityError = secmem.SecurityError
	// SecurityStats counts recovery-path events (quarantines, retries,
	// heals) of a run under the Quarantine policy.
	SecurityStats = secmem.SecurityStats
	// RecoveryPolicy selects what the controller does on a detected
	// tamper: halt the run or quarantine-and-continue.
	RecoveryPolicy = secmem.RecoveryPolicy
	// FaultPlan is a deterministic attack schedule for Config.Faults.
	FaultPlan = faults.Plan
	// FaultAttack is one scheduled corruption: an attack class plus the
	// trigger that gates it.
	FaultAttack = faults.Attack
	// FaultTrigger gates when an attack fires (fetch ordinal, committed
	// instructions, cycle, address predicate).
	FaultTrigger = faults.Trigger
	// FaultKind is an attack class of the threat model.
	FaultKind = faults.Kind
	// FaultStats is the injector's per-class injection/detection ledger.
	FaultStats = faults.Stats
	// EngineModel is the timing contract a cipher-engine model satisfies;
	// Config.Engine selects one by spec and Machine.Engine exposes the
	// built instance.
	EngineModel = cryptoengine.EngineModel
	// EngineSpec names a cipher-engine model plus its timing parameters
	// ("aes", "sealer", "bipbip" with lat/issue/banks knobs). The zero
	// value is the paper's default pipelined AES.
	EngineSpec = cryptoengine.Spec
	// EngineStats is the engine-activity ledger a Result carries.
	EngineStats = cryptoengine.Stats
	// TenancyScenario is a complete multi-tenant scenario: the tenants to
	// interleave, the arrival process, the predictor retention policy and
	// the SLO to judge against.
	TenancyScenario = tenancy.Config
	// TenancyTenant is one tenant of a scenario: a benchmark plus the
	// machine configuration (and key domain, via its seed) it runs under.
	TenancyTenant = tenancy.Tenant
	// TenancySLO declares per-tenant service-level bounds (p99 fetch
	// latency, architectural IPC degradation, end-to-end slowdown).
	TenancySLO = tenancy.SLO
	// TenancyReport is the outcome of one interleaved scenario, with
	// per-tenant and aggregate SLO metrics.
	TenancyReport = tenancy.Report
	// TenantReport carries one tenant's SLO metrics from a scenario.
	TenantReport = tenancy.TenantReport
	// ArrivalKind selects the job-arrival process shaping each tenant's
	// offered load.
	ArrivalKind = tenancy.ArrivalKind
)

// Sentinel errors for errors.Is dispatch. Run and RunExperiment wrap
// these (with the offending name and the valid set) rather than
// returning bare formatted strings.
var (
	// ErrUnknownBenchmark reports a benchmark name outside Benchmarks().
	ErrUnknownBenchmark = workload.ErrUnknownBenchmark
	// ErrUnknownExperiment reports an id outside ExperimentIDs().
	ErrUnknownExperiment = experiments.ErrUnknownExperiment
	// ErrUnknownScheme reports a scheme string ParseScheme cannot parse.
	ErrUnknownScheme = sim.ErrUnknownScheme
	// ErrUnknownEngine reports an engine spec naming no known cipher-
	// engine model (ParseEngine and Run/NewMachine wrap it).
	ErrUnknownEngine = cryptoengine.ErrUnknownEngine
	// ErrTamperDetected reports integrity verification failing on a
	// fetched line (every *SecurityError of kind tamper wraps it).
	ErrTamperDetected = secmem.ErrTamperDetected
	// ErrSelfCheckFailed reports the simulator's plaintext self-check
	// mismatching on an authentic line — an invariant violation, not an
	// attack (every *SecurityError of kind self-check wraps it).
	ErrSelfCheckFailed = secmem.ErrSelfCheckFailed
)

// Simulation modes.
const (
	// ModePerformance runs the out-of-order timing model.
	ModePerformance = sim.Performance
	// ModeHitRate runs the fast functional model for long windows.
	ModeHitRate = sim.HitRate
)

// Prediction schemes (Section 3 and Section 7 of the paper).
const (
	PredNone     = predictor.SchemeNone
	PredRegular  = predictor.SchemeRegular
	PredTwoLevel = predictor.SchemeTwoLevel
	PredContext  = predictor.SchemeContext
)

// Recovery policies for Config.Recovery.
const (
	// RecoveryHalt (the default) stops the run at the first detected
	// tamper; the run's error is a *SecurityError.
	RecoveryHalt = secmem.RecoveryHalt
	// RecoveryQuarantine re-fetches the tampered line within a bounded
	// retry budget, heals it from the architectural image if retries are
	// exhausted, counts the degradation and continues.
	RecoveryQuarantine = secmem.RecoveryQuarantine
)

// Arrival processes for TenancyScenario.Kind.
const (
	// ArrivalPoisson draws independent exponential inter-arrival gaps.
	ArrivalPoisson = tenancy.Poisson
	// ArrivalBursty draws an on-off process: bursts of back-to-back jobs
	// separated by long idle gaps, at the same mean load.
	ArrivalBursty = tenancy.Bursty
)

// Attack classes for FaultAttack.Kind.
const (
	FaultBitFlip     = faults.BitFlip
	FaultSplice      = faults.Splice
	FaultReplay      = faults.Replay
	FaultRollback    = faults.Rollback
	FaultNodeCorrupt = faults.NodeCorrupt
)

// DefaultConfig returns the paper's Table 1 machine with the given
// scheme, a 256 KB L2, and the default workload scale.
func DefaultConfig(s Scheme) Config { return sim.DefaultConfig(s) }

// Canonical schemes.
func SchemeBaseline() Scheme          { return sim.SchemeBaseline() }
func SchemeOracle() Scheme            { return sim.SchemeOracle() }
func SchemeDirect() Scheme            { return sim.SchemeDirect() }
func SchemeSeqCache(bytes int) Scheme { return sim.SchemeSeqCache(bytes) }
func SchemePred(p PredScheme) Scheme  { return sim.SchemePred(p) }
func SchemeCombined(bytes int, p PredScheme) Scheme {
	return sim.SchemeCombined(bytes, p)
}

// DefaultPredConfig returns the Table 1 predictor parameters for a
// scheme (depth 5, swing 3, 16-bit PHV, threshold 12, 64-entry range
// table).
func DefaultPredConfig(p PredScheme) PredConfig { return predictor.DefaultConfig(p) }

// Benchmarks lists the fourteen SPEC2000-like workload kernels.
func Benchmarks() []string { return workload.Names() }

// BenchmarkInfo describes one workload kernel.
type BenchmarkInfo struct {
	Name        string
	Description string
	MemoryBound bool
	WriteHeavy  bool
}

// BenchmarkCatalog returns metadata for every kernel.
func BenchmarkCatalog() []BenchmarkInfo {
	var out []BenchmarkInfo
	for _, n := range workload.Names() {
		s, _ := workload.Lookup(n)
		out = append(out, BenchmarkInfo{
			Name:        s.Name,
			Description: s.Description,
			MemoryBound: s.MemoryBound,
			WriteHeavy:  s.WriteHeavy,
		})
	}
	return out
}

// Run executes the named benchmark under cfg and returns its statistics.
func Run(bench string, cfg Config) (Result, error) { return sim.Run(bench, cfg) }

// RunContext is Run with cancellation: ctx is polled every
// Config.CheckInterval committed instructions, so a cancel or deadline
// lands within one checkpoint interval of simulated work. The partial
// Result accumulated so far is returned alongside the context's error.
// A run whose context is never cancelled is cycle-for-cycle identical
// to Run.
func RunContext(ctx context.Context, bench string, cfg Config) (Result, error) {
	return sim.RunContext(ctx, bench, cfg)
}

// ParseScheme parses a scheme string ("baseline", "oracle", "direct",
// "pred-regular", "pred-twolevel", "pred-context", "seqcache:<size>",
// "combined:<size>"); unknown strings wrap ErrUnknownScheme.
func ParseScheme(s string) (Scheme, error) { return sim.ParseScheme(s) }

// ParseEngine parses a cipher-engine spec ("aes", "aes:lat=48",
// "sealer", "sealer:banks=8", "bipbip", …); the empty string is the
// default pipelined AES, and unknown model names wrap ErrUnknownEngine.
// Apply the result with Config.WithEngine.
func ParseEngine(s string) (EngineSpec, error) { return cryptoengine.ParseEngine(s) }

// DefaultEngineSpec returns the paper's Table 1 engine: fully pipelined
// AES, 96-cycle latency, one pad request per cycle.
func DefaultEngineSpec() EngineSpec { return cryptoengine.DefaultSpec() }

// ParseSize parses a capacity with an optional K/M suffix ("32K", "1M").
func ParseSize(s string) (int, error) { return sim.ParseSize(s) }

// ParseFaultPlan parses an attack schedule of the form
// "kind[@cond:val]…[,kind…]" — e.g.
// "bitflip@fetch:100,replay@instr:50000@addr:0x1f000". Kinds are
// bitflip, splice, replay, rollback and nodecorrupt; conditions are
// fetch, instr, cycle and addr (addr takes HEX or HEX/MASK).
func ParseFaultPlan(s string) (FaultPlan, error) { return faults.ParsePlan(s) }

// ParseRecovery parses a recovery policy name ("halt" or "quarantine").
func ParseRecovery(s string) (RecoveryPolicy, error) { return secmem.ParseRecovery(s) }

// ParseArrival parses an arrival-process name ("poisson" or "bursty";
// the empty string is Poisson).
func ParseArrival(s string) (ArrivalKind, error) { return tenancy.ParseArrival(s) }

// RunTenancy executes a multi-tenant scenario: solo baselines first
// (unless supplied via TenancyScenario.SoloIPC), then the interleaved
// run over the seeded arrival schedule. Deterministic: a scenario is
// byte-identical across runs. The report's Snapshot exports per-tenant
// and aggregate SLO metrics as a metrics tree.
func RunTenancy(ctx context.Context, cfg TenancyScenario) (TenancyReport, error) {
	return tenancy.Run(ctx, cfg)
}

// NewMachine assembles a simulator without running it, for callers that
// want to inspect or drive components directly.
func NewMachine(bench string, cfg Config) (*Machine, error) {
	return sim.NewMachine(bench, cfg)
}

// ConfigFingerprint returns the content address of a run: a sha256 hex
// digest over the benchmark name and the canonical encoding of cfg.
// Because a run is fully determined by its configuration, two calls with
// the same fingerprint produce byte-identical metrics snapshots — this
// is the cache key the ctrpredd job server files results under.
// Result-neutral fields (Config.CheckInterval) are excluded.
func ConfigFingerprint(bench string, cfg Config) string {
	return sim.Fingerprint(bench, cfg)
}

// DefaultOptions returns the default experiment scope (all benchmarks)
// and scale.
func DefaultOptions() ExperimentOptions { return experiments.DefaultOptions() }

// RunExperiment regenerates one of the paper's tables or figures, or one
// of the extension studies, by id: ExperimentIDs lists them. Each
// simulation of the figure's benchmark × scheme grid is independent, so
// they run concurrently across opt.Workers workers; results are
// assembled in input order, making the output byte-identical for any
// worker count at a given seed.
func RunExperiment(id string, opt ExperimentOptions) (ExperimentResult, error) {
	return experiments.ByID(context.Background(), id, opt)
}

// RunExperimentContext is RunExperiment with cancellation: the context
// stops the sweep between simulations and — via the per-run instruction
// checkpoints — inside them. On interruption the error wraps the
// context's error and, as a *PartialError, lists which grid cells had
// already finished. opt.SimTimeout additionally bounds every individual
// simulation with its own deadline.
func RunExperimentContext(ctx context.Context, id string, opt ExperimentOptions) (ExperimentResult, error) {
	return experiments.ByID(ctx, id, opt)
}

// ExperimentIDs lists every regenerable table/figure id in paper order.
func ExperimentIDs() []string { return experiments.IDs() }
