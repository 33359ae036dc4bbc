// Package experiments regenerates every table and figure of the paper's
// evaluation (Sections 5–8) on the simulator: the sequence-number hit-rate
// comparisons (Figures 7–9), the normalized-IPC comparisons (Figures 10,
// 11, 15, 16), the optimized-predictor hit rates (Figures 12–14), the
// Figure 4 latency timelines, Table 1, and the ablations the text
// discusses (prediction depth, root-history, reset threshold).
//
// Absolute numbers differ from the paper (different substrate, scaled
// instruction windows); the claims under test are the *shapes*: prediction
// beats large sequence-number caches, two-level and context prediction
// approach perfect rates, and IPC gains concentrate in memory-bound
// programs.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"time"

	"ctrpred/internal/cryptoengine"
	"ctrpred/internal/predictor"
	"ctrpred/internal/runpool"
	"ctrpred/internal/sim"
	"ctrpred/internal/stats"
	"ctrpred/internal/tenancy"
	"ctrpred/internal/workload"
)

// ErrUnknownExperiment reports an experiment identifier outside IDs();
// match it with errors.Is after ByID.
var ErrUnknownExperiment = errors.New("unknown experiment")

// Options scales and scopes an experiment run.
type Options struct {
	// Scale is the per-simulation workload budget. Zero-value fields are
	// replaced by DefaultOptions' values.
	Scale workload.Scale
	// Benchmarks restricts the benchmark set (default: all 14). Its
	// order does not matter: experiments run the set sorted.
	Benchmarks []string
	// Seed drives all randomness.
	Seed uint64
	// Workers caps the number of concurrent simulations per sweep
	// (<= 0: one per CPU). Results are assembled in input order, so the
	// output is byte-identical for any worker count.
	Workers int
	// Progress, when non-nil, receives one update per finished
	// simulation (serialized, in completion order). A hit-rate row, whose
	// cells share one simulated front end, finishes its cells together:
	// it then reports one update per cell, each carrying the row's
	// elapsed time, and Done and Total count cells.
	Progress func(runpool.Update)
	// SimTimeout, when positive, bounds each individual simulation with
	// its own deadline (context.WithTimeout around every grid cell). A
	// cell that exceeds it fails with context.DeadlineExceeded without
	// cancelling the rest of the sweep's context. A hit-rate row is one
	// simulation: the deadline bounds the row's shared run, and expiry
	// fails every cell of the row.
	SimTimeout time.Duration
	// Engine selects the cipher-engine timing model every simulation of
	// the experiment runs under (zero value: the default pipelined AES).
	// Only performance-mode runs book engine time, so hit-rate results
	// read the same under every engine. The "engines" experiment ignores
	// it — sweeping engines is its job.
	Engine cryptoengine.Spec
	// Arrival selects the tenancy experiments' job-arrival process
	// (zero value: Poisson).
	Arrival tenancy.ArrivalKind
	// MaxTenants bounds the capacity search (0 derives 8).
	MaxTenants int
	// SLOMaxSlowdown and SLOP99Fetch declare the capacity experiment's
	// SLO: the largest tolerable end-to-end slowdown vs a solo run
	// (0 derives 8) and an optional p99 fetch-latency bound in cycles
	// (0 = unconstrained).
	SLOMaxSlowdown float64
	SLOP99Fetch    float64
}

// DefaultOptions runs every benchmark at a budget that completes each
// figure in seconds to minutes. Raise Scale.Instructions toward the
// paper's windows for tighter numbers.
func DefaultOptions() Options {
	return Options{
		// 8 MB footprints dwarf even the 512 KB sequence-number cache, as
		// the paper's working sets do; hit-rate figures stretch the
		// instruction window by hitRateWindowFactor on top of this.
		Scale: workload.Scale{Footprint: 8 << 20, Instructions: 300_000},
		Seed:  1,
	}
}

func (o Options) normalized() Options {
	def := DefaultOptions()
	if o.Scale.Footprint == 0 {
		o.Scale.Footprint = def.Scale.Footprint
	}
	if o.Scale.Instructions == 0 {
		o.Scale.Instructions = def.Scale.Instructions
	}
	if len(o.Benchmarks) == 0 {
		o.Benchmarks = workload.Names()
	}
	// Sorted, so that a set of benchmarks gives the same bytes in any
	// order: the averaged studies sum their rows in this order.
	o.Benchmarks = slices.Clone(o.Benchmarks)
	slices.Sort(o.Benchmarks)
	if o.Seed == 0 {
		o.Seed = def.Seed
	}
	if o.MaxTenants == 0 {
		o.MaxTenants = 8
	}
	if o.SLOMaxSlowdown == 0 {
		o.SLOMaxSlowdown = 8
	}
	return o
}

// Normalized returns the options with every zero-valued field resolved
// to its default — the same resolution every experiment applies on
// entry. Cache keys hash this form, so a request that spells a default
// explicitly and one that omits it share one entry.
func (o Options) Normalized() Options { return o.normalized() }

// Result is one regenerated figure or table.
type Result struct {
	ID    string
	Title string
	// Table is the rendered figure data: one row per benchmark plus an
	// Average row; one column per scheme/series.
	Table *stats.Table
	// Series holds the raw numbers: series name → benchmark → value.
	Series map[string]map[string]float64
	// Notes records what shape the paper reports for this figure.
	Notes string
}

// Snapshot exports the figure's raw numbers as a structured metrics
// tree: one child per series, one value per benchmark. Export order is
// deterministic (sorted by name) regardless of worker count.
func (r Result) Snapshot() *stats.Snapshot {
	n := stats.NewSnapshot("experiment")
	n.Label("id", r.ID)
	n.Label("title", r.Title)
	if r.Notes != "" {
		n.Label("notes", r.Notes)
	}
	for series, points := range r.Series {
		c := n.Child(series)
		for bench, v := range points {
			c.Value(bench, v)
		}
	}
	return n
}

// pool adapts the experiment options to the run scheduler.
func (o Options) pool() runpool.Options {
	return runpool.Options{Workers: o.Workers, Progress: o.Progress}
}

// runSim runs one simulation under ctx, applying the per-simulation
// deadline from Options.SimTimeout when one is set.
func (o Options) runSim(ctx context.Context, bench string, cfg sim.Config) (sim.Result, error) {
	ctx, cancel := o.simContext(ctx)
	defer cancel()
	return sim.RunContext(ctx, bench, cfg)
}

// runRow runs one benchmark's hit-rate row, one config per cell, over
// one shared front end (sim.RunGroupContext). The row is one simulation
// of that front end, so SimTimeout bounds it as a whole.
func (o Options) runRow(ctx context.Context, bench string, cfgs []sim.Config) ([]sim.Result, error) {
	ctx, cancel := o.simContext(ctx)
	defer cancel()
	return sim.RunGroupContext(ctx, bench, cfgs)
}

// simContext layers the per-simulation deadline, if any, on ctx.
func (o Options) simContext(ctx context.Context) (context.Context, context.CancelFunc) {
	if o.SimTimeout > 0 {
		return context.WithTimeout(ctx, o.SimTimeout)
	}
	return ctx, func() {}
}

// hitRateRow is one hit-rate grid row as a single pool job: bench's
// cells, named by labels and configured by cfgs, run over one shared
// front end, and value reads cell i's number from its result. A failure
// reads "name: cause".
func hitRateRow[T any](opt Options, name, bench string, labels []string, cfgs []sim.Config, value func(i int, r sim.Result) T) runpool.Row[T] {
	return runpool.Row[T]{
		Labels: labels,
		Fn: func(ctx context.Context) ([]T, error) {
			rs, err := opt.runRow(ctx, bench, cfgs)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			vals := make([]T, len(rs))
			for i, r := range rs {
				vals[i] = value(i, r)
			}
			return vals, nil
		},
	}
}

// coverage is the number a hit-rate cell plots: the prediction rate
// under a predicting scheme, else the sequence-number cache hit rate.
func coverage(sch sim.Scheme, r sim.Result) float64 {
	if sch.Pred != predictor.SchemeNone {
		return r.PredRate()
	}
	return r.SeqHitRate()
}

// coverageCells computes a hit-rate grid's cells under L2 size l2. A
// benchmark runs one row per edit (one unedited row when edits is nil);
// a row runs schemes, each config changed by the row's edit when it has
// one, over one shared front end as one pool job, and its cells are the
// schemes' coverage. A benchmark's cells are its rows' in order, named
// by cols.
func coverageCells(ctx context.Context, opt Options, id string, benchmarks, cols []string, schemes []sim.Scheme, l2 int, edits []func(*sim.Config)) ([]float64, error) {
	if edits == nil {
		edits = make([]func(*sim.Config), 1)
	}
	rows := make([]runpool.Row[float64], 0, len(benchmarks)*len(edits))
	for _, bench := range benchmarks {
		for r, edit := range edits {
			labels := make([]string, len(schemes))
			cfgs := make([]sim.Config, len(schemes))
			for i, sch := range schemes {
				labels[i] = cellLabel(id, bench, cols[r*len(schemes)+i])
				cfgs[i] = hitRateConfig(opt, sch, l2)
				if edit != nil {
					edit(&cfgs[i])
				}
			}
			rows = append(rows, hitRateRow(opt, id+": "+bench, bench, labels, cfgs,
				func(i int, r sim.Result) float64 { return coverage(schemes[i], r) }))
		}
	}
	return runpool.RunRowsContext(ctx, opt.pool(), rows)
}

// normalizedIPCCells computes an oracle-normalized IPC grid's cells
// under L2 size l2: column i runs schemes[i] in performance mode, its
// config changed by edits[i] when there is one, and reads its IPC over
// the oracle's on the same benchmark. The oracle runs are cells of the
// same sweep, an extra first column "oracle" divided out once every
// cell is in, so progress and a cancelled run's PartialError count them
// with the rest.
func normalizedIPCCells(ctx context.Context, opt Options, id string, benchmarks, cols []string, schemes []sim.Scheme, l2 int, edits []func(*sim.Config)) ([]float64, error) {
	cfgs := []sim.Config{perfConfig(opt, sim.SchemeOracle(), l2)}
	for i, sch := range schemes {
		cfg := perfConfig(opt, sch, l2)
		if i < len(edits) && edits[i] != nil {
			edits[i](&cfg)
		}
		cfgs = append(cfgs, cfg)
	}
	ipcs, err := sweep(ctx, opt, id, benchmarks, append([]string{"oracle"}, cols...), func(ctx context.Context, bench string, col int) (float64, error) {
		r, err := opt.runSim(ctx, bench, cfgs[col])
		if err != nil {
			return 0, err
		}
		return r.IPC(), nil
	})
	if err != nil {
		return nil, err
	}
	return divideOutOracle(ipcs, len(cfgs)), nil
}

// divideOutOracle turns row-major cells, rows of n whose first cell is
// the oracle's IPC and the rest other schemes' IPCs, into rows of n-1
// IPCs normalized to the oracle's (0 where the oracle's is 0).
func divideOutOracle(ipcs []float64, n int) []float64 {
	out := make([]float64, 0, len(ipcs)/n*(n-1))
	for r := 0; r < len(ipcs); r += n {
		oracle := ipcs[r]
		for _, ipc := range ipcs[r+1 : r+n] {
			if oracle == 0 {
				out = append(out, 0)
			} else {
				out = append(out, ipc/oracle)
			}
		}
	}
	return out
}

// hitRateWindowFactor scales the instruction budget of hit-rate studies
// relative to performance studies, as the paper does (8 billion
// instructions in simplified mode vs 400 million in performance mode):
// counter dynamics — lines drifting past the prediction depth, PHV
// resets — only emerge over long windows.
const hitRateWindowFactor = 20

// hitRateConfig builds a HitRate-mode config. Its run books no time, so
// the engine it carries (Options.Engine, part of the result's key)
// moves no number.
func hitRateConfig(opt Options, scheme sim.Scheme, l2 int) sim.Config {
	cfg := sim.DefaultConfig(scheme).WithL2(l2).WithMode(sim.HitRate)
	cfg.Scale = opt.Scale
	cfg.Scale.Instructions *= hitRateWindowFactor
	cfg.Seed = opt.Seed
	// Hit-rate figures observe counter/predictor/cache dynamics only;
	// dropping the per-decryption self-check lets sim run the controller's
	// counters-only model (identical statistics, a fraction of the memory
	// over these 20x-longer windows) on an untimed counter side. The
	// equivalence suite pins the two models against each other, so
	// correctness is not traded away here.
	cfg.SelfCheck = false
	// In functional mode a cycle ≈ an instruction; keep the OS flush at a
	// cadence proportional to the scaled window (the paper flushes every
	// 25M cycles within 8B-instruction runs ≈ every 0.3% of the run).
	cfg.Mem.FlushInterval = cfg.Scale.Instructions / 20
	return cfg.WithEngine(opt.Engine)
}

// perfConfig builds a Performance-mode config.
func perfConfig(opt Options, scheme sim.Scheme, l2 int) sim.Config {
	cfg := sim.DefaultConfig(scheme).WithL2(l2)
	cfg.Scale = opt.Scale
	cfg.Seed = opt.Seed
	cfg.Mem.FlushInterval = opt.Scale.Instructions / 10
	return cfg.WithEngine(opt.Engine)
}

// A figure is one of the paper's figure pairs that plot the same schemes
// under a 256 KB and a 1 MB L2 (Figures 7/8, 10/11, 12/13 and 15/16).
type figure struct {
	schemes []sim.Scheme
	cols    []string
	// title is the pair's; each figure's title appends its L2 size.
	title string
	notes string
}

var (
	cacheCoverage = figure{
		schemes: []sim.Scheme{
			sim.SchemeSeqCache(128 << 10),
			sim.SchemeSeqCache(512 << 10),
			sim.SchemePred(predictor.SchemeRegular),
		},
		cols:  []string{"128K_Seq#_Cache", "512K_Seq#_Cache", "Pred"},
		title: "Sequence Number Hit Rates",
		notes: "Paper: Pred ≈ 0.82 average (0.80 at 1MB), above both 128KB and 512KB sequence-number caches.",
	}
	cacheIPC = figure{
		schemes: []sim.Scheme{
			sim.SchemeSeqCache(4 << 10),
			sim.SchemeSeqCache(128 << 10),
			sim.SchemeSeqCache(512 << 10),
			sim.SchemePred(predictor.SchemeRegular),
		},
		cols:  []string{"Seq_Cache_4K", "Seq_Cache_128K", "Seq_Cache_512K", "Pred"},
		title: "Normalized IPC (oracle=1.0)",
		notes: "Paper: Pred outperforms every cache size on average; gains of 15–40% over small caches on memory-bound programs.",
	}
	predictorCoverage = figure{
		schemes: predictorSchemes,
		cols:    predictorCols,
		title:   "Prediction Rate of Two-level and Context-based vs Regular",
		notes:   "Paper: regular ≈ 0.82, two-level ≈ 0.96, context ≈ 0.99 (256KB L2).",
	}
	predictorIPC = figure{
		schemes: predictorSchemes,
		cols:    predictorCols,
		title:   "Normalized IPC of Two-level and Context-based vs Regular",
		notes:   "Paper: up to ~7% additional IPC over regular prediction; context ≥ two-level for most programs.",
	}
	// predictorSchemes are the optimized predictors Figures 12/13 and
	// 15/16 compare with the regular one.
	predictorSchemes = []sim.Scheme{
		sim.SchemePred(predictor.SchemeRegular),
		sim.SchemePred(predictor.SchemeTwoLevel),
		sim.SchemePred(predictor.SchemeContext),
	}
	predictorCols = []string{"Regular", "Two-level", "Context"}
)

// at declares the figure under L2 size l2 as grid id, computing its
// cells with cells.
func (f figure) at(id string, l2 int, cells func(ctx context.Context, opt Options, benchmarks []string) ([]float64, error)) *grid {
	return &grid{
		id:    id,
		cols:  f.cols,
		title: fixedTitle(fmt.Sprintf("%s, %s L2", f.title, l2Name(l2))),
		notes: f.notes,
		cells: cells,
	}
}

// hitRates declares the figure as a hit-rate grid (Figures 7/8, 12/13):
// each cell is its scheme's counter coverage, as a fraction of L2-miss
// fetches. A benchmark's cells share one front end, so its whole row is
// one job.
func (f figure) hitRates(id string, l2 int) *grid {
	return f.at(id, l2, func(ctx context.Context, opt Options, benchmarks []string) ([]float64, error) {
		return coverageCells(ctx, opt, id, benchmarks, f.cols, f.schemes, l2, nil)
	})
}

// normalizedIPC declares the figure as a performance-mode grid (Figures
// 10/11, 15/16): each cell is its scheme's IPC normalized to the
// oracle's on the same benchmark.
func (f figure) normalizedIPC(id string, l2 int) *grid {
	return f.at(id, l2, func(ctx context.Context, opt Options, benchmarks []string) ([]float64, error) {
		return normalizedIPCCells(ctx, opt, id, benchmarks, f.cols, f.schemes, l2, nil)
	})
}

// figure9 declares Figure 9: the breakdown of counter coverage with a
// 32 KB sequence-number cache combined with prediction — hits covered by
// both mechanisms, by prediction only, and by the cache only.
func figure9() *grid {
	return &grid{
		id:    "Figure 9",
		cols:  []string{"Pred_Hit", "Seq_Only", "Both_Hit"},
		title: fixedTitle("Breakdown of Contribution of Sequence Number Cache (32KB) and OTP Prediction"),
		notes: "Paper: prediction uncovers coverage the cache misses (Pred_Hit large, Seq_Only small).",
		cells: func(ctx context.Context, opt Options, benchmarks []string) ([]float64, error) {
			return benchRows(ctx, opt, "Figure 9", benchmarks, func(ctx context.Context, bench string) ([]float64, error) {
				cfg := hitRateConfig(opt, sim.SchemeCombined(32<<10, predictor.SchemeRegular), 256<<10)
				r, err := opt.runSim(ctx, bench, cfg)
				if err != nil {
					return nil, err
				}
				fetches := float64(r.Ctrl.Fetches)
				if fetches == 0 {
					fetches = 1
				}
				both := float64(r.Ctrl.BothHits) / fetches
				predOnly := float64(r.Ctrl.PredHits-r.Ctrl.BothHits) / fetches
				seqOnly := float64(r.Ctrl.SeqCacheHits-r.Ctrl.BothHits) / fetches
				return []float64{predOnly, seqOnly, both}, nil
			})
		},
	}
}

// figure14 declares Figure 14: the absolute number of predictions
// (speculative pad requests) context-based prediction issues under each
// L2 size.
func figure14() *grid {
	l2s := []int{256 << 10, 1 << 20}
	cols := []string{"256KB_L2", "1MB_L2"}
	return &grid{
		id:    "Figure 14",
		cols:  cols,
		title: fixedTitle("Number of Predictions under 256KB vs 1MB L2 (context-based)"),
		notes: "Paper: larger L2 ⇒ fewer misses ⇒ far fewer predictions.",
		cells: func(ctx context.Context, opt Options, benchmarks []string) ([]float64, error) {
			return sweep(ctx, opt, "Figure 14", benchmarks, cols, func(ctx context.Context, bench string, col int) (float64, error) {
				res, err := opt.runSim(ctx, bench, hitRateConfig(opt, sim.SchemePred(predictor.SchemeContext), l2s[col]))
				if err != nil {
					return 0, err
				}
				return float64(res.Pred.Guesses), nil
			})
		},
	}
}

func l2Name(l2 int) string {
	if l2 >= 1<<20 {
		return fmt.Sprintf("%dMB", l2>>20)
	}
	return fmt.Sprintf("%dKB", l2>>10)
}

// An experiment is one registry entry: a grid whose parts merge, or the
// run function of an experiment that runs whole on one node.
type experiment struct {
	id   string
	grid *grid
	run  func(context.Context, Options) (Result, error)
}

// registry lists every experiment in paper order. IDs, ByID,
// Partitionable and MergeParts all read it.
var registry = []experiment{
	{id: "table1", run: func(context.Context, Options) (Result, error) { return Table1(), nil }},
	{id: "fig4", run: Figure4Timeline},
	{id: "fig7", grid: cacheCoverage.hitRates("Figure 7", 256<<10)},
	{id: "fig8", grid: cacheCoverage.hitRates("Figure 8", 1<<20)},
	{id: "fig9", grid: figure9()},
	{id: "fig10", grid: cacheIPC.normalizedIPC("Figure 10", 256<<10)},
	{id: "fig11", grid: cacheIPC.normalizedIPC("Figure 11", 1<<20)},
	{id: "fig12", grid: predictorCoverage.hitRates("Figure 12", 256<<10)},
	{id: "fig13", grid: predictorCoverage.hitRates("Figure 13", 1<<20)},
	{id: "fig14", grid: figure14()},
	{id: "fig15", grid: predictorIPC.normalizedIPC("Figure 15", 256<<10)},
	{id: "fig16", grid: predictorIPC.normalizedIPC("Figure 16", 1<<20)},
	// The averaged studies are grids that run whole on one node.
	{id: "ablation", run: ablation().run},
	{id: "ctxswitch", run: contextSwitch().run},
	{id: "integrity", run: integrity().run},
	{id: "hybrid", run: hybrid().run},
	{id: "seqsweep", run: seqCacheSweep().run},
	{id: "valuepred", run: valuePrediction().run},
	{id: "attack", run: AttackCampaign},
	{id: "engines", grid: enginesGrid()},
	{id: "tenants", grid: tenantsGrid()},
	{id: "capacity", grid: capacityGrid()},
}

// find returns id's registry entry, or nil for an unknown id.
func find(id string) *experiment {
	for i := range registry {
		if registry[i].id == id {
			return &registry[i]
		}
	}
	return nil
}

// ByID runs the experiment with the given identifier, one of IDs(). The
// context cancels the sweep between simulations and, via sim
// checkpoints, inside them. A benchmark listed twice is an error (see
// CheckBenchmarks).
func ByID(ctx context.Context, id string, opt Options) (Result, error) {
	e := find(id)
	if e == nil {
		return Result{}, fmt.Errorf("experiments: %w %q (want %s)", ErrUnknownExperiment, id, strings.Join(IDs(), ", "))
	}
	if err := CheckBenchmarks(opt.Benchmarks); err != nil {
		return Result{}, err
	}
	if e.grid != nil {
		return e.grid.run(ctx, opt)
	}
	return e.run(ctx, opt)
}

// CheckBenchmarks rejects a benchmark listed twice. A grid has one row
// per benchmark, so a repeat would be counted twice in a node's Average
// but once in a cluster merge.
func CheckBenchmarks(benchmarks []string) error {
	for i, b := range benchmarks {
		if slices.Contains(benchmarks[:i], b) {
			return fmt.Errorf("benchmarks: %q listed twice", b)
		}
	}
	return nil
}

// IDs lists every experiment identifier in paper order.
func IDs() []string {
	ids := make([]string, len(registry))
	for i, e := range registry {
		ids[i] = e.id
	}
	return ids
}
