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
	"sort"
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
	// Benchmarks restricts the benchmark set (default: all 14).
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
	// The "engines" experiment ignores it — sweeping engines is its job.
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

// runner abstracts "run benchmark b under scheme s and return the value
// this figure plots". col is the scheme's column index, for figures
// whose columns vary something besides the scheme (Figure 14's L2 size).
type runner func(ctx context.Context, bench string, col int, scheme sim.Scheme) (float64, error)

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

// cellLabel names one (benchmark, scheme) cell of a figure's grid.
func cellLabel(id, bench string, sch sim.Scheme) string {
	return fmt.Sprintf("%s %s/%s", id, bench, sch.Name)
}

// sweep runs every benchmark × scheme cell as its own job — in parallel
// across the worker pool — and assembles the table in input order, so
// the result is identical to a sequential sweep of the same seed.
func sweep(ctx context.Context, id, title, notes string, opt Options, schemes []sim.Scheme, colNames []string, run runner) (Result, error) {
	benchmarks := gridBenchmarks(opt)
	jobs := make([]runpool.Job[float64], 0, len(benchmarks)*len(schemes))
	for _, bench := range benchmarks {
		for i, sch := range schemes {
			jobs = append(jobs, runpool.Job[float64]{
				Label: cellLabel(id, bench, sch),
				Fn: func(ctx context.Context) (float64, error) {
					v, err := run(ctx, bench, i, sch)
					if err != nil {
						return 0, fmt.Errorf("%s: %s/%s: %w", id, bench, sch.Name, err)
					}
					return v, nil
				},
			})
		}
	}
	vals, err := runpool.RunContext(ctx, opt.pool(), jobs)
	if err != nil {
		return Result{}, err
	}
	return gridResult(id, title, notes, benchmarks, colNames, vals), nil
}

// hitRateSweep is sweep for a hit-rate grid at L2 size l2: a benchmark's
// cells share one front end, so its whole row is one job, and each cell
// plots its scheme's coverage.
func hitRateSweep(ctx context.Context, id, title, notes string, opt Options, schemes []sim.Scheme, colNames []string, l2 int) (Result, error) {
	benchmarks := gridBenchmarks(opt)
	rows := make([]runpool.Row[float64], len(benchmarks))
	for b, bench := range benchmarks {
		labels := make([]string, len(schemes))
		cfgs := make([]sim.Config, len(schemes))
		for i, sch := range schemes {
			labels[i] = cellLabel(id, bench, sch)
			cfgs[i] = hitRateConfig(opt, sch, l2)
		}
		rows[b] = hitRateRow(opt, id+": "+bench, bench, labels, cfgs,
			func(i int, r sim.Result) float64 { return coverage(schemes[i], r) })
	}
	vals, err := runpool.RunRowsContext(ctx, opt.pool(), rows)
	if err != nil {
		return Result{}, err
	}
	return gridResult(id, title, notes, benchmarks, colNames, vals), nil
}

// gridBenchmarks is a sweep's row order: opt's benchmarks, sorted.
func gridBenchmarks(opt Options) []string {
	benchmarks := append([]string(nil), opt.normalized().Benchmarks...)
	sort.Strings(benchmarks)
	return benchmarks
}

// gridResult assembles a sweep's table from its values, one per
// (benchmark, column) in row-major input order, plus an Average row.
func gridResult(id, title, notes string, benchmarks, colNames []string, vals []float64) Result {
	res := Result{
		ID:     id,
		Title:  title,
		Notes:  notes,
		Series: make(map[string]map[string]float64),
	}
	cols := append([]string{"benchmark"}, colNames...)
	res.Table = stats.NewTable(fmt.Sprintf("%s — %s", id, title), cols...)
	for _, name := range colNames {
		res.Series[name] = make(map[string]float64)
	}
	sums := make([]float64, len(colNames))
	k := 0
	for _, bench := range benchmarks {
		row := make([]float64, len(colNames))
		for i := range colNames {
			v := vals[k]
			k++
			row[i] = v
			sums[i] += v
			res.Series[colNames[i]][bench] = v
		}
		res.Table.AddFloats(bench, 3, row...)
	}
	avgs := make([]float64, len(colNames))
	for i := range colNames {
		avgs[i] = sums[i] / float64(len(benchmarks))
		res.Series[colNames[i]]["Average"] = avgs[i]
	}
	res.Table.AddFloats("Average", 3, avgs...)
	return res
}

// oracleBaselines runs the oracle scheme for every benchmark across the
// pool and returns benchmark → IPC, the denominator of the normalized-IPC
// figures.
func oracleBaselines(ctx context.Context, opt Options, l2 int) (map[string]float64, error) {
	jobs := make([]runpool.Job[float64], len(opt.Benchmarks))
	for i, bench := range opt.Benchmarks {
		jobs[i] = runpool.Job[float64]{
			Label: fmt.Sprintf("oracle baseline %s", bench),
			Fn: func(ctx context.Context) (float64, error) {
				r, err := opt.runSim(ctx, bench, perfConfig(opt, sim.SchemeOracle(), l2))
				if err != nil {
					return 0, err
				}
				return r.IPC(), nil
			},
		}
	}
	vals, err := runpool.RunContext(ctx, opt.pool(), jobs)
	if err != nil {
		return nil, err
	}
	ipc := make(map[string]float64, len(vals))
	for i, bench := range opt.Benchmarks {
		ipc[bench] = vals[i]
	}
	return ipc, nil
}

// hitRateWindowFactor scales the instruction budget of hit-rate studies
// relative to performance studies, as the paper does (8 billion
// instructions in simplified mode vs 400 million in performance mode):
// counter dynamics — lines drifting past the prediction depth, PHV
// resets — only emerge over long windows.
const hitRateWindowFactor = 20

// hitRateConfig builds a HitRate-mode config.
func hitRateConfig(opt Options, scheme sim.Scheme, l2 int) sim.Config {
	cfg := sim.DefaultConfig(scheme).WithL2(l2).WithMode(sim.HitRate)
	cfg.Scale = opt.Scale
	cfg.Scale.Instructions *= hitRateWindowFactor
	cfg.Seed = opt.Seed
	// Hit-rate figures observe counter/predictor/cache dynamics only;
	// dropping the per-decryption self-check lets sim run the controller's
	// counters-only model (identical statistics, a fraction of the memory
	// over these 20x-longer windows). The equivalence suite pins the two
	// models against each other, so correctness is not traded away here.
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

// hitRateFigure produces Figures 7/8: seq-cache hit rate vs prediction
// rate, as a fraction of L2-miss fetches whose counter was covered.
func hitRateFigure(ctx context.Context, id string, l2 int, opt Options) (Result, error) {
	schemes := []sim.Scheme{
		sim.SchemeSeqCache(128 << 10),
		sim.SchemeSeqCache(512 << 10),
		sim.SchemePred(predictor.SchemeRegular),
	}
	cols := []string{"128K_Seq#_Cache", "512K_Seq#_Cache", "Pred"}
	title := fmt.Sprintf("Sequence Number Hit Rates, %s L2", l2Name(l2))
	notes := "Paper: Pred ≈ 0.82 average (0.80 at 1MB), above both 128KB and 512KB sequence-number caches."
	return hitRateSweep(ctx, id, title, notes, opt, schemes, cols, l2)
}

// Figure7 regenerates Figure 7 (256 KB L2).
func Figure7(ctx context.Context, opt Options) (Result, error) {
	return hitRateFigure(ctx, "Figure 7", 256<<10, opt)
}

// Figure8 regenerates Figure 8 (1 MB L2).
func Figure8(ctx context.Context, opt Options) (Result, error) {
	return hitRateFigure(ctx, "Figure 8", 1<<20, opt)
}

// Figure9 regenerates Figure 9: the breakdown of counter coverage with a
// 32 KB sequence-number cache combined with prediction — hits covered by
// both mechanisms, by prediction only, and by the cache only.
func Figure9(ctx context.Context, opt Options) (Result, error) {
	opt = opt.normalized()
	res := Result{
		ID:     "Figure 9",
		Title:  "Breakdown of Contribution of Sequence Number Cache (32KB) and OTP Prediction",
		Notes:  "Paper: prediction uncovers coverage the cache misses (Pred_Hit large, Seq_Only small).",
		Series: map[string]map[string]float64{"Pred_Hit": {}, "Seq_Only": {}, "Both_Hit": {}},
	}
	res.Table = stats.NewTable("Figure 9 — "+res.Title, "benchmark", "Pred_Hit", "Seq_Only", "Both_Hit")
	benchmarks := append([]string(nil), opt.Benchmarks...)
	sort.Strings(benchmarks)
	jobs := make([]runpool.Job[[3]float64], len(benchmarks))
	for i, bench := range benchmarks {
		jobs[i] = runpool.Job[[3]float64]{
			Label: fmt.Sprintf("Figure 9 %s", bench),
			Fn: func(ctx context.Context) ([3]float64, error) {
				cfg := hitRateConfig(opt, sim.SchemeCombined(32<<10, predictor.SchemeRegular), 256<<10)
				r, err := opt.runSim(ctx, bench, cfg)
				if err != nil {
					return [3]float64{}, err
				}
				fetches := float64(r.Ctrl.Fetches)
				if fetches == 0 {
					fetches = 1
				}
				both := float64(r.Ctrl.BothHits) / fetches
				predOnly := float64(r.Ctrl.PredHits-r.Ctrl.BothHits) / fetches
				seqOnly := float64(r.Ctrl.SeqCacheHits-r.Ctrl.BothHits) / fetches
				return [3]float64{predOnly, seqOnly, both}, nil
			},
		}
	}
	vals, err := runpool.RunContext(ctx, opt.pool(), jobs)
	if err != nil {
		return Result{}, err
	}
	var sumP, sumS, sumB float64
	for i, bench := range benchmarks {
		predOnly, seqOnly, both := vals[i][0], vals[i][1], vals[i][2]
		res.Series["Pred_Hit"][bench] = predOnly
		res.Series["Seq_Only"][bench] = seqOnly
		res.Series["Both_Hit"][bench] = both
		sumP += predOnly
		sumS += seqOnly
		sumB += both
		res.Table.AddFloats(bench, 3, predOnly, seqOnly, both)
	}
	n := float64(len(benchmarks))
	res.Table.AddFloats("Average", 3, sumP/n, sumS/n, sumB/n)
	res.Series["Pred_Hit"]["Average"] = sumP / n
	res.Series["Seq_Only"]["Average"] = sumS / n
	res.Series["Both_Hit"]["Average"] = sumB / n
	return res, nil
}

// ipcFigure produces Figures 10/11: IPC normalized to the oracle, for
// three sequence-number cache sizes vs adaptive prediction.
func ipcFigure(ctx context.Context, id string, l2 int, opt Options) (Result, error) {
	opt = opt.normalized()
	schemes := []sim.Scheme{
		sim.SchemeSeqCache(4 << 10),
		sim.SchemeSeqCache(128 << 10),
		sim.SchemeSeqCache(512 << 10),
		sim.SchemePred(predictor.SchemeRegular),
	}
	cols := []string{"Seq_Cache_4K", "Seq_Cache_128K", "Seq_Cache_512K", "Pred"}
	title := fmt.Sprintf("Normalized IPC (oracle=1.0), %s L2", l2Name(l2))
	notes := "Paper: Pred outperforms every cache size on average; gains of 15–40% over small caches on memory-bound programs."
	oracleIPC, err := oracleBaselines(ctx, opt, l2)
	if err != nil {
		return Result{}, err
	}
	return sweep(ctx, id, title, notes, opt, schemes, cols, func(ctx context.Context, bench string, _ int, sch sim.Scheme) (float64, error) {
		r, err := opt.runSim(ctx, bench, perfConfig(opt, sch, l2))
		if err != nil {
			return 0, err
		}
		base := oracleIPC[bench]
		if base == 0 {
			return 0, nil
		}
		return r.IPC() / base, nil
	})
}

// Figure10 regenerates Figure 10 (normalized IPC, 256 KB L2).
func Figure10(ctx context.Context, opt Options) (Result, error) {
	return ipcFigure(ctx, "Figure 10", 256<<10, opt)
}

// Figure11 regenerates Figure 11 (normalized IPC, 1 MB L2).
func Figure11(ctx context.Context, opt Options) (Result, error) {
	return ipcFigure(ctx, "Figure 11", 1<<20, opt)
}

// optHitRateFigure produces Figures 12/13: regular vs two-level vs
// context-based prediction rates.
func optHitRateFigure(ctx context.Context, id string, l2 int, opt Options) (Result, error) {
	schemes := []sim.Scheme{
		sim.SchemePred(predictor.SchemeRegular),
		sim.SchemePred(predictor.SchemeTwoLevel),
		sim.SchemePred(predictor.SchemeContext),
	}
	cols := []string{"Regular", "Two-level", "Context"}
	title := fmt.Sprintf("Prediction Rate of Two-level and Context-based vs Regular, %s L2", l2Name(l2))
	notes := "Paper: regular ≈ 0.82, two-level ≈ 0.96, context ≈ 0.99 (256KB L2)."
	return hitRateSweep(ctx, id, title, notes, opt, schemes, cols, l2)
}

// Figure12 regenerates Figure 12 (optimized prediction rates, 256 KB L2).
func Figure12(ctx context.Context, opt Options) (Result, error) {
	return optHitRateFigure(ctx, "Figure 12", 256<<10, opt)
}

// Figure13 regenerates Figure 13 (optimized prediction rates, 1 MB L2).
func Figure13(ctx context.Context, opt Options) (Result, error) {
	return optHitRateFigure(ctx, "Figure 13", 1<<20, opt)
}

// Figure14 regenerates Figure 14: the absolute number of predictions
// (speculative pad requests) issued under each L2 size.
func Figure14(ctx context.Context, opt Options) (Result, error) {
	schemes := []sim.Scheme{
		sim.SchemePred(predictor.SchemeContext),
		sim.SchemePred(predictor.SchemeContext),
	}
	cols := []string{"256KB_L2", "1MB_L2"}
	l2s := []int{256 << 10, 1 << 20}
	title := "Number of Predictions under 256KB vs 1MB L2 (context-based)"
	notes := "Paper: larger L2 ⇒ fewer misses ⇒ far fewer predictions."
	return sweep(ctx, "Figure 14", title, notes, opt, schemes, cols, func(ctx context.Context, bench string, col int, sch sim.Scheme) (float64, error) {
		res, err := opt.runSim(ctx, bench, hitRateConfig(opt, sch, l2s[col]))
		if err != nil {
			return 0, err
		}
		return float64(res.Pred.Guesses), nil
	})
}

// optIPCFigure produces Figures 15/16: normalized IPC of the optimized
// predictors vs the regular one.
func optIPCFigure(ctx context.Context, id string, l2 int, opt Options) (Result, error) {
	opt = opt.normalized()
	schemes := []sim.Scheme{
		sim.SchemePred(predictor.SchemeRegular),
		sim.SchemePred(predictor.SchemeTwoLevel),
		sim.SchemePred(predictor.SchemeContext),
	}
	cols := []string{"Regular", "Two-level", "Context"}
	title := fmt.Sprintf("Normalized IPC of Two-level and Context-based vs Regular, %s L2", l2Name(l2))
	notes := "Paper: up to ~7% additional IPC over regular prediction; context ≥ two-level for most programs."
	oracleIPC, err := oracleBaselines(ctx, opt, l2)
	if err != nil {
		return Result{}, err
	}
	return sweep(ctx, id, title, notes, opt, schemes, cols, func(ctx context.Context, bench string, _ int, sch sim.Scheme) (float64, error) {
		r, err := opt.runSim(ctx, bench, perfConfig(opt, sch, l2))
		if err != nil {
			return 0, err
		}
		base := oracleIPC[bench]
		if base == 0 {
			return 0, nil
		}
		return r.IPC() / base, nil
	})
}

// Figure15 regenerates Figure 15 (optimized normalized IPC, 256 KB L2).
func Figure15(ctx context.Context, opt Options) (Result, error) {
	return optIPCFigure(ctx, "Figure 15", 256<<10, opt)
}

// Figure16 regenerates Figure 16 (optimized normalized IPC, 1 MB L2).
func Figure16(ctx context.Context, opt Options) (Result, error) {
	return optIPCFigure(ctx, "Figure 16", 1<<20, opt)
}

func l2Name(l2 int) string {
	if l2 >= 1<<20 {
		return fmt.Sprintf("%dMB", l2>>20)
	}
	return fmt.Sprintf("%dKB", l2>>10)
}

// ByID runs the experiment with the given identifier ("table1", "fig4",
// "fig7" … "fig16", "ablation"). The context cancels the sweep between
// simulations and, via sim checkpoints, inside them.
func ByID(ctx context.Context, id string, opt Options) (Result, error) {
	switch id {
	case "table1":
		return Table1(), nil
	case "fig4":
		return Figure4Timeline(ctx, opt)
	case "fig7":
		return Figure7(ctx, opt)
	case "fig8":
		return Figure8(ctx, opt)
	case "fig9":
		return Figure9(ctx, opt)
	case "fig10":
		return Figure10(ctx, opt)
	case "fig11":
		return Figure11(ctx, opt)
	case "fig12":
		return Figure12(ctx, opt)
	case "fig13":
		return Figure13(ctx, opt)
	case "fig14":
		return Figure14(ctx, opt)
	case "fig15":
		return Figure15(ctx, opt)
	case "fig16":
		return Figure16(ctx, opt)
	case "ablation":
		return Ablation(ctx, opt)
	case "ctxswitch":
		return ContextSwitch(ctx, opt)
	case "integrity":
		return Integrity(ctx, opt)
	case "hybrid":
		return Hybrid(ctx, opt)
	case "seqsweep":
		return SeqCacheSweep(ctx, opt)
	case "valuepred":
		return ValuePrediction(ctx, opt)
	case "attack":
		return AttackCampaign(ctx, opt)
	case "engines":
		return Engines(ctx, opt)
	case "tenants":
		return Tenants(ctx, opt)
	case "capacity":
		return Capacity(ctx, opt)
	}
	return Result{}, fmt.Errorf("experiments: %w %q (want table1, fig4, fig7..fig16, ablation, ctxswitch, integrity, hybrid, seqsweep, valuepred, attack, engines, tenants, capacity)", ErrUnknownExperiment, id)
}

// IDs lists every experiment identifier in paper order.
func IDs() []string {
	return []string{"table1", "fig4", "fig7", "fig8", "fig9", "fig10",
		"fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "ablation",
		"ctxswitch", "integrity", "hybrid", "seqsweep", "valuepred", "attack",
		"engines", "tenants", "capacity"}
}
