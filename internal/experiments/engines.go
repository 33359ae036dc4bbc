package experiments

import (
	"context"
	"fmt"

	"ctrpred/internal/cryptoengine"
	"ctrpred/internal/predictor"
	"ctrpred/internal/sim"
)

// enginesAESLatencies is the AES-latency sweep of the engines
// experiment, ascending. 96 is the paper's Table 1 point; 24 and 48
// stand in for faster modern pipelines, 192 for a wider block or a
// slower clock domain.
var enginesAESLatencies = []uint64{24, 48, 96, 192}

// enginesEdgeThreshold is the normalized-IPC edge below which context
// prediction is considered to have stopped paying: within 1% of the
// baseline is noise at these instruction windows.
const enginesEdgeThreshold = 1.01

// enginesColumns returns the engine specs the experiment sweeps, in
// column order: the AES latency ladder, then the two bracketing modern
// models from PAPERS.md (Sealer-style banked in-SRAM AES, BipBip-style
// low-latency tweakable cipher).
func enginesColumns() []cryptoengine.Spec {
	specs := make([]cryptoengine.Spec, 0, len(enginesAESLatencies)+2)
	for _, lat := range enginesAESLatencies {
		specs = append(specs, cryptoengine.Spec{Model: cryptoengine.ModelAES, LatencyCycles: lat}.Normalized())
	}
	specs = append(specs,
		cryptoengine.Spec{Model: cryptoengine.ModelSealer}.Normalized(),
		cryptoengine.Spec{Model: cryptoengine.ModelBipBip}.Normalized())
	return specs
}

// enginesGrid declares the engines experiment: for every engine model
// of the sweep it runs baseline and pred-context in performance mode on
// each benchmark and reports pred-context's IPC edge (IPC ratio over
// baseline). The paper's 96-cycle pipelined AES is one column among the
// sweep; the AES latency ladder locates the crossover latency below
// which context prediction's edge over the baseline vanishes, and the
// sealer/bipbip columns bracket the modern design space. Options.Engine
// is ignored — sweeping engines is this experiment's job.
func enginesGrid() *grid {
	specs := enginesColumns()
	cols := make([]string, len(specs))
	for i, s := range specs {
		cols[i] = s.String()
	}
	return &grid{
		id:     "engines",
		cols:   cols,
		title:  fixedTitle("Context prediction's IPC edge over baseline, per cipher engine"),
		finish: enginesFinalize,
		cells: func(ctx context.Context, opt Options, benchmarks []string) ([]float64, error) {
			// One job per benchmark × engine, running the baseline and the
			// pred-context machine back to back: the edge is a ratio of the
			// two, so pairing them in one job keeps the grid half the size
			// and the division local.
			return sweep(ctx, opt, "engines", benchmarks, cols, func(ctx context.Context, bench string, col int) (float64, error) {
				base, err := opt.runSim(ctx, bench, perfConfig(opt, sim.SchemeBaseline(), 256<<10).WithEngine(specs[col]))
				if err != nil {
					return 0, fmt.Errorf("baseline: %w", err)
				}
				pred, err := opt.runSim(ctx, bench, perfConfig(opt, sim.SchemePred(predictor.SchemeContext), 256<<10).WithEngine(specs[col]))
				if err != nil {
					return 0, fmt.Errorf("pred-context: %w", err)
				}
				return pred.IPC() / base.IPC(), nil
			})
		},
	}
}

// enginesFinalize is the engines grid's finish: it derives the
// crossover latency and the notes line from the per-column average
// edges.
func enginesFinalize(res *Result, avgs []float64) {
	// Crossover: the largest swept AES latency whose average edge stays
	// within the noise threshold — below it, precomputing pads no longer
	// buys IPC. 0 means prediction pays at every swept latency.
	var crossover uint64
	for i, lat := range enginesAESLatencies {
		if avgs[i] <= enginesEdgeThreshold {
			crossover = lat
		}
	}
	res.Series["crossover"] = map[string]float64{"aes_latency_cycles": float64(crossover)}
	if crossover == 0 {
		res.Notes = fmt.Sprintf("Context prediction keeps an IPC edge > %.0f%% at every swept AES latency (%v); only the bipbip-style engine, where decryption is nearly free, makes prediction redundant by construction.",
			(enginesEdgeThreshold-1)*100, enginesAESLatencies)
	} else {
		res.Notes = fmt.Sprintf("Context prediction's IPC edge over baseline vanishes (≤ %.0f%%) at AES latency %d cycles and below; above it — and under the sealer-style banked engine — precomputation still pays.",
			(enginesEdgeThreshold-1)*100, crossover)
	}
}
