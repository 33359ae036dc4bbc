package experiments

import (
	"context"
	"fmt"

	"ctrpred/internal/predictor"
	"ctrpred/internal/sim"
	"ctrpred/internal/stats"
)

// contextSwitch declares the multiprogramming study of Section 2.2 /
// Section 3.1: sequence-number cache hit rates "can be substantially
// reduced when the working set is large or in-between context switches",
// while prediction state (per-page roots, saved with the process security
// context) survives a switch. The study sweeps the switch interval and
// reports the counter coverage of a 128 KB cache vs regular prediction,
// averaged over the benchmark set. A switch interval is a front-end
// setting, so each benchmark runs one hit-rate row per interval, and its
// columns are interval × scheme.
func contextSwitch() *grid {
	// A row switches every window/div cycles of the hit-rate window;
	// the "none" row keeps the default, no switches.
	every := func(div uint64) func(*sim.Config) {
		return func(c *sim.Config) { c.Mem.ContextSwitchInterval = c.Scale.Instructions / div }
	}
	intervals := []string{"none", "window/8", "window/32", "window/128"}
	edits := []func(*sim.Config){nil, every(8), every(32), every(128)}
	schemes := []sim.Scheme{
		sim.SchemeSeqCache(128 << 10),
		sim.SchemePred(predictor.SchemeRegular),
	}
	var cols []string
	for _, iv := range intervals {
		for _, sch := range schemes {
			cols = append(cols, iv+" "+sch.Name)
		}
	}
	headers := []string{"switch interval", schemes[0].Name, schemes[1].Name}
	return &grid{
		id:    "ContextSwitch",
		cols:  cols,
		title: fixedTitle("Counter coverage vs context-switch interval (average over benchmarks)"),
		notes: "Paper: caching degrades in-between context switches; prediction state is part of the saved process context.",
		cells: func(ctx context.Context, opt Options, benchmarks []string) ([]float64, error) {
			return coverageCells(ctx, opt, "ContextSwitch", benchmarks, cols, schemes, 256<<10, edits)
		},
		finish: averageRows("coverage under multiprogramming", headers, headers[1:], intervals),
	}
}

// integrity declares the cost of composing the paper's assumed
// hash-tree authentication with each counter-availability scheme: IPC
// with the tree, normalized to the same scheme without it, averaged over
// the benchmark set. Prediction hides decryption latency, not
// verification latency — the tree's overhead is roughly
// scheme-independent, showing the two mechanisms compose.
func integrity() *grid {
	schemes := []sim.Scheme{
		sim.SchemeBaseline(),
		sim.SchemeSeqCache(128 << 10),
		sim.SchemePred(predictor.SchemeRegular),
		sim.SchemePred(predictor.SchemeContext),
		sim.SchemeOracle(),
	}
	cols := make([]string, len(schemes))
	for i, sch := range schemes {
		cols[i] = sch.Name
	}
	return &grid{
		id:    "Integrity",
		cols:  cols,
		title: fixedTitle("IPC with hash-tree authentication, normalized to no-tree (average)"),
		notes: "Counter prediction and integrity verification address different latencies and compose.",
		cells: func(ctx context.Context, opt Options, benchmarks []string) ([]float64, error) {
			return sweep(ctx, opt, "Integrity", benchmarks, cols, func(ctx context.Context, bench string, col int) (float64, error) {
				cfg := perfConfig(opt, schemes[col], 256<<10)
				base, err := opt.runSim(ctx, bench, cfg)
				if err != nil {
					return 0, err
				}
				withTree, err := opt.runSim(ctx, bench, cfg.WithIntegrity())
				if err != nil {
					return 0, err
				}
				return withTree.IPC() / base.IPC(), nil
			})
		},
		finish: averageRows("hash-tree overhead per scheme",
			[]string{"scheme", "IPC ratio (tree/no-tree)"}, []string{"normalized_ipc"}, cols),
	}
}

// hybrid declares Section 9.2's suggestion that memory pre-decryption
// (prefetch) and OTP prediction are orthogonal and "a hybrid approach can
// be designed for further performance improvement": IPC normalized to the
// oracle for the baseline, prefetch alone, prediction alone, and both.
func hybrid() *grid {
	return withPrediction("Hybrid",
		"Prediction × pre-decryption prefetch, IPC normalized to oracle (average)",
		"Paper §9.2: the techniques are orthogonal; the hybrid should top either alone.",
		"composing prediction with pre-decryption",
		[]string{"baseline", "prefetch-only", "prediction-only", "hybrid"},
		func(cfg *sim.Config) { cfg.Mem.PrefetchDegree = 1 })
}

// valuePrediction declares Section 9.3's related-work contrast: load
// value prediction also tolerates memory latency, but "does not
// specifically address the issue of sequence number fetch on the critical
// path of memory decryption" — its predictability source is value
// locality, OTP prediction's is counter locality. The study reports IPC
// normalized to the oracle for each mechanism alone and combined.
func valuePrediction() *grid {
	return withPrediction("ValuePrediction",
		"OTP prediction vs load-value prediction, IPC normalized to oracle (average)",
		"Paper §9.3: different predictability sources; LVP alone cannot recover what counter prediction does on encrypted memory.",
		"latency-tolerance mechanisms compared",
		[]string{"baseline", "lvp-only", "otp-pred-only", "otp-pred+lvp"},
		func(cfg *sim.Config) { cfg.CPU.LVPEntries = 4096 })
}

// withPrediction declares study id, which composes regular OTP
// prediction with another latency-tolerance mechanism, enabled by
// mechanism: IPC normalized to the oracle for the baseline, the
// mechanism alone, prediction alone and both, named by cols in that
// order, under the table "<id> — caption".
func withPrediction(id, title, notes, caption string, cols []string, mechanism func(*sim.Config)) *grid {
	baseline, pred := sim.SchemeBaseline(), sim.SchemePred(predictor.SchemeRegular)
	schemes := []sim.Scheme{baseline, baseline, pred, pred}
	edits := []func(*sim.Config){nil, mechanism, nil, mechanism}
	return &grid{
		id:    id,
		cols:  cols,
		title: fixedTitle(title),
		notes: notes,
		cells: func(ctx context.Context, opt Options, benchmarks []string) ([]float64, error) {
			return normalizedIPCCells(ctx, opt, id, benchmarks, cols, schemes, 256<<10, edits)
		},
		finish: averageRows(caption, []string{"configuration", "normalized IPC"}, []string{"normalized_ipc"}, cols),
	}
}

// seqCacheSweep declares the paper's motivating claim (Section 2.2):
// "these specialized caches do not hide decryption latency effectively
// because its hit rate does not grow steadily with its size … the area
// cost to improve the hit rate via simple caching can be prohibitively
// high." It sweeps the sequence-number cache from 4 KB to 1 MB and
// reports the average hit rate, with the gain over the next smaller
// size, alongside prediction's (size-independent) rate for reference.
func seqCacheSweep() *grid {
	sizes := []int{4 << 10, 16 << 10, 64 << 10, 128 << 10, 256 << 10, 512 << 10, 1 << 20}
	var schemes []sim.Scheme
	var cols []string
	for _, size := range sizes {
		schemes = append(schemes, sim.SchemeSeqCache(size))
		cols = append(cols, fmt.Sprintf("%dKB", size>>10))
	}
	// Reference line: prediction with zero dedicated storage.
	schemes = append(schemes, sim.SchemePred(predictor.SchemeRegular))
	cols = append(cols, "prediction (0KB)")
	return &grid{
		id:    "SeqCacheSweep",
		cols:  cols,
		title: fixedTitle("Sequence-number cache hit rate vs size (average over benchmarks)"),
		notes: "Paper §2.2: hit rate plateaus with size; prediction needs no storage at all.",
		cells: func(ctx context.Context, opt Options, benchmarks []string) ([]float64, error) {
			return coverageCells(ctx, opt, "SeqCacheSweep", benchmarks, cols, schemes, 256<<10, nil)
		},
		finish: func(res *Result, avgs []float64) {
			res.Table = stats.NewTable("SeqCacheSweep — the caching plateau",
				"capacity", "avg hit rate", "marginal gain / 2x size")
			res.Series = map[string]map[string]float64{"hit_rate": {}}
			for i, name := range cols {
				gain := 0.0
				if i > 0 && i < len(sizes) {
					gain = avgs[i] - avgs[i-1]
				}
				res.Series["hit_rate"][name] = avgs[i]
				res.Table.AddFloats(name, 3, avgs[i], gain)
			}
		},
	}
}
