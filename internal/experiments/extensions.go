package experiments

import (
	"context"
	"fmt"

	"ctrpred/internal/predictor"
	"ctrpred/internal/runpool"
	"ctrpred/internal/sim"
	"ctrpred/internal/stats"
)

// ratio is a per-benchmark normalized value; ok is false when the
// denominator was zero and the sample must be skipped.
type ratio struct {
	v  float64
	ok bool
}

// meanRatios averages the valid samples in benchmark order, exactly as
// the sequential accumulation did.
func meanRatios(rs []ratio) float64 {
	var sum float64
	var n int
	for _, r := range rs {
		if r.ok {
			sum += r.v
			n++
		}
	}
	return sum / float64(n)
}

// ContextSwitch regenerates the multiprogramming claim of Section 2.2 /
// Section 3.1: sequence-number cache hit rates "can be substantially
// reduced when the working set is large or in-between context switches",
// while prediction state (per-page roots, saved with the process security
// context) survives a switch. The experiment sweeps the switch interval
// and reports the counter coverage of a 128 KB cache vs regular
// prediction, averaged over the benchmark set.
func ContextSwitch(ctx context.Context, opt Options) (Result, error) {
	opt = opt.normalized()
	res := Result{
		ID:     "ContextSwitch",
		Title:  "Counter coverage vs context-switch interval (average over benchmarks)",
		Notes:  "Paper: caching degrades in-between context switches; prediction state is part of the saved process context.",
		Series: map[string]map[string]float64{"seqcache-128K": {}, "pred-regular": {}},
	}
	res.Table = stats.NewTable("ContextSwitch — coverage under multiprogramming",
		"switch interval", "seqcache-128K", "pred-regular")

	intervals := []struct {
		name   string
		cycles func(window uint64) uint64
	}{
		{"none", func(uint64) uint64 { return 0 }},
		{"window/8", func(w uint64) uint64 { return w / 8 }},
		{"window/32", func(w uint64) uint64 { return w / 32 }},
		{"window/128", func(w uint64) uint64 { return w / 128 }},
	}
	schemes := []sim.Scheme{
		sim.SchemeSeqCache(128 << 10),
		sim.SchemePred(predictor.SchemeRegular),
	}
	var jobs []runpool.Row[float64]
	for _, iv := range intervals {
		for _, bench := range opt.Benchmarks {
			labels := make([]string, len(schemes))
			cfgs := make([]sim.Config, len(schemes))
			for i, sch := range schemes {
				labels[i] = fmt.Sprintf("ContextSwitch %s %s/%s", iv.name, bench, sch.Name)
				cfgs[i] = hitRateConfig(opt, sch, 256<<10)
				cfgs[i].Mem.ContextSwitchInterval = iv.cycles(cfgs[i].Scale.Instructions)
			}
			jobs = append(jobs, hitRateRow(opt, fmt.Sprintf("ctxswitch %s/%s", iv.name, bench), bench, labels, cfgs,
				func(i int, r sim.Result) float64 { return coverage(schemes[i], r) }))
		}
	}
	covered, err := runpool.RunRowsContext(ctx, opt.pool(), jobs)
	if err != nil {
		return Result{}, err
	}
	// covered holds interval-major rows of benchmarks, each one value
	// per scheme; average every (interval, scheme) over the benchmarks.
	nb, ns := len(opt.Benchmarks), len(schemes)
	for v, iv := range intervals {
		vals := make([]float64, ns)
		for i := range schemes {
			var sum float64
			for b := range nb {
				sum += covered[(v*nb+b)*ns+i]
			}
			vals[i] = sum / float64(nb)
		}
		res.Series["seqcache-128K"][iv.name] = vals[0]
		res.Series["pred-regular"][iv.name] = vals[1]
		res.Table.AddFloats(iv.name, 3, vals...)
	}
	return res, nil
}

// A variant is one row of a variant table: a scheme, and an optional
// edit of its performance-mode config at the default 256 KB L2.
type variant struct {
	name   string
	scheme sim.Scheme
	edit   func(*sim.Config)
}

// config is the variant's performance-mode config.
func (v variant) config(opt Options) sim.Config {
	cfg := perfConfig(opt, v.scheme, 256<<10)
	if v.edit != nil {
		v.edit(&cfg)
	}
	return cfg
}

// variantCells runs every variant × benchmark cell as one job, labeled
// "<id> <bench>/<variant>", across one pool, and returns the cells
// variant-major: variants[v]'s value on benchmark b at v*len(benchmarks)+b.
func variantCells[T any](ctx context.Context, opt Options, id string, variants []variant, cell func(ctx context.Context, bench string, v variant) (T, error)) ([]T, error) {
	var jobs []runpool.Job[T]
	for _, v := range variants {
		for _, bench := range opt.Benchmarks {
			jobs = append(jobs, runpool.Job[T]{
				Label: fmt.Sprintf("%s %s/%s", id, bench, v.name),
				Fn:    func(ctx context.Context) (T, error) { return cell(ctx, bench, v) },
			})
		}
	}
	return runpool.RunContext(ctx, opt.pool(), jobs)
}

// variantTable fills res, which names the experiment and holds its table
// header, with one row per variant, from variant-major ratios (see
// variantCells). A row, and its point of the "normalized_ipc" series, is
// the variant's mean ratio over the benchmarks.
func variantTable(opt Options, res Result, variants []variant, ratios []ratio) Result {
	nb := len(opt.Benchmarks)
	res.Series = map[string]map[string]float64{"normalized_ipc": {}}
	for i, v := range variants {
		avg := meanRatios(ratios[i*nb : (i+1)*nb])
		res.Series["normalized_ipc"][v.name] = avg
		res.Table.AddFloats(v.name, 3, avg)
	}
	return res
}

// Integrity measures the cost of composing the paper's assumed hash-tree
// authentication with each counter-availability scheme: IPC with the
// tree, normalized to the same scheme without it, averaged over the
// benchmark set. Prediction hides decryption latency, not verification
// latency — the tree's overhead is roughly scheme-independent, showing
// the two mechanisms compose.
func Integrity(ctx context.Context, opt Options) (Result, error) {
	opt = opt.normalized()
	var variants []variant
	for _, sch := range []sim.Scheme{
		sim.SchemeBaseline(),
		sim.SchemeSeqCache(128 << 10),
		sim.SchemePred(predictor.SchemeRegular),
		sim.SchemePred(predictor.SchemeContext),
		sim.SchemeOracle(),
	} {
		variants = append(variants, variant{name: sch.Name, scheme: sch})
	}
	res := Result{
		ID:    "Integrity",
		Title: "IPC with hash-tree authentication, normalized to no-tree (average)",
		Notes: "Counter prediction and integrity verification address different latencies and compose.",
		Table: stats.NewTable("Integrity — hash-tree overhead per scheme", "scheme", "IPC ratio (tree/no-tree)"),
	}
	ratios, err := variantCells(ctx, opt, res.ID, variants, func(ctx context.Context, bench string, v variant) (ratio, error) {
		base, err := opt.runSim(ctx, bench, v.config(opt))
		if err != nil {
			return ratio{}, err
		}
		withTree, err := opt.runSim(ctx, bench, v.config(opt).WithIntegrity())
		if err != nil {
			return ratio{}, err
		}
		if base.IPC() <= 0 {
			return ratio{}, nil
		}
		return ratio{v: withTree.IPC() / base.IPC(), ok: true}, nil
	})
	if err != nil {
		return Result{}, err
	}
	return variantTable(opt, res, variants, ratios), nil
}

// Hybrid evaluates Section 9.2's suggestion that memory pre-decryption
// (prefetch) and OTP prediction are orthogonal and "a hybrid approach can
// be designed for further performance improvement": IPC normalized to the
// oracle for the baseline, prefetch alone, prediction alone, and both.
func Hybrid(ctx context.Context, opt Options) (Result, error) {
	return withPrediction(ctx, opt, Result{
		ID:    "Hybrid",
		Title: "Prediction × pre-decryption prefetch, IPC normalized to oracle (average)",
		Notes: "Paper §9.2: the techniques are orthogonal; the hybrid should top either alone.",
		Table: stats.NewTable("Hybrid — composing prediction with pre-decryption", "configuration", "normalized IPC"),
	}, [4]string{"baseline", "prefetch-only", "prediction-only", "hybrid"},
		func(cfg *sim.Config) { cfg.Mem.PrefetchDegree = 1 })
}

// ValuePrediction evaluates Section 9.3's related-work contrast: load
// value prediction also tolerates memory latency, but "does not
// specifically address the issue of sequence number fetch on the critical
// path of memory decryption" — its predictability source is value
// locality, OTP prediction's is counter locality. The experiment reports
// IPC normalized to the oracle for each mechanism alone and combined.
func ValuePrediction(ctx context.Context, opt Options) (Result, error) {
	return withPrediction(ctx, opt, Result{
		ID:    "ValuePrediction",
		Title: "OTP prediction vs load-value prediction, IPC normalized to oracle (average)",
		Notes: "Paper §9.3: different predictability sources; LVP alone cannot recover what counter prediction does on encrypted memory.",
		Table: stats.NewTable("ValuePrediction — latency-tolerance mechanisms compared", "configuration", "normalized IPC"),
	}, [4]string{"baseline", "lvp-only", "otp-pred-only", "otp-pred+lvp"},
		func(cfg *sim.Config) { cfg.CPU.LVPEntries = 4096 })
}

// withPrediction runs the variant table that composes regular OTP
// prediction with another latency-tolerance mechanism, enabled by
// mechanism: IPC normalized to the oracle for the baseline, the
// mechanism alone, prediction alone and both, named by names in that
// order. The oracle runs are a first variant of the same pool, divided
// out and left out of the table.
func withPrediction(ctx context.Context, opt Options, res Result, names [4]string, mechanism func(*sim.Config)) (Result, error) {
	opt = opt.normalized()
	baseline, pred := sim.SchemeBaseline(), sim.SchemePred(predictor.SchemeRegular)
	variants := []variant{
		{"oracle", sim.SchemeOracle(), nil},
		{names[0], baseline, nil},
		{names[1], baseline, mechanism},
		{names[2], pred, nil},
		{names[3], pred, mechanism},
	}
	ipcs, err := variantCells(ctx, opt, res.ID, variants, func(ctx context.Context, bench string, v variant) (float64, error) {
		r, err := opt.runSim(ctx, bench, v.config(opt))
		if err != nil {
			return 0, err
		}
		return r.IPC(), nil
	})
	if err != nil {
		return Result{}, err
	}
	nb := len(opt.Benchmarks)
	ratios := make([]ratio, len(ipcs)-nb)
	for i, ipc := range ipcs[nb:] {
		if base := ipcs[i%nb]; base > 0 {
			ratios[i] = ratio{v: ipc / base, ok: true}
		}
	}
	return variantTable(opt, res, variants[1:], ratios), nil
}

// SeqCacheSweep regenerates the paper's motivating claim (Section 2.2):
// "these specialized caches do not hide decryption latency effectively
// because its hit rate does not grow steadily with its size … the area
// cost to improve the hit rate via simple caching can be prohibitively
// high." It sweeps the sequence-number cache from 4 KB to 1 MB and
// reports the average hit rate alongside prediction's (size-independent)
// rate for reference.
func SeqCacheSweep(ctx context.Context, opt Options) (Result, error) {
	opt = opt.normalized()
	res := Result{
		ID:     "SeqCacheSweep",
		Title:  "Sequence-number cache hit rate vs size (average over benchmarks)",
		Notes:  "Paper §2.2: hit rate plateaus with size; prediction needs no storage at all.",
		Series: map[string]map[string]float64{"hit_rate": {}},
	}
	res.Table = stats.NewTable("SeqCacheSweep — the caching plateau",
		"capacity", "avg hit rate", "marginal gain / 2x size")

	sizes := []int{4 << 10, 16 << 10, 64 << 10, 128 << 10, 256 << 10, 512 << 10, 1 << 20}
	var schemes []sim.Scheme
	for _, size := range sizes {
		schemes = append(schemes, sim.SchemeSeqCache(size))
	}
	// Reference line: prediction with zero dedicated storage.
	schemes = append(schemes, sim.SchemePred(predictor.SchemeRegular))
	var jobs []runpool.Row[float64]
	for _, bench := range opt.Benchmarks {
		labels := make([]string, len(schemes))
		cfgs := make([]sim.Config, len(schemes))
		for i, sch := range schemes {
			labels[i] = fmt.Sprintf("SeqCacheSweep %dKB/%s", sch.SeqCacheBytes>>10, bench)
			cfgs[i] = hitRateConfig(opt, sch, 256<<10)
		}
		labels[len(sizes)] = fmt.Sprintf("SeqCacheSweep prediction/%s", bench)
		jobs = append(jobs, hitRateRow(opt, "SeqCacheSweep "+bench, bench, labels, cfgs,
			func(i int, r sim.Result) float64 { return coverage(schemes[i], r) }))
	}
	rates, err := runpool.RunRowsContext(ctx, opt.pool(), jobs)
	if err != nil {
		return Result{}, err
	}
	// rates holds one row per benchmark, one value per scheme; colAvg
	// averages scheme i's column over the benchmarks.
	nb, ns := len(opt.Benchmarks), len(schemes)
	colAvg := func(i int) float64 {
		var sum float64
		for b := range nb {
			sum += rates[b*ns+i]
		}
		return sum / float64(nb)
	}
	prev := 0.0
	for i, size := range sizes {
		avg := colAvg(i)
		name := fmt.Sprintf("%dKB", size>>10)
		res.Series["hit_rate"][name] = avg
		gain := 0.0
		if i > 0 {
			gain = avg - prev
		}
		res.Table.AddFloats(name, 3, avg, gain)
		prev = avg
	}
	predAvg := colAvg(len(sizes))
	res.Series["hit_rate"]["prediction (0KB)"] = predAvg
	res.Table.AddFloats("prediction (0KB)", 3, predAvg, 0)
	return res, nil
}
