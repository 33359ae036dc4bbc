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

// Integrity measures the cost of composing the paper's assumed hash-tree
// authentication with each counter-availability scheme: IPC with the
// tree, normalized to the same scheme without it, averaged over the
// benchmark set. Prediction hides decryption latency, not verification
// latency — the tree's overhead is roughly scheme-independent, showing
// the two mechanisms compose.
func Integrity(ctx context.Context, opt Options) (Result, error) {
	opt = opt.normalized()
	res := Result{
		ID:     "Integrity",
		Title:  "IPC with hash-tree authentication, normalized to no-tree (average)",
		Notes:  "Counter prediction and integrity verification address different latencies and compose.",
		Series: map[string]map[string]float64{"normalized_ipc": {}},
	}
	res.Table = stats.NewTable("Integrity — hash-tree overhead per scheme",
		"scheme", "IPC ratio (tree/no-tree)")
	schemes := []sim.Scheme{
		sim.SchemeBaseline(),
		sim.SchemeSeqCache(128 << 10),
		sim.SchemePred(predictor.SchemeRegular),
		sim.SchemePred(predictor.SchemeContext),
		sim.SchemeOracle(),
	}
	var jobs []runpool.Job[ratio]
	for _, sch := range schemes {
		for _, bench := range opt.Benchmarks {
			jobs = append(jobs, runpool.Job[ratio]{
				Label: fmt.Sprintf("Integrity %s/%s", bench, sch.Name),
				Fn: func(ctx context.Context) (ratio, error) {
					base, err := opt.runSim(ctx, bench, perfConfig(opt, sch, 256<<10))
					if err != nil {
						return ratio{}, err
					}
					withTree, err := opt.runSim(ctx, bench, perfConfig(opt, sch, 256<<10).WithIntegrity())
					if err != nil {
						return ratio{}, err
					}
					if base.IPC() <= 0 {
						return ratio{}, nil
					}
					return ratio{v: withTree.IPC() / base.IPC(), ok: true}, nil
				},
			})
		}
	}
	ratios, err := runpool.RunContext(ctx, opt.pool(), jobs)
	if err != nil {
		return Result{}, err
	}
	for i, sch := range schemes {
		avg := meanRatios(ratios[i*len(opt.Benchmarks) : (i+1)*len(opt.Benchmarks)])
		res.Series["normalized_ipc"][sch.Name] = avg
		res.Table.AddFloats(sch.Name, 3, avg)
	}
	return res, nil
}

// Hybrid evaluates Section 9.2's suggestion that memory pre-decryption
// (prefetch) and OTP prediction are orthogonal and "a hybrid approach can
// be designed for further performance improvement": IPC normalized to the
// oracle for the baseline, prefetch alone, prediction alone, and both.
func Hybrid(ctx context.Context, opt Options) (Result, error) {
	opt = opt.normalized()
	res := Result{
		ID:     "Hybrid",
		Title:  "Prediction × pre-decryption prefetch, IPC normalized to oracle (average)",
		Notes:  "Paper §9.2: the techniques are orthogonal; the hybrid should top either alone.",
		Series: map[string]map[string]float64{"normalized_ipc": {}},
	}
	res.Table = stats.NewTable("Hybrid — composing prediction with pre-decryption",
		"configuration", "normalized IPC")

	type variant struct {
		name     string
		scheme   sim.Scheme
		prefetch int
	}
	variants := []variant{
		{"baseline", sim.SchemeBaseline(), 0},
		{"prefetch-only", sim.SchemeBaseline(), 1},
		{"prediction-only", sim.SchemePred(predictor.SchemeRegular), 0},
		{"hybrid", sim.SchemePred(predictor.SchemeRegular), 1},
	}
	oracleIPC, err := oracleBaselines(ctx, opt, 256<<10)
	if err != nil {
		return Result{}, err
	}
	var jobs []runpool.Job[ratio]
	for _, v := range variants {
		for _, bench := range opt.Benchmarks {
			jobs = append(jobs, runpool.Job[ratio]{
				Label: fmt.Sprintf("Hybrid %s/%s", bench, v.name),
				Fn: func(ctx context.Context) (ratio, error) {
					cfg := perfConfig(opt, v.scheme, 256<<10)
					cfg.Mem.PrefetchDegree = v.prefetch
					r, err := opt.runSim(ctx, bench, cfg)
					if err != nil {
						return ratio{}, err
					}
					base := oracleIPC[bench]
					if base <= 0 {
						return ratio{}, nil
					}
					return ratio{v: r.IPC() / base, ok: true}, nil
				},
			})
		}
	}
	ratios, err := runpool.RunContext(ctx, opt.pool(), jobs)
	if err != nil {
		return Result{}, err
	}
	for i, v := range variants {
		avg := meanRatios(ratios[i*len(opt.Benchmarks) : (i+1)*len(opt.Benchmarks)])
		res.Series["normalized_ipc"][v.name] = avg
		res.Table.AddFloats(v.name, 3, avg)
	}
	return res, nil
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

// ValuePrediction evaluates Section 9.3's related-work contrast: load
// value prediction also tolerates memory latency, but "does not
// specifically address the issue of sequence number fetch on the critical
// path of memory decryption" — its predictability source is value
// locality, OTP prediction's is counter locality. The experiment reports
// IPC normalized to the oracle for each mechanism alone and combined.
func ValuePrediction(ctx context.Context, opt Options) (Result, error) {
	opt = opt.normalized()
	res := Result{
		ID:     "ValuePrediction",
		Title:  "OTP prediction vs load-value prediction, IPC normalized to oracle (average)",
		Notes:  "Paper §9.3: different predictability sources; LVP alone cannot recover what counter prediction does on encrypted memory.",
		Series: map[string]map[string]float64{"normalized_ipc": {}},
	}
	res.Table = stats.NewTable("ValuePrediction — latency-tolerance mechanisms compared",
		"configuration", "normalized IPC")

	type variant struct {
		name   string
		scheme sim.Scheme
		lvp    int
	}
	variants := []variant{
		{"baseline", sim.SchemeBaseline(), 0},
		{"lvp-only", sim.SchemeBaseline(), 4096},
		{"otp-pred-only", sim.SchemePred(predictor.SchemeRegular), 0},
		{"otp-pred+lvp", sim.SchemePred(predictor.SchemeRegular), 4096},
	}
	oracleIPC, err := oracleBaselines(ctx, opt, 256<<10)
	if err != nil {
		return Result{}, err
	}
	var jobs []runpool.Job[ratio]
	for _, v := range variants {
		for _, bench := range opt.Benchmarks {
			jobs = append(jobs, runpool.Job[ratio]{
				Label: fmt.Sprintf("ValuePrediction %s/%s", bench, v.name),
				Fn: func(ctx context.Context) (ratio, error) {
					cfg := perfConfig(opt, v.scheme, 256<<10)
					cfg.CPU.LVPEntries = v.lvp
					r, err := opt.runSim(ctx, bench, cfg)
					if err != nil {
						return ratio{}, err
					}
					base := oracleIPC[bench]
					if base <= 0 {
						return ratio{}, nil
					}
					return ratio{v: r.IPC() / base, ok: true}, nil
				},
			})
		}
	}
	ratios, err := runpool.RunContext(ctx, opt.pool(), jobs)
	if err != nil {
		return Result{}, err
	}
	for i, v := range variants {
		avg := meanRatios(ratios[i*len(opt.Benchmarks) : (i+1)*len(opt.Benchmarks)])
		res.Series["normalized_ipc"][v.name] = avg
		res.Table.AddFloats(v.name, 3, avg)
	}
	return res, nil
}
