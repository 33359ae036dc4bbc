package experiments

import (
	"context"
	"fmt"

	"ctrpred/internal/cpu"
	"ctrpred/internal/cryptoengine"
	"ctrpred/internal/ctr"
	"ctrpred/internal/dram"
	"ctrpred/internal/mem"
	"ctrpred/internal/memsys"
	"ctrpred/internal/predictor"
	"ctrpred/internal/runpool"
	"ctrpred/internal/secmem"
	"ctrpred/internal/seqcache"
	"ctrpred/internal/sim"
	"ctrpred/internal/stats"
)

// Table1 renders the processor model parameters actually configured in
// the simulator, for side-by-side comparison with the paper's Table 1.
func Table1() Result {
	t := stats.NewTable("Table 1 — Processor model parameters", "Parameter", "Value")
	add := func(k, v string) { t.AddRow(k, v) }
	add("Fetch/Decode width", fmt.Sprintf("%d", cpu.FetchWidth))
	add("Issue/Commit width", fmt.Sprintf("%d/%d", cpu.IssueWidth, cpu.CommitWidth))
	add("ROB size", fmt.Sprintf("%d", cpu.ROBSize))
	add("L1 I-Cache", fmt.Sprintf("DM, %dKB, 32B line", memsys.L1Size>>10))
	add("L1 D-Cache", fmt.Sprintf("DM, %dKB, 32B line, write-through", memsys.L1Size>>10))
	add("L2 Cache", fmt.Sprintf("%d-way, unified, 32B line, writeback, 256KB and 1MB", memsys.L2Ways))
	add("L1 latency", fmt.Sprintf("%d cycle", memsys.L1Latency))
	add("L2 latency", fmt.Sprintf("%d cycles (256KB), %d cycles (1MB)",
		memsys.Config{L2Size: 256 << 10}.L2Latency(), memsys.Config{L2Size: 1 << 20}.L2Latency()))
	add("I-TLB / D-TLB", fmt.Sprintf("%d-way, %d entries", memsys.TLBWays, memsys.TLBEntries))
	add("Memory bus", fmt.Sprintf("200MHz, %dB wide", dram.BusBytes))
	add("DRAM", fmt.Sprintf("%d banks, %dB rows, tRCD/tCAS/tRP = %d/%d/%d ns",
		dram.DefaultConfig().Banks, dram.RowBytes, dram.TRCD, dram.TCAS, dram.TRP))
	add("AES latency", fmt.Sprintf("%d ns, fully pipelined (AES-256)", cryptoengine.DefaultSpec().LatencyCycles))
	pc := predictor.DefaultConfig(predictor.SchemeContext)
	add("Sequence number cache", "4KB, 32KB, 128KB, 512KB (32B line) in sweeps")
	add("Prediction history vector", fmt.Sprintf("%d bits", pc.PHVBits))
	add("PHV reset threshold", fmt.Sprintf("%d", pc.ResetThreshold))
	add("Prediction depth", fmt.Sprintf("%d", pc.Depth))
	add("Prediction swing (context)", fmt.Sprintf("%d", pc.Swing))
	add("Range table (two-level)", fmt.Sprintf("%d entries, %d-bit ranges", pc.RangeTableEntries, pc.RangeBits))
	add("Dirty-line flush", "every 25M cycles (scaled with run length)")
	return Result{
		ID:    "Table 1",
		Title: "Processor model parameters",
		Table: t,
		Notes: "Matches the paper's Table 1; DRAM detail follows the Gries/Romer SDRAM model.",
	}
}

// Figure4Timeline reproduces the Figure 4 timelines as a microbenchmark:
// the latency of a single cold L2 miss under the baseline, sequence
// number caching (warm), OTP prediction, and the oracle, on
// Options.Engine's cipher engine.
func Figure4Timeline(ctx context.Context, opt Options) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	opt = opt.normalized()
	res := Result{
		ID:     "Figure 4",
		Title:  "Timeline comparison of OTP computation (single-miss latency, cycles)",
		Notes:  "Paper: prediction hides pad generation behind the line fetch; baseline serializes counter fetch + AES.",
		Series: map[string]map[string]float64{},
	}
	res.Table = stats.NewTable("Figure 4 — single L2-miss latency (cycles)",
		"scenario", "counter_at", "line_at", "data_ready")

	type scenario struct {
		name   string
		scheme predictor.Scheme
		warmSC int // seq-cache bytes, warmed before the measured miss
		oracle bool
		direct bool
	}
	scenarios := []scenario{
		{name: "direct-encryption", scheme: predictor.SchemeNone, direct: true},
		{name: "baseline", scheme: predictor.SchemeNone},
		{name: "seqcache(warm)", scheme: predictor.SchemeNone, warmSC: 4 << 10},
		{name: "otp-prediction", scheme: predictor.SchemeRegular},
		{name: "oracle", scheme: predictor.SchemeNone, oracle: true},
	}
	var key [32]byte
	key[0] = 0x11
	for _, sc := range scenarios {
		image := mem.New()
		d := dram.New(dram.DefaultConfig())
		e, err := cryptoengine.NewModel(opt.Engine)
		if err != nil {
			return Result{}, err
		}
		p := predictor.New(predictor.DefaultConfig(sc.scheme))
		var cache *seqcache.Cache
		if sc.warmSC > 0 {
			cache = seqcache.New(sc.warmSC)
		}
		cfg := secmem.DefaultConfig()
		cfg.Oracle = sc.oracle
		cfg.Direct = sc.direct
		ctrl := secmem.New(cfg, d, e, ctr.NewKeystream(key), p, cache, image)
		const addr = 0x100000
		if cache != nil {
			// Warm the counter into the cache with an earlier fetch.
			ctrl.FetchLine(0, addr)
		}
		r := ctrl.FetchLine(1_000_000, addr)
		start := uint64(1_000_000)
		res.Table.AddRow(sc.name,
			fmt.Sprintf("%d", r.SeqDone-start),
			fmt.Sprintf("%d", r.LineDone-start),
			fmt.Sprintf("%d", r.Done-start))
		res.Series[sc.name] = map[string]float64{"data_ready": float64(r.Done - start)}
	}
	return res, nil
}

// ablation declares the sweep of the design parameters Sections 3, 7
// and 8 discuss: adaptive resets on/off, prediction depth, root-history
// depth, reset threshold and the context swing. Each variant is two
// columns, its prediction rate and its guesses per fetch; the table
// lists their averages over the benchmarks, one row per variant.
func ablation() *grid {
	variants := []struct {
		name string
		mod  func(*predictor.Config)
	}{
		{"regular (default)", func(c *predictor.Config) {}},
		{"non-adaptive", func(c *predictor.Config) { c.Adaptive = false }},
		{"depth=1", func(c *predictor.Config) { c.Depth = 1 }},
		{"depth=11", func(c *predictor.Config) { c.Depth = 11 }},
		{"history=1", func(c *predictor.Config) { c.HistoryDepth = 1 }},
		{"history=2", func(c *predictor.Config) { c.HistoryDepth = 2 }},
		{"threshold=4", func(c *predictor.Config) { c.ResetThreshold = 4 }},
		{"threshold=16", func(c *predictor.Config) { c.ResetThreshold = 16 }},
		{"context swing=1", func(c *predictor.Config) { c.Scheme = predictor.SchemeContext; c.Swing = 1 }},
		{"context swing=7", func(c *predictor.Config) { c.Scheme = predictor.SchemeContext; c.Swing = 7 }},
	}
	schemes := make([]sim.Scheme, len(variants))
	names := make([]string, len(variants))
	var cols []string
	for i, v := range variants {
		pc := predictor.DefaultConfig(predictor.SchemeRegular)
		v.mod(&pc)
		schemes[i] = sim.Scheme{Name: v.name, Pred: pc.Scheme, PredConfig: &pc}
		names[i] = v.name
		cols = append(cols, v.name+" pred_rate", v.name+" guesses/fetch")
	}
	return &grid{
		id:    "Ablation",
		cols:  cols,
		title: fixedTitle("Predictor design-parameter sweeps (average prediction rate)"),
		notes: "Paper: adaptivity is essential for write-heavy programs; depth beyond ~5 overloads the engine; root history is marginal.",
		// A benchmark's variants share one front end, so its row is one
		// job with a cell, and a progress update, per variant.
		cells: func(ctx context.Context, opt Options, benchmarks []string) ([]float64, error) {
			rows := make([]runpool.Row[[2]float64], len(benchmarks))
			for b, bench := range benchmarks {
				labels := make([]string, len(schemes))
				cfgs := make([]sim.Config, len(schemes))
				for i, sch := range schemes {
					labels[i] = cellLabel("Ablation", bench, sch.Name)
					cfgs[i] = hitRateConfig(opt, sch, 256<<10)
				}
				rows[b] = hitRateRow(opt, "Ablation: "+bench, bench, labels, cfgs, func(_ int, r sim.Result) [2]float64 {
					return [2]float64{r.PredRate(), stats.Rate(r.Pred.Guesses, r.Pred.Fetches)}
				})
			}
			pairs, err := runpool.RunRowsContext(ctx, opt.pool(), rows)
			if err != nil {
				return nil, err
			}
			vals := make([]float64, 0, 2*len(pairs))
			for _, p := range pairs {
				vals = append(vals, p[0], p[1])
			}
			return vals, nil
		},
		finish: averageRows("average prediction rate across benchmarks",
			[]string{"variant", "pred_rate", "guesses/fetch"}, []string{"pred_rate"}, names),
	}
}
