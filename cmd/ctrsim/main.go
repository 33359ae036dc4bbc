// Command ctrsim runs one benchmark on the secure-processor simulator
// under a chosen counter-availability scheme and prints its statistics.
//
// Usage:
//
//	ctrsim -bench mcf -scheme pred-context -l2 256K -instr 1000000
//	ctrsim -bench mcf -metrics run.json     # full metrics tree as JSON
//	ctrsim -bench gzip -faults 'bitflip@fetch:100' -recovery quarantine
//	ctrsim -tenants gzip,mcf -arrival bursty -quantum 5000
//	ctrsim -list
//
// Schemes: baseline, oracle, seqcache:<size>, pred-regular,
// pred-twolevel, pred-context, combined:<size> (seq cache + regular
// prediction). Sizes accept K/M suffixes. -engine selects the cipher
// engine timing model (aes, aes:lat=48, sealer, sealer:banks=8,
// bipbip); see the README's engine-model table.
//
// The machine flags (-bench -scheme -engine -l2 -footprint -instr -mode
// -seed -flush -integrity -faults -recovery -retry-budget) are the
// fields of a POST /v1/sim body and resolve the same way (internal/spec),
// so a run here and the same body on ctrpredd give identical snapshots.
// A zero value means the library default: -flush 0 is Table 1's
// 25M-cycle dirty flush, -seed 0 is seed 1, -instr 0 the 2M default.
//
// -tenants switches to multi-tenant mode: each listed benchmark becomes
// a tenant (own key domain, seeded -seed, -seed+1, …) with the shared
// machine configuration and a per-tenant budget of -instr instructions,
// interleaved by the -arrival process. A -faults plan arms the *last*
// tenant as the adversary (implying -integrity and quarantine recovery
// for it). The report carries per-tenant SLO percentiles, degradation
// and slowdown; -slo-p99 / -slo-slowdown declare bounds to judge them.
//
// Exit codes: 0 clean run, 2 usage or run error, 3 security halt.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof"
	"os"
	"strings"

	"ctrpred"
	"ctrpred/internal/spec"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its streams and exit code lifted out, so the CLI
// contract — flag validation, implied options, exit codes — is testable
// in-process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ctrsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	r := spec.Run{
		Bench: "mcf", Scheme: "pred-regular", Engine: "aes", L2: "256K",
		Footprint: "2M", Instructions: 1_000_000, Mode: "performance",
		Seed: 1, Recovery: "halt",
	}
	r.Bind(fs)
	var (
		metrics = fs.String("metrics", "", "write the metrics snapshot to this path (JSON; a .csv suffix selects CSV; '-' = stdout)")
		tenants = fs.String("tenants", "", "comma-separated benchmarks to run as interleaved tenants (multi-tenant mode; -bench is ignored)")
		arrival = fs.String("arrival", "poisson", "tenancy arrival process: poisson|bursty")
		quantum = fs.Uint64("quantum", 0, "tenancy timeslice cap in instructions (0 = budget/16)")
		retain  = fs.Bool("retain-pred", false, "retain predictor transient state across context switches (save/restore with process context)")
		sloSlow = fs.Float64("slo-slowdown", 0, "tenancy SLO: max end-to-end slowdown vs solo (0 = unconstrained)")
		sloP99  = fs.Float64("slo-p99", 0, "tenancy SLO: max p99 fetch latency in cycles (0 = unconstrained)")
		pprof   = fs.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
		list    = fs.Bool("list", false, "list benchmarks and exit")
		verbose = fs.Bool("v", false, "print extended statistics")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fatal := func(err error) int {
		fmt.Fprintln(stderr, "ctrsim:", err)
		return 2
	}

	if *list {
		for _, b := range ctrpred.BenchmarkCatalog() {
			tags := ""
			if b.MemoryBound {
				tags += " [memory-bound]"
			}
			if b.WriteHeavy {
				tags += " [write-heavy]"
			}
			fmt.Fprintf(stdout, "%-9s %s%s\n", b.Name, b.Description, tags)
		}
		return 0
	}
	if *pprof != "" {
		go func() {
			if err := http.ListenAndServe(*pprof, nil); err != nil {
				fmt.Fprintln(stderr, "ctrsim: pprof:", err)
			}
		}()
	}

	if *tenants != "" {
		// Multi-tenant mode: every tenant resolves the same spec for the
		// shared machine, under its own benchmark and seed.
		kind, err := ctrpred.ParseArrival(*arrival)
		if err != nil {
			return fatal(err)
		}
		slo, err := spec.SLO(*sloSlow, *sloP99)
		if err != nil {
			return fatal(err)
		}
		scn := ctrpred.TenancyScenario{Kind: kind, Quantum: *quantum, RetainPredictor: *retain, SLO: slo}
		names := strings.Split(*tenants, ",")
		for i, raw := range names {
			t := r
			t.Bench = strings.TrimSpace(raw)
			if t.Bench == "" {
				return fatal(fmt.Errorf("empty tenant name in -tenants %q", *tenants))
			}
			if i < len(names)-1 {
				t.Faults = ""
			} else if t.Faults != "" {
				// The last tenant is the adversary: armed with the attack
				// plan, quarantine recovery so its slices complete.
				t.Recovery = "quarantine"
			}
			_, tcfg, err := t.Resolve()
			if err != nil {
				return fatal(err)
			}
			// Tenant i runs seed -seed+i; the scenario draws its arrivals
			// from -seed.
			if i == 0 {
				scn.Seed = tcfg.Seed
			}
			tcfg.Seed += uint64(i)
			scn.Tenants = append(scn.Tenants, ctrpred.TenancyTenant{Bench: t.Bench, Config: tcfg})
		}
		rep, err := ctrpred.RunTenancy(context.Background(), scn)
		if err != nil {
			return fatal(err)
		}
		printTenancy(stdout, rep)
		if *metrics != "" {
			if err := rep.Snapshot().Export(*metrics, stdout); err != nil {
				return fatal(err)
			}
		}
		return 0
	}

	bench, cfg, err := r.Resolve()
	if err != nil {
		return fatal(err)
	}
	res, err := ctrpred.Run(bench, cfg)
	if err != nil {
		var serr *ctrpred.SecurityError
		if errors.As(err, &serr) {
			// The run halted on a detected security violation: report what
			// was measured up to the halt, then exit distinctly.
			printSecurity(stdout, res)
			fmt.Fprintln(stderr, "ctrsim: halted:", serr)
			return 3
		}
		return fatal(err)
	}

	fmt.Fprintf(stdout, "benchmark      %s\n", res.Benchmark)
	fmt.Fprintf(stdout, "scheme         %s\n", res.Scheme)
	fmt.Fprintf(stdout, "mode           %s\n", res.Mode)
	fmt.Fprintf(stdout, "instructions   %d\n", res.CPU.Instructions)
	fmt.Fprintf(stdout, "cycles         %d\n", res.CPU.Cycles)
	fmt.Fprintf(stdout, "IPC            %.4f\n", res.IPC())
	fmt.Fprintf(stdout, "L2 miss rate   %.4f\n", 1-res.L2.HitRate())
	fmt.Fprintf(stdout, "mem fetches    %d\n", res.Ctrl.Fetches)
	fmt.Fprintf(stdout, "writebacks     %d\n", res.Ctrl.Evictions)
	fmt.Fprintf(stdout, "pred rate      %.4f\n", res.PredRate())
	fmt.Fprintf(stdout, "seq$ hit rate  %.4f\n", res.SeqHitRate())
	fmt.Fprintf(stdout, "pad violations %d\n", res.PadViolations)
	if *verbose {
		fmt.Fprintf(stdout, "\n-- detail --\n")
		fmt.Fprintf(stdout, "loads/stores/branches  %d/%d/%d\n", res.CPU.Loads, res.CPU.Stores, res.CPU.Branches)
		fmt.Fprintf(stdout, "branch mispredicts     %d\n", res.CPU.Mispredicts)
		fmt.Fprintf(stdout, "L1D hit rate           %.4f\n", res.L1D.HitRate())
		fmt.Fprintf(stdout, "predictions issued     %d\n", res.Pred.Guesses)
		fmt.Fprintf(stdout, "root resets/rebases    %d/%d\n", res.Pred.Resets, res.Pred.Rebases)
		fmt.Fprintf(stdout, "counter-buffer hits    %d\n", res.Ctrl.CounterBufHits)
		fmt.Fprintf(stdout, "engine issued          %v (stall %d)\n", res.Engine.Issued, res.Engine.StallCycles)
		fmt.Fprintf(stdout, "DRAM r/w               %d/%d (row hit %d, miss %d, conflict %d)\n",
			res.DRAM.Reads, res.DRAM.Writes, res.DRAM.RowHits, res.DRAM.RowMisses, res.DRAM.RowConflicts)
		fmt.Fprintf(stdout, "fetch latency          %s\n", res.Ctrl.FetchLatency)
		fmt.Fprintf(stdout, "decrypt exposure       %d cycles total\n", res.Ctrl.DecryptExposed)
		fmt.Fprintf(stdout, "flushes (lines)        %d (%d)\n", res.Hierarchy.Flushes, res.Hierarchy.FlushedLines)
	}
	printSecurity(stdout, res)
	if *metrics != "" {
		if err := res.Snapshot().Export(*metrics, stdout); err != nil {
			return fatal(err)
		}
	}
	return 0
}

// printTenancy reports a multi-tenant scenario: the aggregate SLO line
// followed by one line per tenant.
func printTenancy(w io.Writer, rep ctrpred.TenancyReport) {
	fmt.Fprintf(w, "tenants            %d\n", len(rep.Tenants))
	fmt.Fprintf(w, "switches/slices    %d/%d\n", rep.Switches, rep.Slices)
	fmt.Fprintf(w, "global cycles      %d\n", rep.GlobalCycles)
	fmt.Fprintf(w, "agg fetch p50/p99  %.0f/%.0f cycles\n", rep.AggP50FetchLatency, rep.AggP99FetchLatency)
	fmt.Fprintf(w, "slowdown mean/max  %.2f/%.2f\n", rep.MeanSlowdown, rep.MaxSlowdown)
	fmt.Fprintf(w, "degradation mean/max %.3f/%.3f\n", rep.MeanDegradation, rep.MaxDegradation)
	fmt.Fprintf(w, "meets SLO          %v\n", rep.MeetsSLO)
	for i, tr := range rep.Tenants {
		slo := ""
		if !tr.MeetsSLO {
			slo = " MISSES-SLO"
		}
		fmt.Fprintf(w, "tenant%02d %-9s ipc=%.4f solo=%.4f deg=%.3f slow=%.2f p50/p99=%.0f/%.0f sw=%d%s\n",
			i, tr.Bench, tr.IPC, tr.SoloIPC, tr.Degradation, tr.Slowdown,
			tr.P50FetchLatency, tr.P99FetchLatency, tr.Switches, slo)
	}
}

// printSecurity reports the adversarial side of a run — injected and
// detected attacks, recovery-path counters — when a fault injector was
// armed or security events occurred.
func printSecurity(w io.Writer, res ctrpred.Result) {
	if res.Faults != nil {
		fmt.Fprintf(w, "\n-- faults --\n")
		fmt.Fprintf(w, "attacks injected/detected  %d/%d\n", res.Faults.TotalInjected(), res.Faults.TotalDetected())
	}
	if res.Security != nil {
		fmt.Fprintf(w, "tamper detections          %d\n", res.Ctrl.TamperDetected)
		fmt.Fprintf(w, "quarantined/retries/healed %d/%d/%d\n",
			res.Security.Quarantined, res.Security.Retries, res.Security.Healed)
	}
}
