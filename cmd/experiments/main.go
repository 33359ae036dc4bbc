// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments                         # every experiment, default scale
//	experiments -exp fig7,fig12         # a subset
//	experiments -instr 2000000          # longer windows, tighter numbers
//	experiments -bench mcf,gzip,swim    # a benchmark subset
//	experiments -j 8                    # eight simulations in flight
//	experiments -metrics all.json       # raw series as a metrics tree
//
// Each experiment's benchmark × scheme grid runs across -j workers
// (default: one per CPU); results are assembled in input order, so the
// output is byte-identical to -j 1 for the same seed. Per-simulation
// progress lines and each experiment's wall-clock time go to stderr
// (suppress both with -progress=false), so stdout depends only on the
// flags.
//
// Ctrl-C cancels cleanly: in-flight simulations stop at their next
// instruction checkpoint and the error reports which grid cells had
// already finished. -simtimeout bounds each individual simulation.
//
// Output is the same row/series layout the paper's figures plot, plus a
// note recording the shape the paper reports.
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
	"os/signal"
	"strings"
	"time"

	"ctrpred"
	"ctrpred/internal/spec"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its streams and exit code lifted out, so the CLI
// contract — flag validation, exit codes, the metrics export — is
// testable in-process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	sw := bindSweep(fs)
	var (
		exps     = fs.String("exp", "all", "comma-separated experiment ids ("+strings.Join(ctrpred.ExperimentIDs(), ", ")+") or 'all'")
		jobs     = fs.Int("j", 0, "concurrent simulations per sweep (0 = one per CPU)")
		timeout  = fs.Duration("simtimeout", 0, "per-simulation deadline (0 = none), e.g. 30s")
		metrics  = fs.String("metrics", "", "write every experiment's metrics snapshot to this path (JSON; a .csv suffix selects CSV; '-' = stdout)")
		pprof    = fs.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
		progress = fs.Bool("progress", true, "print per-simulation progress/timing lines to stderr")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fatal := func(err error) int {
		fmt.Fprintln(stderr, "experiments:", err)
		return 2
	}

	ids := ctrpred.ExperimentIDs()
	if *exps != "all" {
		ids = nil
		for _, raw := range strings.Split(*exps, ",") {
			if id := strings.TrimSpace(raw); id != "" {
				ids = append(ids, id)
			}
		}
		if len(ids) == 0 {
			return fatal(errors.New("no experiments given"))
		}
	}
	var progressFn func(ctrpred.RunUpdate)
	if *progress {
		progressFn = func(u ctrpred.RunUpdate) {
			status := "ok"
			if u.Err != nil {
				status = "FAIL: " + u.Err.Error()
			}
			fmt.Fprintf(stderr, "[%d/%d] %s (%.2fs) %s\n",
				u.Done, u.Total, u.Label, u.Elapsed.Seconds(), status)
		}
	}
	// Every sweep resolves before the first runs, so a bad flag fails
	// up front instead of deep inside a run.
	opts := make([]ctrpred.ExperimentOptions, len(ids))
	for i, id := range ids {
		sw.ID = id
		opt, err := sw.Resolve()
		if err != nil {
			return fatal(err)
		}
		opt.Workers, opt.SimTimeout, opt.Progress = *jobs, *timeout, progressFn
		opts[i] = opt
	}

	if *pprof != "" {
		go func() {
			if err := http.ListenAndServe(*pprof, nil); err != nil {
				fmt.Fprintln(stderr, "experiments: pprof:", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	root := ctrpred.Snapshot{Name: "experiments"}
	for i, id := range ids {
		start := time.Now()
		res, err := ctrpred.RunExperimentContext(ctx, id, opts[i])
		if err != nil {
			var pe *ctrpred.PartialError
			if errors.As(err, &pe) {
				fmt.Fprintf(stderr, "experiments: %s interrupted: %v\n", id, pe.Cause)
				fmt.Fprintf(stderr, "  %d/%d simulations had finished\n", len(pe.Completed), pe.Total)
			}
			return fatal(err)
		}
		fmt.Fprintln(stdout, res.Table)
		if res.Notes != "" {
			fmt.Fprintf(stdout, "paper shape: %s\n", res.Notes)
		}
		fmt.Fprintln(stdout)
		if *progress {
			fmt.Fprintf(stderr, "(%s regenerated in %.1fs)\n", res.ID, time.Since(start).Seconds())
		}
		if *metrics != "" {
			root.Children = append(root.Children, res.Snapshot())
		}
	}
	if *metrics != "" {
		if err := root.Export(*metrics, stdout); err != nil {
			return fatal(err)
		}
	}
	return 0
}

// bindSweep registers the sweep flags with this command's defaults.
func bindSweep(fs *flag.FlagSet) *spec.Sweep {
	sw := &spec.Sweep{Engine: "aes", Seed: 1, Arrival: "poisson"}
	sw.Bind(fs)
	return sw
}
