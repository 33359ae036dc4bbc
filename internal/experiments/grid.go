package experiments

import (
	"context"
	"fmt"
	"slices"

	"ctrpred/internal/runpool"
	"ctrpred/internal/stats"
)

// A grid is an experiment whose table has one row per benchmark, in
// sorted order, plus an Average row, and one series per column. Its
// cells for one benchmark depend on nothing but that benchmark and the
// options, so a grid also splits into per-benchmark parts that
// MergeParts reassembles: a single-node run and a cluster merge both
// build the table with assemble. An averaged study is a grid whose
// finish replaces that table and its series with a summary of the
// Average row; its result holds no benchmark's values, so it runs whole
// on one node (see Partitionable).
type grid struct {
	// id is the Result ID; it also prefixes the table title and the
	// cells' progress labels ("Figure 7").
	id string
	// cols names the series, in table column order.
	cols  []string
	title func(Options) string
	notes string
	// cells computes every cell under normalized options, row-major:
	// benchmarks[b]'s value for cols[i] at b*len(cols)+i.
	cells func(ctx context.Context, opt Options, benchmarks []string) ([]float64, error)
	// finish, when set, derives further series and the notes from the
	// columns' averages, after the table is complete, or (an averaged
	// study's) replaces the table and series with its summary of them.
	finish func(res *Result, avgs []float64)
}

// fixedTitle is the title of a grid whose title does not depend on the
// options.
func fixedTitle(title string) func(Options) string {
	return func(Options) string { return title }
}

// run computes the grid's cells on this node and assembles them.
func (g *grid) run(ctx context.Context, opt Options) (Result, error) {
	opt = opt.normalized()
	vals, err := g.cells(ctx, opt, opt.Benchmarks)
	if err != nil {
		return Result{}, err
	}
	series := make(map[string]map[string]float64, len(g.cols))
	for i, name := range g.cols {
		series[name] = make(map[string]float64, len(opt.Benchmarks)+1)
		for b, bench := range opt.Benchmarks {
			series[name][bench] = vals[b*len(g.cols)+i]
		}
	}
	return g.assemble(g.title(opt), g.notes, opt.Benchmarks, series)
}

// assemble builds the grid's Result from series, which holds every
// column's value for every benchmark: the benchmarks' rows in the given
// order, then the Average row, each column summed in that order and
// divided by the benchmark count. It adds the Average points to series.
func (g *grid) assemble(title, notes string, benchmarks []string, series map[string]map[string]float64) (Result, error) {
	res := Result{
		ID:     g.id,
		Title:  title,
		Notes:  notes,
		Series: series,
		Table:  stats.NewTable(g.id+" — "+title, append([]string{"benchmark"}, g.cols...)...),
	}
	sums := make([]float64, len(g.cols))
	for _, bench := range benchmarks {
		row := make([]float64, len(g.cols))
		for i, name := range g.cols {
			v, ok := series[name][bench]
			if !ok {
				return Result{}, fmt.Errorf("experiments: %s: no value for %s/%s", g.id, name, bench)
			}
			row[i] = v
			sums[i] += v
		}
		res.Table.AddFloats(bench, 3, row...)
	}
	avgs := make([]float64, len(g.cols))
	for i, name := range g.cols {
		avgs[i] = sums[i] / float64(len(benchmarks))
		series[name]["Average"] = avgs[i]
	}
	res.Table.AddFloats("Average", 3, avgs...)
	if g.finish != nil {
		g.finish(&res, avgs)
	}
	return res, nil
}

// averageRows is the finish of an averaged study whose table lists the
// Average row as rows of w = len(headers)-1 values: row r is names[r]
// with avgs[r*w:(r+1)*w], under the title "<id> — caption". The first
// len(series) values of every row are its points of those series; the
// rest appear only in the table.
func averageRows(caption string, headers, series, names []string) func(*Result, []float64) {
	return func(res *Result, avgs []float64) {
		w := len(headers) - 1
		res.Table = stats.NewTable(res.ID+" — "+caption, headers...)
		res.Series = make(map[string]map[string]float64, len(series))
		for _, s := range series {
			res.Series[s] = make(map[string]float64, len(names))
		}
		for r, name := range names {
			row := avgs[r*w : (r+1)*w]
			for j, s := range series {
				res.Series[s][name] = row[j]
			}
			res.Table.AddFloats(name, 3, row...)
		}
	}
}

// cellLabel names one cell of a grid: "<id> <bench>/<column>".
func cellLabel(id, bench, col string) string {
	return fmt.Sprintf("%s %s/%s", id, bench, col)
}

// cellRunner computes one cell of a sweep: column col of benchmark
// bench's row.
type cellRunner func(ctx context.Context, bench string, col int) (float64, error)

// sweep runs every benchmark × column cell as its own job, labeled
// "<id> <bench>/<column>", across the worker pool; a failure reads
// "<id>: <bench>/<column>: cause".
func sweep(ctx context.Context, opt Options, id string, benchmarks, cols []string, run cellRunner) ([]float64, error) {
	jobs := make([]runpool.Job[float64], 0, len(benchmarks)*len(cols))
	for _, bench := range benchmarks {
		for i, col := range cols {
			jobs = append(jobs, runpool.Job[float64]{
				Label: cellLabel(id, bench, col),
				Fn: func(ctx context.Context) (float64, error) {
					v, err := run(ctx, bench, i)
					if err != nil {
						return 0, fmt.Errorf("%s: %s/%s: %w", id, bench, col, err)
					}
					return v, nil
				},
			})
		}
	}
	return runpool.RunContext(ctx, opt.pool(), jobs)
}

// benchRows runs each benchmark's whole row as one job labeled
// "<label> <bench>", reporting one progress update per benchmark, and
// returns the rows concatenated.
func benchRows(ctx context.Context, opt Options, label string, benchmarks []string, row func(ctx context.Context, bench string) ([]float64, error)) ([]float64, error) {
	jobs := make([]runpool.Job[[]float64], len(benchmarks))
	for i, bench := range benchmarks {
		jobs[i] = runpool.Job[[]float64]{
			Label: fmt.Sprintf("%s %s", label, bench),
			Fn:    func(ctx context.Context) ([]float64, error) { return row(ctx, bench) },
		}
	}
	rows, err := runpool.RunContext(ctx, opt.pool(), jobs)
	if err != nil {
		return nil, err
	}
	return slices.Concat(rows...), nil
}
