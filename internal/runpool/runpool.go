// Package runpool executes independent simulation jobs across a bounded
// pool of workers and assembles their results in deterministic input
// order.
//
// Every experiment sweep in this repository is embarrassingly parallel:
// each (benchmark, scheme) simulation is an isolated machine driven only
// by its seed, mirroring the paper's evaluation methodology (Section 5),
// where every data point is an independent SimpleScalar run. The pool
// exploits that independence for wall-clock speed while keeping the
// assembled output — tables, series maps, even the error reported on
// failure — byte-identical to a sequential run: results land in the slot
// of their input index, and the error returned is always the
// lowest-index failure regardless of completion order.
//
// A job may also be a Row: several cells computed in one run, such as a
// hit-rate row whose schemes share one simulated front end. The pool
// schedules the row as one job and accounts for it cell by cell.
//
// Runs are cancellable: RunContext stops dispatching new jobs once the
// context is done, jobs receive the context so they can abandon work at
// their own checkpoints, and the returned *PartialError records which
// jobs finished before the interruption.
//
// A panicking job does not kill the sweep: the panic is captured as a
// *PanicError labeled with the job, and surfaces through the normal
// error path.
package runpool

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"time"
)

// Job is one unit of independent work producing a T.
type Job[T any] struct {
	// Label identifies the job in progress updates and panic errors,
	// e.g. "Figure 7 mcf/pred-regular".
	Label string
	// Fn computes the job's value. It must not share mutable state with
	// other jobs. The context is the run's context (plus any per-job
	// deadline the caller layered on); long jobs should poll it and
	// return its error to make cancellation prompt.
	Fn func(ctx context.Context) (T, error)
}

// Update describes one finished job. Progress callbacks receive updates
// in completion order (not input order), serialized — never concurrently.
// For a Row each of its cells is a job here: Index is the cell's position
// in the flattened results, and Err and Elapsed are the row's.
type Update struct {
	// Index is the job's position in the input slice.
	Index int
	// Label is the job's label.
	Label string
	// Err is the job's failure, if any (panics arrive as *PanicError).
	Err error
	// Elapsed is the job's wall-clock duration.
	Elapsed time.Duration
	// Done counts jobs finished so far, including this one.
	Done int
	// Total is the number of jobs in the run.
	Total int
}

// Options configures a Run.
type Options struct {
	// Workers caps concurrent jobs; <= 0 means DefaultWorkers().
	Workers int
	// Progress, when non-nil, is called once per finished job. Jobs
	// skipped because the context was cancelled before they started do
	// not produce updates.
	Progress func(Update)
}

// PanicError is the error a job that panicked fails with.
type PanicError struct {
	// Label is the panicking job's label.
	Label string
	// Value is the value passed to panic.
	Value any
	// Stack is the goroutine stack at the point of the panic.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("job %q panicked: %v", e.Label, e.Value)
}

// PartialError reports a run interrupted by context cancellation or
// deadline expiry: which jobs completed successfully before the
// interruption, and the context error that caused it. errors.Is sees
// through it to the cause (context.Canceled / context.DeadlineExceeded),
// so callers branch on the standard sentinels.
type PartialError struct {
	// Cause is the context error that interrupted the run.
	Cause error
	// Completed lists the labels of jobs that finished without error, in
	// input order. Their results are present in the returned slice.
	Completed []string
	// Total is the number of jobs the run was asked to execute.
	Total int
}

func (e *PartialError) Error() string {
	msg := fmt.Sprintf("run interrupted (%v) after %d/%d jobs", e.Cause, len(e.Completed), e.Total)
	if n := len(e.Completed); n > 0 && n <= 8 {
		msg += ": finished " + strings.Join(e.Completed, ", ")
	}
	return msg
}

// Unwrap exposes the context error for errors.Is.
func (e *PartialError) Unwrap() error { return e.Cause }

// DefaultWorkers is the worker count used when Options.Workers <= 0:
// one per available CPU.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// RunContext executes every job across the pool and returns their values
// in input order.
//
// While ctx is live, all jobs run even if some fail; if any failed,
// RunContext returns the error of the lowest-index failed job (so the
// reported error does not depend on scheduling), alongside the partial
// results — slots of failed jobs hold T's zero value.
//
// When ctx is cancelled mid-run, jobs not yet started are skipped,
// in-flight jobs are left to notice the cancellation themselves, and the
// returned error is a *PartialError wrapping ctx.Err() that lists the
// jobs that did finish; their results are valid in the returned slice.
//
// A job is a row of one cell: RunContext is RunRowsContext over such
// rows.
func RunContext[T any](ctx context.Context, opt Options, jobs []Job[T]) ([]T, error) {
	rows := make([]Row[T], len(jobs))
	for i, j := range jobs {
		rows[i] = Row[T]{
			Labels: []string{j.Label},
			Fn: func(ctx context.Context) ([]T, error) {
				v, err := j.Fn(ctx)
				return []T{v}, err
			},
		}
	}
	return RunRowsContext(ctx, opt, rows)
}

// Row is one unit of work that produces several cells: the cells of a
// grid row that share their computation. The pool schedules the row as
// one job, but progress, partial results and totals count its cells.
type Row[T any] struct {
	// Labels names the row's cells, one per value Fn returns.
	Labels []string
	// Fn computes the row's values, one per label and in label order,
	// under the same contract as Job.Fn.
	Fn func(ctx context.Context) ([]T, error)
}

// RunRowsContext executes every row across the pool and returns the
// cells' values flattened in input order, with RunContext's semantics
// stated per cell: when a row finishes, Progress receives one update per
// cell, each with the row's error and elapsed time and with Done and
// Total counting cells; a *PartialError lists the cells of the rows that
// finished and counts every cell in Total. A failed row's error (the
// lowest-index one, if several failed) fails every cell of the row, and
// a panic is labeled with all of the row's cell labels.
func RunRowsContext[T any](ctx context.Context, opt Options, rows []Row[T]) ([]T, error) {
	// Row r's cells occupy results[first[r]:first[r+1]].
	first := make([]int, len(rows)+1)
	for r, row := range rows {
		first[r+1] = first[r] + len(row.Labels)
	}
	total := first[len(rows)]
	results := make([]T, total)
	errs := make([]error, len(rows))
	skipped := make([]bool, len(rows))
	if len(rows) == 0 {
		return results, ctx.Err()
	}

	workers := opt.Workers
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > len(rows) {
		workers = len(rows)
	}

	var (
		mu   sync.Mutex // serializes Progress and the done counter
		done int
	)
	finish := func(r int, elapsed time.Duration) {
		if opt.Progress == nil {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		for c, label := range rows[r].Labels {
			done++
			opt.Progress(Update{
				Index:   first[r] + c,
				Label:   label,
				Err:     errs[r],
				Elapsed: elapsed,
				Done:    done,
				Total:   total,
			})
		}
	}
	exec := func(r int) {
		if err := ctx.Err(); err != nil {
			errs[r] = err
			skipped[r] = true
			return
		}
		start := time.Now()
		defer func() {
			if v := recover(); v != nil {
				errs[r] = &PanicError{Label: strings.Join(rows[r].Labels, ", "), Value: v, Stack: debug.Stack()}
			}
			finish(r, time.Since(start))
		}()
		vals, err := rows[r].Fn(ctx)
		if err == nil && len(vals) != len(rows[r].Labels) {
			err = fmt.Errorf("runpool: row %q returned %d values for %d cells",
				strings.Join(rows[r].Labels, ", "), len(vals), len(rows[r].Labels))
		}
		copy(results[first[r]:first[r+1]], vals)
		errs[r] = err
	}

	idx := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for r := range idx {
				exec(r)
			}
		}()
	}
	for r := range rows {
		idx <- r
	}
	close(idx)
	wg.Wait()

	if cause := ctx.Err(); cause != nil {
		perr := &PartialError{Cause: cause, Total: total}
		for r, row := range rows {
			if !skipped[r] && errs[r] == nil {
				perr.Completed = append(perr.Completed, row.Labels...)
			}
		}
		return results, perr
	}
	for _, err := range errs {
		if err != nil {
			return results, err
		}
	}
	return results, nil
}
