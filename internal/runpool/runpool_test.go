package runpool

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestOrderPreservedAcrossWorkers(t *testing.T) {
	const n = 100
	jobs := make([]Job[int], n)
	for i := 0; i < n; i++ {
		jobs[i] = Job[int]{
			Label: fmt.Sprintf("job-%d", i),
			Fn: func(context.Context) (int, error) {
				// Earlier jobs sleep longer, so completion order inverts
				// submission order; results must still land by index.
				time.Sleep(time.Duration(n-i) * 10 * time.Microsecond)
				return i * i, nil
			},
		}
	}
	for _, workers := range []int{1, 4, 16, n + 5} {
		got, err := RunContext(context.Background(), Options{Workers: workers}, jobs)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: result[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestPanicCaptured(t *testing.T) {
	jobs := []Job[string]{
		{Label: "fine", Fn: func(context.Context) (string, error) { return "ok", nil }},
		{Label: "bomb", Fn: func(context.Context) (string, error) { panic("boom") }},
		{Label: "also-fine", Fn: func(context.Context) (string, error) { return "ok", nil }},
	}
	got, err := RunContext(context.Background(), Options{Workers: 2}, jobs)
	if err == nil {
		t.Fatal("panic did not surface as an error")
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error %T is not a *PanicError: %v", err, err)
	}
	if pe.Label != "bomb" || pe.Value != "boom" {
		t.Fatalf("panic mislabeled: %+v", pe)
	}
	if !strings.Contains(pe.Error(), "bomb") || !strings.Contains(pe.Error(), "boom") {
		t.Fatalf("PanicError message uninformative: %q", pe.Error())
	}
	if len(pe.Stack) == 0 {
		t.Fatal("panic stack not captured")
	}
	// The sweep survives: the other jobs still produced their values.
	if got[0] != "ok" || got[2] != "ok" {
		t.Fatalf("sibling jobs lost: %q", got)
	}
}

func TestLowestIndexErrorWins(t *testing.T) {
	// Job 7 fails instantly, job 2 fails slowly: the reported error must
	// be job 2's regardless of completion order.
	jobs := make([]Job[int], 10)
	for i := range jobs {
		jobs[i] = Job[int]{Label: fmt.Sprintf("job-%d", i), Fn: func(context.Context) (int, error) {
			switch i {
			case 2:
				time.Sleep(20 * time.Millisecond)
				return 0, errors.New("slow failure")
			case 7:
				return 0, errors.New("fast failure")
			}
			return i, nil
		}}
	}
	_, err := RunContext(context.Background(), Options{Workers: 8}, jobs)
	if err == nil || err.Error() != "slow failure" {
		t.Fatalf("err = %v, want job 2's slow failure", err)
	}
}

func TestProgressSerializedAndComplete(t *testing.T) {
	const n = 50
	jobs := make([]Job[int], n)
	for i := range jobs {
		jobs[i] = Job[int]{Label: fmt.Sprintf("job-%d", i), Fn: func(context.Context) (int, error) { return i, nil }}
	}
	var updates []Update
	var inFlight atomic.Int32
	_, err := RunContext(context.Background(), Options{
		Workers: 8,
		Progress: func(u Update) {
			if inFlight.Add(1) != 1 {
				t.Error("progress callback ran concurrently")
			}
			updates = append(updates, u)
			inFlight.Add(-1)
		},
	}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(updates) != n {
		t.Fatalf("%d updates, want %d", len(updates), n)
	}
	seen := make(map[int]bool)
	for k, u := range updates {
		if u.Done != k+1 || u.Total != n {
			t.Fatalf("update %d: Done=%d Total=%d", k, u.Done, u.Total)
		}
		if u.Label != fmt.Sprintf("job-%d", u.Index) {
			t.Fatalf("update %d: label %q does not match index %d", k, u.Label, u.Index)
		}
		if seen[u.Index] {
			t.Fatalf("job %d reported twice", u.Index)
		}
		seen[u.Index] = true
	}
}

func TestEmptyAndDefaults(t *testing.T) {
	got, err := RunContext[int](context.Background(), Options{}, nil)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty run: %v, %v", got, err)
	}
	if DefaultWorkers() < 1 {
		t.Fatalf("DefaultWorkers() = %d", DefaultWorkers())
	}
	// Workers <= 0 falls back to the default and still runs everything.
	vals, err := RunContext(context.Background(), Options{Workers: -3}, []Job[int]{{Label: "x", Fn: func(context.Context) (int, error) { return 42, nil }}})
	if err != nil || vals[0] != 42 {
		t.Fatalf("default-worker run: %v, %v", vals, err)
	}
}

func TestCancelMidRun(t *testing.T) {
	// One worker processes jobs in order; job 3 cancels the context, so
	// jobs 0–3 finish and jobs 4+ are skipped.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const n = 10
	jobs := make([]Job[int], n)
	for i := range jobs {
		jobs[i] = Job[int]{Label: fmt.Sprintf("job-%d", i), Fn: func(context.Context) (int, error) {
			if i == 3 {
				cancel()
			}
			return i + 1, nil
		}}
	}
	vals, err := RunContext(ctx, Options{Workers: 1}, jobs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want errors.Is(err, context.Canceled)", err)
	}
	var pe *PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("error %T is not a *PartialError: %v", err, err)
	}
	want := []string{"job-0", "job-1", "job-2", "job-3"}
	if len(pe.Completed) != len(want) {
		t.Fatalf("Completed = %v, want %v", pe.Completed, want)
	}
	for k, label := range want {
		if pe.Completed[k] != label {
			t.Fatalf("Completed = %v, want %v", pe.Completed, want)
		}
	}
	if pe.Total != n {
		t.Fatalf("Total = %d, want %d", pe.Total, n)
	}
	// Finished jobs' results survive; skipped slots hold the zero value.
	for i := 0; i < 4; i++ {
		if vals[i] != i+1 {
			t.Fatalf("vals[%d] = %d, want %d", i, vals[i], i+1)
		}
	}
	for i := 4; i < n; i++ {
		if vals[i] != 0 {
			t.Fatalf("vals[%d] = %d, want 0 (skipped)", i, vals[i])
		}
	}
	if !strings.Contains(pe.Error(), "4/10") {
		t.Fatalf("PartialError message uninformative: %q", pe.Error())
	}
}

func TestPreCancelledSkipsEverything(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int32
	jobs := []Job[int]{{Label: "x", Fn: func(context.Context) (int, error) {
		ran.Add(1)
		return 1, nil
	}}}
	_, err := RunContext(ctx, Options{}, jobs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran.Load() != 0 {
		t.Fatal("job ran despite pre-cancelled context")
	}
	var pe *PartialError
	if !errors.As(err, &pe) || len(pe.Completed) != 0 {
		t.Fatalf("want empty PartialError, got %v", err)
	}
}

// TestRowsAccountPerCell checks that a row is one job but every count is
// per cell: values flatten in input order, each finished row reports one
// update per cell with Done and Total counting cells, and an interrupted
// run's PartialError names finished cells and counts all of them.
func TestRowsAccountPerCell(t *testing.T) {
	rows := []Row[string]{
		{Labels: []string{"a", "b"}, Fn: func(context.Context) ([]string, error) { return []string{"A", "B"}, nil }},
		{Labels: []string{"c"}, Fn: func(context.Context) ([]string, error) { return []string{"C"}, nil }},
		{Labels: []string{"d", "e", "f"}, Fn: func(context.Context) ([]string, error) { return []string{"D", "E", "F"}, nil }},
	}
	var updates []Update
	got, err := RunRowsContext(context.Background(), Options{Workers: 2, Progress: func(u Update) { updates = append(updates, u) }}, rows)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(got, "") != "ABCDEF" {
		t.Fatalf("values %q, want ABCDEF in input order", got)
	}
	if len(updates) != 6 {
		t.Fatalf("%d updates, want one per cell (6)", len(updates))
	}
	seen := map[int]string{}
	for i, u := range updates {
		if u.Done != i+1 || u.Total != 6 {
			t.Fatalf("update %d reads %d/%d, want %d/6", i, u.Done, u.Total, i+1)
		}
		seen[u.Index] = u.Label
	}
	for i, want := range []string{"a", "b", "c", "d", "e", "f"} {
		if seen[i] != want {
			t.Fatalf("cell %d reported as %q, want %q", i, seen[i], want)
		}
	}

	// Cancel inside the first row: its two cells finished, the rest of
	// the five cells were skipped.
	ctx, cancel := context.WithCancel(context.Background())
	_, err = RunRowsContext(ctx, Options{Workers: 1}, []Row[int]{
		{Labels: []string{"x", "y"}, Fn: func(context.Context) ([]int, error) { cancel(); return []int{1, 2}, nil }},
		{Labels: []string{"z", "w", "v"}, Fn: func(context.Context) ([]int, error) { return []int{3, 4, 5}, nil }},
	})
	var pe *PartialError
	if !errors.As(err, &pe) || strings.Join(pe.Completed, ",") != "x,y" || pe.Total != 5 {
		t.Fatalf("err = %v, want a PartialError naming x,y of 5 cells", err)
	}
}

// TestRowFailures checks that a failed row fails all its cells: a panic
// is labeled with the row's cells, and a row returning the wrong number
// of values is an error, not a short result.
func TestRowFailures(t *testing.T) {
	var errs []error
	_, err := RunRowsContext(context.Background(), Options{Workers: 2, Progress: func(u Update) { errs = append(errs, u.Err) }}, []Row[int]{
		{Labels: []string{"p", "q"}, Fn: func(context.Context) ([]int, error) { panic("boom") }},
		{Labels: []string{"r", "s"}, Fn: func(context.Context) ([]int, error) { return []int{1}, nil }},
	})
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Label != "p, q" {
		t.Fatalf("err = %v, want the first row's panic labeled with both cells", err)
	}
	if len(errs) != 4 {
		t.Fatalf("%d updates, want 4", len(errs))
	}
	for _, e := range errs {
		if e == nil {
			t.Fatal("a cell of a failed row reported success")
		}
	}
	_, err = RunRowsContext(context.Background(), Options{}, []Row[int]{
		{Labels: []string{"r", "s"}, Fn: func(context.Context) ([]int, error) { return []int{1}, nil }},
	})
	if err == nil || !strings.Contains(err.Error(), "1 values for 2 cells") {
		t.Fatalf("err = %v, want a value-count error", err)
	}
}
