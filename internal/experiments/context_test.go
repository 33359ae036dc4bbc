package experiments

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"ctrpred/internal/runpool"
	"ctrpred/internal/workload"
)

// tinyOpts is the smallest scale at which every experiment still runs:
// used only for dispatch round-trips, not for asserting paper shapes.
func tinyOpts() Options {
	return Options{
		Scale:      workload.Scale{Footprint: 256 << 10, Instructions: 2_000},
		Benchmarks: []string{"gzip"},
		Seed:       7,
		Workers:    2,
	}
}

// TestByIDRoundTripAllIDs dispatches every advertised experiment id
// through ByID at tiny scale: the id table and the figure functions can
// never drift apart.
func TestByIDRoundTripAllIDs(t *testing.T) {
	for _, id := range IDs() {
		res, err := ByID(context.Background(), id, tinyOpts())
		if err != nil {
			t.Fatalf("ByID(%q): %v", id, err)
		}
		if res.ID == "" || res.Title == "" {
			t.Fatalf("ByID(%q) returned an unlabeled result: %+v", id, res)
		}
		snap := res.Snapshot()
		if snap.Name != "experiment" {
			t.Fatalf("ByID(%q) snapshot root %q", id, snap.Name)
		}
		if _, err := snap.JSON(); err != nil {
			t.Fatalf("ByID(%q) snapshot does not serialize: %v", id, err)
		}
	}
}

// TestSweepCancelMidRun is the tentpole acceptance check: cancelling a
// sweep returns context.Canceled promptly, wrapped in a *PartialError
// that names the cells that did finish.
func TestSweepCancelMidRun(t *testing.T) {
	opt := quickOpts()
	opt.Workers = 1
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var reported []string
	opt.Progress = func(u runpool.Update) {
		reported = append(reported, u.Label)
		if len(reported) == 2 {
			cancel()
		}
	}
	_, err := Figure7(ctx, opt)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want errors.Is(err, context.Canceled)", err)
	}
	var pe *runpool.PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("error %T does not wrap *runpool.PartialError: %v", err, err)
	}
	// With one worker, the cancel lands while the first row reports its
	// cells, which finished together: exactly that row's three cells
	// completed, and the other two rows of the 3×3 grid were skipped.
	if len(pe.Completed) != 3 || pe.Total != 9 {
		t.Fatalf("partial progress = %d/%d (%v), want 3/9", len(pe.Completed), pe.Total, pe.Completed)
	}
	if !reflect.DeepEqual(pe.Completed, reported) {
		t.Fatalf("completed cells %v, want the cells that reported progress %v", pe.Completed, reported)
	}
}

// TestSimTimeoutExpires checks the per-simulation deadline: an absurdly
// short SimTimeout fails the sweep with DeadlineExceeded, without anyone
// cancelling the sweep's own context.
func TestSimTimeoutExpires(t *testing.T) {
	opt := quickOpts()
	opt.SimTimeout = time.Nanosecond
	_, err := Figure7(context.Background(), opt)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want errors.Is(err, context.DeadlineExceeded)", err)
	}
}

// TestMetricsJSONDeterministicAcrossWorkers is the metrics acceptance
// check: the exported JSON for a fixed seed is byte-identical whether
// the sweep ran sequentially or on four workers.
func TestMetricsJSONDeterministicAcrossWorkers(t *testing.T) {
	seq := quickOpts()
	seq.Workers = 1
	par := quickOpts()
	par.Workers = 4

	a, err := ByID(context.Background(), "fig7", seq)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ByID(context.Background(), "fig7", par)
	if err != nil {
		t.Fatal(err)
	}
	ja, err := a.Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	jb, err := b.Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(ja) != string(jb) {
		t.Fatalf("metrics JSON differs between -j 1 and -j 4:\n--- j=1 ---\n%s\n--- j=4 ---\n%s", ja, jb)
	}
}

// TestSweepPreCancelled checks that a sweep under an already-cancelled
// context runs no simulations at all.
func TestSweepPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opt := quickOpts()
	ran := false
	opt.Progress = func(runpool.Update) { ran = true }
	_, err := Figure7(ctx, opt)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran {
		t.Fatal("pre-cancelled sweep still ran simulations")
	}
}
