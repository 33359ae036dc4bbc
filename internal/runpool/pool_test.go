package runpool

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestPoolRunsSubmittedTasks(t *testing.T) {
	p := NewPool(4, 16)
	var n atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		// Retry on saturation, as a load-shedding client would: 32 rapid
		// submissions legitimately overrun 4 workers + 16 backlog.
		for {
			err := p.TrySubmit(func() {
				defer wg.Done()
				n.Add(1)
			})
			if err == nil {
				break
			}
			if !errors.Is(err, ErrPoolSaturated) {
				wg.Done()
				t.Fatalf("TrySubmit: %v", err)
			}
			time.Sleep(time.Millisecond)
		}
	}
	wg.Wait()
	if n.Load() != 32 {
		t.Fatalf("ran %d tasks, want 32", n.Load())
	}
	s := p.Stats()
	if s.Submitted != 32 || s.Completed != 32 {
		t.Fatalf("stats = %+v", s)
	}
	if err := p.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

func TestPoolSaturationRejects(t *testing.T) {
	p := NewPool(1, 1)
	block := make(chan struct{})
	started := make(chan struct{})
	if err := p.TrySubmit(func() { close(started); <-block }); err != nil {
		t.Fatalf("first submit: %v", err)
	}
	<-started // worker occupied
	if err := p.TrySubmit(func() {}); err != nil {
		t.Fatalf("backlog submit: %v", err)
	}
	// Worker busy + backlog full → saturation.
	err := p.TrySubmit(func() {})
	if !errors.Is(err, ErrPoolSaturated) {
		t.Fatalf("overflow submit = %v, want ErrPoolSaturated", err)
	}
	if s := p.Stats(); s.Rejected != 1 || s.Pending != 1 || s.Running != 1 {
		t.Fatalf("stats = %+v", s)
	}
	close(block)
	if err := p.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

func TestPoolShutdownDrainsBacklog(t *testing.T) {
	p := NewPool(1, 8)
	var ran atomic.Int64
	gate := make(chan struct{})
	started := make(chan struct{})
	p.TrySubmit(func() { close(started); <-gate; ran.Add(1) })
	<-started
	for i := 0; i < 4; i++ {
		if err := p.TrySubmit(func() { ran.Add(1) }); err != nil {
			t.Fatalf("queued submit: %v", err)
		}
	}
	done := make(chan error, 1)
	go func() { done <- p.Shutdown(context.Background()) }()
	// Admission stops immediately, even while the drain is in flight.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if err := p.TrySubmit(func() {}); errors.Is(err, ErrPoolClosed) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("TrySubmit still accepted after Shutdown began")
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	if err := <-done; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if ran.Load() != 5 {
		t.Fatalf("drained %d tasks, want all 5 admitted before shutdown", ran.Load())
	}
}

func TestPoolShutdownDeadline(t *testing.T) {
	p := NewPool(1, 0)
	block := make(chan struct{})
	started := make(chan struct{})
	p.TrySubmit(func() { close(started); <-block })
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := p.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want DeadlineExceeded while a task is stuck", err)
	}
	close(block)
	if err := p.Shutdown(context.Background()); err != nil {
		t.Fatalf("second Shutdown: %v", err)
	}
}

func TestPoolContainsPanics(t *testing.T) {
	p := NewPool(1, 4)
	var wg sync.WaitGroup
	wg.Add(1)
	p.TrySubmit(func() { defer wg.Done(); panic("boom") })
	wg.Wait()
	// The worker must survive to run the next task.
	ok := make(chan struct{})
	if err := p.TrySubmit(func() { close(ok) }); err != nil {
		t.Fatalf("submit after panic: %v", err)
	}
	<-ok
	if err := p.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if s := p.Stats(); s.Panics != 1 {
		t.Fatalf("panics = %d, want 1", s.Panics)
	}
}

func TestPoolStatsOccupancy(t *testing.T) {
	cases := []struct {
		workers, running int
		want             float64
	}{
		{4, 0, 0},
		{4, 2, 0.5},
		{4, 4, 1},
		{0, 3, 0}, // degenerate stats never divide by zero
	}
	for _, tc := range cases {
		ps := PoolStats{Workers: tc.workers, Running: tc.running}
		if got := ps.Occupancy(); got != tc.want {
			t.Errorf("Occupancy(workers=%d running=%d) = %g, want %g", tc.workers, tc.running, got, tc.want)
		}
	}
}
