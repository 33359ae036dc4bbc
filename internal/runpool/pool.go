package runpool

import (
	"context"
	"errors"
	"sync"
)

// Sentinel errors for Pool submission outcomes.
var (
	// ErrPoolSaturated reports that the pool's backlog is full; the
	// caller should shed load (an HTTP front end maps this to 429).
	ErrPoolSaturated = errors.New("runpool: pool saturated")
	// ErrPoolClosed reports a submission after Shutdown began.
	ErrPoolClosed = errors.New("runpool: pool closed")
)

// PoolStats is a point-in-time view of a Pool's activity.
type PoolStats struct {
	// Workers and Backlog echo the pool's construction parameters.
	Workers, Backlog int
	// Submitted counts accepted tasks; Rejected counts TrySubmit calls
	// refused for saturation or closure.
	Submitted, Rejected uint64
	// Completed counts finished tasks (panicking tasks included).
	Completed uint64
	// Panics counts tasks that panicked (contained; the worker survives).
	Panics uint64
	// Pending is the number of tasks queued but not yet started.
	Pending int
	// Running is the number of tasks executing right now.
	Running int
}

// Occupancy is the fraction of execution slots in use (Running/Workers),
// the primary load-balancing gauge: 0 is idle, 1 means every worker is
// busy and new arrivals will queue.
func (s PoolStats) Occupancy() float64 {
	if s.Workers <= 0 {
		return 0
	}
	return float64(s.Running) / float64(s.Workers)
}

// Pool is the long-lived sibling of RunContext: a bounded set of workers
// draining a bounded backlog of dynamically submitted tasks. Where
// RunContext serves batch sweeps whose job list is known up front, Pool
// serves open-ended arrivals — a job server accepting requests over the
// network — with the same discipline: bounded concurrency, panic
// containment, and a graceful drain.
//
// Admission is non-blocking by design: TrySubmit either enqueues or
// fails with ErrPoolSaturated, so callers own their load-shedding
// instead of stacking blocked goroutines.
type Pool struct {
	// queue is buffered to workers+backlog: admission is decided by the
	// inflight counter, never by a send racing a worker's receive, so a
	// zero-backlog pool admits its first task even before the worker
	// goroutines have been scheduled.
	queue chan func()

	mu       sync.Mutex
	closed   bool
	inflight int // admitted and not yet finished
	stats    PoolStats
	workerWG sync.WaitGroup
	taskWG   sync.WaitGroup
}

// NewPool starts a pool with the given worker count (<= 0 means
// DefaultWorkers) and backlog capacity (queued tasks beyond the ones
// executing; < 0 means 0 — only as many tasks as workers are admitted).
func NewPool(workers, backlog int) *Pool {
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if backlog < 0 {
		backlog = 0
	}
	p := &Pool{queue: make(chan func(), workers+backlog)}
	p.stats.Workers = workers
	p.stats.Backlog = backlog
	p.workerWG.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

func (p *Pool) worker() {
	defer p.workerWG.Done()
	for fn := range p.queue {
		p.run(fn)
	}
}

func (p *Pool) run(fn func()) {
	p.mu.Lock()
	p.stats.Running++
	p.mu.Unlock()
	defer func() {
		// A panicking task is counted and contained: the worker survives.
		panicked := recover() != nil
		p.mu.Lock()
		p.inflight--
		p.stats.Running--
		p.stats.Completed++
		if panicked {
			p.stats.Panics++
		}
		p.mu.Unlock()
		p.taskWG.Done()
	}()
	fn()
}

// TrySubmit enqueues fn for execution, never blocking: it returns
// ErrPoolSaturated when the backlog is full and ErrPoolClosed after
// Shutdown began. fn is responsible for its own cancellation (a task
// built around a context should check it first thing, so tasks that
// waited in the backlog past their deadline fail fast).
func (p *Pool) TrySubmit(fn func()) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		p.stats.Rejected++
		return ErrPoolClosed
	}
	if p.inflight >= p.stats.Workers+p.stats.Backlog {
		p.stats.Rejected++
		return ErrPoolSaturated
	}
	p.inflight++
	p.stats.Submitted++
	p.taskWG.Add(1)
	// Guaranteed room: the buffer matches the admission capacity.
	p.queue <- fn
	return nil
}

// Stats returns a point-in-time copy of the pool's counters. Pending is
// derived from the queue depth at call time.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := p.stats
	s.Pending = len(p.queue)
	return s
}

// Shutdown stops admission immediately (subsequent TrySubmit calls fail
// with ErrPoolClosed) and waits for every already-admitted task —
// running and backlogged — to finish, or for ctx to expire. It does not
// cancel tasks itself: callers that want a hard stop cancel the contexts
// their tasks run under and then let Shutdown observe the drain.
// Shutdown is idempotent; concurrent calls all wait.
func (p *Pool) Shutdown(ctx context.Context) error {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		close(p.queue)
	}
	p.mu.Unlock()

	done := make(chan struct{})
	go func() {
		p.taskWG.Wait()
		p.workerWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
