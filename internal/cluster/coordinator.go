package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"time"

	"ctrpred/internal/experiments"
	"ctrpred/internal/runpool"
	"ctrpred/internal/server"
	"ctrpred/internal/stats"
)

// Config sizes a Coordinator. The zero value plus a worker list is
// usable; every knob has a sane default.
type Config struct {
	// Workers are the initial worker base URLs ("http://host:port").
	// More can join at runtime via POST /v1/cluster/join.
	Workers []string
	// Fanout caps in-flight cells per experiment (0: 2 per worker).
	Fanout int
	// Jobs caps concurrently running coordinator jobs (0: 2 per worker,
	// at least 4 — coordinator jobs mostly wait on the network).
	Jobs int
	// Backlog caps queued jobs behind the running ones (0: 2×Jobs;
	// < 0: none). A full backlog rejects with 429 + Retry-After.
	Backlog int
	// CacheEntries bounds the coordinator's own result cache (0: 256;
	// < 0: disabled).
	CacheEntries int
	// FailThreshold is consecutive failures before mark-down (0: 2).
	FailThreshold int
	// ProbeInterval paces the health prober (0: 1 s; < 0: disabled —
	// dispatch failures still mark workers down, and a down worker
	// revives only through its breaker's half-open trial dispatch once
	// BreakerCooldown has passed).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one health probe (0: 2 s).
	ProbeTimeout time.Duration
	// RetryBudget is the redispatch (failover) budget per cell beyond
	// the first attempt (0: 3; < 0: none).
	RetryBudget int
	// SaturationRetries is how many 429s a cell absorbs on one node
	// before failing over (0: 8; < 0: none).
	SaturationRetries int
	// MaxRetryWait caps one saturation backoff sleep (0: 2 s).
	MaxRetryWait time.Duration
	// DrainTimeout is how long Shutdown lets running jobs finish (0: 5 s).
	DrainTimeout time.Duration
	// CellTimeout bounds one cell dispatch attempt (0: 60 s). A cell
	// still unanswered at the deadline counts as a failed dispatch and
	// fails over.
	CellTimeout time.Duration
	// HedgeAfter is the hedging trigger: how long a cell dispatch may
	// run before a speculative duplicate goes to the next ring
	// candidate, first canonical response winning. 0 adapts the trigger
	// to 2× the observed p90 cell latency (off until enough samples
	// exist); > 0 fixes it; < 0 disables hedging.
	HedgeAfter time.Duration
	// StreamIdleTimeout bounds the silence between events on a relayed
	// worker stream (0: 15 s; < 0: unbounded). Workers heartbeat every
	// few hundred milliseconds, so a silent stream is a wedged worker;
	// on expiry the relay fails over.
	StreamIdleTimeout time.Duration
	// BreakerCooldown is the per-worker circuit breaker's open window:
	// how long a marked-down worker waits before a half-open trial
	// dispatch may probe it (0: 5 s).
	BreakerCooldown time.Duration
	// Journal, when set, records every completed sweep cell durably and
	// is consulted before dispatching one — a restarted coordinator
	// resumes a grid re-running zero finished cells.
	Journal *Journal
	// DisableLocalFallback turns off degraded mode. By default a
	// coordinator whose every dispatch candidate is exhausted runs the
	// job locally, in-process, behind a warning metric — an answer late
	// beats an error during a full outage. Disabled, the job fails with
	// ErrDispatchExhausted.
	DisableLocalFallback bool
}

// lookupTimeout bounds one peer GET /v1/results/{key} probe, so a
// stalled worker cannot wedge a cache-recovery sweep.
const lookupTimeout = 2 * time.Second

// withDefaults fills the cluster knobs; Backlog, CacheEntries and
// DrainTimeout take the front's defaults, which are the same.
func (cfg Config) withDefaults() Config {
	if cfg.Jobs <= 0 {
		cfg.Jobs = max(4, 2*len(cfg.Workers))
	}
	if cfg.DrainTimeout < 0 {
		cfg.DrainTimeout = 0
	}
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = time.Second
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = 2 * time.Second
	}
	if cfg.RetryBudget == 0 {
		cfg.RetryBudget = 3
	}
	if cfg.RetryBudget < 0 {
		cfg.RetryBudget = 0
	}
	if cfg.SaturationRetries == 0 {
		cfg.SaturationRetries = 8
	}
	if cfg.SaturationRetries < 0 {
		cfg.SaturationRetries = 0
	}
	if cfg.MaxRetryWait <= 0 {
		cfg.MaxRetryWait = 2 * time.Second
	}
	if cfg.CellTimeout <= 0 {
		cfg.CellTimeout = 60 * time.Second
	}
	if cfg.StreamIdleTimeout == 0 {
		cfg.StreamIdleTimeout = 15 * time.Second
	}
	if cfg.StreamIdleTimeout < 0 {
		cfg.StreamIdleTimeout = 0
	}
	return cfg
}

// Coordinator fronts a cluster of ctrpredd workers with the same HTTP
// front a single node serves (internal/server), as that front's
// executor. It routes each job to the worker owning its content address
// on the ring, splits partitionable experiment grids into per-benchmark
// cells dispatched with bounded fan-out, reassembles the parts
// byte-identically, retries saturated workers with jittered backoff,
// and requeues work when a worker dies mid-job. Create with New, mount
// as an http.Handler, stop with Shutdown.
type Coordinator struct {
	front  *server.Server
	cfg    Config
	reg    *Registry
	client *Client
	// local runs jobs in-process in degraded mode.
	local server.Local

	mu        sync.Mutex
	rngState  uint64 // xorshift state for backoff jitter
	probeStop chan struct{}
	probeDone chan struct{}
	stopProbe sync.Once

	joins      atomic.Uint64
	simsRelay  atomic.Uint64
	expsSplit  atomic.Uint64
	expsFwd    atomic.Uint64
	cellsOK    atomic.Uint64
	cellsCache atomic.Uint64 // cells answered from a worker's cache
	satRetries atomic.Uint64 // 429 backoff retries
	failovers  atomic.Uint64 // redispatches to another worker
	peerHits   atomic.Uint64 // results recovered via GET /v1/results

	hedges        atomic.Uint64 // speculative duplicate dispatches issued
	hedgeWins     atomic.Uint64 // races the hedge won
	corruptBodies atomic.Uint64 // responses discarded on digest mismatch
	journalHits   atomic.Uint64 // cells answered from the sweep journal
	journalApp    atomic.Uint64 // cells appended to the sweep journal
	localRuns     atomic.Uint64 // degraded-mode in-process executions

	// cellLat tracks successful cell dispatch latencies for the
	// adaptive hedge trigger.
	cellLat latencyTracker
}

// New assembles a Coordinator over cfg.Workers and starts its health
// prober (unless probing is disabled).
func New(cfg Config) *Coordinator {
	cfg = cfg.withDefaults()
	client := NewClient()
	client.StreamIdle = cfg.StreamIdleTimeout
	c := &Coordinator{
		cfg:      cfg,
		reg:      NewRegistry(cfg.FailThreshold, cfg.BreakerCooldown),
		client:   client,
		rngState: 0x9e3779b97f4a7c15,
	}
	for _, w := range cfg.Workers {
		c.reg.Add(w)
	}
	c.front = server.NewFront("coordinator", server.Config{
		Workers: cfg.Jobs, Backlog: cfg.Backlog,
		CacheEntries: cfg.CacheEntries, DrainTimeout: cfg.DrainTimeout,
	}, c)
	c.front.Handle("POST /v1/cluster/join", "join", c.handleJoin)
	c.front.Handle("GET /v1/cluster", "cluster", c.handleTopology)
	if cfg.ProbeInterval > 0 {
		c.probeStop = make(chan struct{})
		c.probeDone = make(chan struct{})
		go c.probeLoop()
	}
	return c
}

func (c *Coordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) { c.front.ServeHTTP(w, r) }

// Snapshot exports the coordinator's metrics tree (the /metrics
// payload): the front's admission, pool, cache and endpoint nodes plus
// the cluster's own counters (see Metrics).
func (c *Coordinator) Snapshot() *stats.Snapshot { return c.front.Snapshot() }

// Registry exposes the worker registry (topology inspection and tests).
func (c *Coordinator) Registry() *Registry { return c.reg }

// Shutdown stops the prober, then drains the front: admission stops,
// running jobs finish within the drain window, then they are cancelled.
// Safe to call repeatedly.
func (c *Coordinator) Shutdown(ctx context.Context) error {
	c.stopProbe.Do(func() {
		if c.probeStop != nil {
			close(c.probeStop)
			<-c.probeDone
		}
	})
	return c.front.Shutdown(ctx)
}

// probeLoop sweeps every registered worker's /healthz at the configured
// interval, reviving down workers that answer and marking down workers
// that stop answering.
func (c *Coordinator) probeLoop() {
	defer close(c.probeDone)
	t := time.NewTicker(c.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-c.probeStop:
			return
		case <-t.C:
		}
		for _, node := range c.reg.All() {
			ctx, cancel := context.WithTimeout(context.Background(), c.cfg.ProbeTimeout)
			err := c.client.Healthz(ctx, node)
			cancel()
			if err != nil {
				c.reg.ReportFailure(node, err, false)
			} else {
				c.reg.ReportSuccess(node)
			}
		}
	}
}

// --- the executor: Sim, Experiment, Lookup, Health and Metrics are what
// the front calls ---

// Sim relays a simulation to the worker owning its content address.
func (c *Coordinator) Sim(ctx context.Context, job *server.SimJob, progress func(server.Event)) (server.Result, error) {
	c.simsRelay.Add(1)
	return c.forward(ctx, "/v1/sim", job.Request, job.Key, job.Request.NoCache, job.Stream, progress,
		func(ctx context.Context) (server.Result, error) { return c.local.Sim(ctx, job, progress) })
}

// Experiment splits a partitionable grid into per-benchmark cells.
// Every other experiment, the averaged studies included, runs whole on
// the key's home worker, exactly as a single node would run it.
func (c *Coordinator) Experiment(ctx context.Context, job *server.ExperimentJob, progress func(server.Event)) (server.Result, error) {
	if experiments.Partitionable(job.Request.ID) && len(job.Options.Benchmarks) > 1 {
		c.expsSplit.Add(1)
		return c.execPartitioned(ctx, job, progress)
	}
	c.expsFwd.Add(1)
	return c.forward(ctx, "/v1/experiments", job.Request, job.Key, job.Request.NoCache, job.Stream, progress,
		func(ctx context.Context) (server.Result, error) { return c.local.Experiment(ctx, job, progress) })
}

// Lookup asks the cluster for an already-computed result, home worker
// first, then the rest of the ring sequence. Each probe is individually
// deadlined so one stalled worker cannot wedge the sweep.
func (c *Coordinator) Lookup(ctx context.Context, key string) ([]byte, bool) {
	for _, node := range c.reg.Candidates(key) {
		lctx, cancel := context.WithTimeout(ctx, lookupTimeout)
		b, ok, err := c.client.LookupResult(lctx, node, key)
		cancel()
		if err == nil && ok {
			c.peerHits.Add(1)
			return b, true
		}
	}
	return nil, false
}

// Health reports the worker count and how many are up.
func (c *Coordinator) Health(runpool.PoolStats) (map[string]any, bool) {
	return map[string]any{"workers": len(c.reg.All()), "workers_up": len(c.reg.Up())}, c.degraded()
}

// degraded reports whether workers are registered but none is up — the
// state in which dispatches end in local fallback (or typed errors).
func (c *Coordinator) degraded() bool {
	return len(c.reg.All()) > 0 && len(c.reg.Up()) == 0
}

// Metrics adds the cluster's counters: routing and degraded mode at the
// root, cell dispatch outcomes under "cells", one child per worker.
func (c *Coordinator) Metrics(n *stats.Snapshot) {
	n.Counter("joins", c.joins.Load())
	n.Counter("sims_relayed", c.simsRelay.Load())
	n.Counter("experiments_split", c.expsSplit.Load())
	n.Counter("experiments_forwarded", c.expsFwd.Load())
	n.Counter("degraded", boolCount(c.degraded()))
	n.Counter("local_runs", c.localRuns.Load())

	cn := n.Child("cells")
	cn.Counter("completed", c.cellsOK.Load())
	cn.Counter("worker_cache_hits", c.cellsCache.Load())
	cn.Counter("saturation_retries", c.satRetries.Load())
	cn.Counter("failovers", c.failovers.Load())
	cn.Counter("peer_hits", c.peerHits.Load())
	cn.Counter("hedges", c.hedges.Load())
	cn.Counter("hedge_wins", c.hedgeWins.Load())
	cn.Counter("corrupt_bodies", c.corruptBodies.Load())
	cn.Counter("journal_hits", c.journalHits.Load())
	cn.Counter("journal_appends", c.journalApp.Load())

	wn := n.Child("workers")
	for _, w := range c.reg.Workers() {
		one := wn.Child(w.URL)
		one.Counter("dispatched", w.Dispatched)
		one.Counter("failures", w.Failures)
		one.Counter("mark_downs", w.MarkDowns)
		one.Counter("down", boolCount(w.Down))
	}
}

func boolCount(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// --- dispatch ---

// forward relays one whole job (a sim, or a non-partitionable
// experiment) to its home worker. A plain client gets the worker's
// plain body — the canonical bytes a single node would have written. A
// streaming client gets the worker's progress events relayed; it may
// see them restart after a failover, but every simulation is
// deterministic, so the result is the same bytes from any node.
func (c *Coordinator) forward(ctx context.Context, path string, req any, key string, noCache, stream bool, progress func(server.Event), local func(context.Context) (server.Result, error)) (server.Result, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return server.Result{}, err
	}
	return c.place(ctx, key, noCache, func(ctx context.Context, node, _ string) (server.Result, string, error) {
		c.reg.NoteDispatch(node)
		if stream {
			res, err := c.relayStream(ctx, node, path, body, progress)
			return res, node, err
		}
		out, _, err := c.client.PostJSON(ctx, node, path, body)
		return server.Result{Body: out}, node, err
	}, local)
}

// relayStream runs one streamed dispatch on node, relaying the worker's
// progress but not its "accepted" line (the front sent its own). The
// stream embeds the snapshot compacted; re-indenting it restores the
// canonical body, so the front caches exactly what a single node would
// have.
func (c *Coordinator) relayStream(ctx context.Context, node, path string, body []byte, progress func(server.Event)) (server.Result, error) {
	var final *server.Event
	err := c.client.PostStream(ctx, node, path, body, func(ev server.Event) {
		switch ev.Event {
		case "accepted":
		case "result", "error":
			final = &ev
		default:
			progress(ev)
		}
	})
	switch {
	case final == nil && err == nil:
		return server.Result{}, fmt.Errorf("worker %s closed the stream without a terminal event", node)
	case final == nil:
		return server.Result{}, err
	case final.Event == "error":
		return server.Result{}, eventError(*final)
	}
	canon, err := stats.Canonical(final.Snapshot)
	return server.Result{Body: canon, Cached: final.Cached}, err
}

// execPartitioned splits a partitionable experiment into one cell per
// benchmark, dispatches the cells across the cluster with bounded
// fan-out (each cell routed to the worker owning its own content
// address, so a repeated grid hits warm caches), and reassembles the
// parts with experiments.MergeParts — byte-identical to the single-node
// run of the full grid.
func (c *Coordinator) execPartitioned(ctx context.Context, job *server.ExperimentJob, progress func(server.Event)) (server.Result, error) {
	jobs := make([]runpool.Job[experiments.Result], 0, len(job.Options.Benchmarks))
	for _, bench := range job.Options.Benchmarks {
		cell, err := cellJob(job, bench)
		if err != nil {
			return server.Result{}, err
		}
		jobs = append(jobs, runpool.Job[experiments.Result]{
			Label: fmt.Sprintf("cell %s/%s", job.Request.ID, bench),
			Fn: func(ctx context.Context) (experiments.Result, error) {
				body, err := c.runCell(ctx, cell)
				if err != nil {
					return experiments.Result{}, fmt.Errorf("cell %s: %w", bench, err)
				}
				return experiments.DecodeResultSnapshot(body)
			},
		})
	}

	fanout := c.cfg.Fanout
	if fanout <= 0 {
		fanout = max(2, 2*len(c.reg.All()))
	}
	parts, err := runpool.RunContext(ctx, runpool.Options{
		Workers:  fanout,
		Progress: func(u runpool.Update) { progress(server.UpdateEvent(u)) },
	}, jobs)
	if err != nil {
		return server.Result{}, err
	}
	merged, err := experiments.MergeParts(job.Request.ID, parts)
	if err != nil {
		return server.Result{}, err
	}
	body, err := merged.Snapshot().JSON()
	return server.Result{Body: body}, err
}

// cellJob narrows a grid job to one benchmark's cell, with the cell's
// own content address.
func cellJob(job *server.ExperimentJob, bench string) (*server.ExperimentJob, error) {
	cell := *job
	cell.Request.Benchmarks = []string{bench}
	cell.Options.Benchmarks = []string{bench}
	key, err := cell.Request.CacheKey()
	cell.Key = key
	return &cell, err
}

// ErrDispatchExhausted is the typed failure of a job whose bounded
// redispatch budget ran out without an answer (and, with the local
// fallback disabled, whose degraded mode was off). Callers can
// errors.Is against it to tell "the cluster cannot serve this" from
// "the job itself is bad".
var ErrDispatchExhausted = errors.New("dispatch budget exhausted")

// runCell runs one cell to completion and returns its snapshot body:
// sweep journal first (a resumed grid re-runs zero finished cells),
// then the cluster, journaling whatever the dispatch produced. Each
// dispatch runs under a per-attempt deadline with a speculative hedge
// to the next ring candidate when it runs long (see hedgedPost).
func (c *Coordinator) runCell(ctx context.Context, cell *server.ExperimentJob) ([]byte, error) {
	if j := c.cfg.Journal; j != nil {
		if b, ok := j.Get(cell.Key); ok {
			c.journalHits.Add(1)
			return b, nil
		}
	}
	body, err := json.Marshal(cell.Request)
	if err != nil {
		return nil, err
	}
	res, err := c.place(ctx, cell.Key, cell.Request.NoCache, func(ctx context.Context, node, backup string) (server.Result, string, error) {
		res := c.hedgedPost(ctx, node, backup, "/v1/experiments", body)
		if res.err == nil {
			c.cellsOK.Add(1)
			if res.hdr.Get("X-Cache") == "hit" {
				c.cellsCache.Add(1)
			}
		}
		return server.Result{Body: res.out}, res.node, res.err
	}, func(ctx context.Context) (server.Result, error) {
		return c.local.Experiment(ctx, cell, func(server.Event) {})
	})
	if err != nil {
		return nil, err
	}
	if j := c.cfg.Journal; j != nil {
		if jerr := j.Put(cell.Key, res.Body); jerr == nil {
			c.journalApp.Add(1)
		}
		// A failed append is not a failed cell: the result is in hand,
		// only resumability degrades.
	}
	return res.Body, nil
}

// attemptFunc dispatches work once to node (backup: the hedge target,
// "" for none) and reports the node that answered.
type attemptFunc func(ctx context.Context, node, backup string) (server.Result, string, error)

// place runs one unit of work — a whole job or one cell — somewhere on
// the cluster: the one failover loop. The work goes to the worker owning
// key on the ring, and the same policy holds for plain, streamed and
// cell dispatches:
//
//   - a 429 waits out the worker's Retry-After (with jitter, at most
//     SaturationRetries times) on the same node;
//   - a 502, a 503, a transport error, a digest mismatch or a stalled
//     stream counts against the worker and fails over to the next ring
//     candidate, after probing the cluster's caches (the dying worker
//     may have finished, and a peer may hold the bytes);
//   - any other 4xx, and a worker's 500 or 504 job failure, is the
//     answer: a deterministic job fails the same way on every node.
//
// The job's own context ending a dispatch — the client gone, the
// deadline passed, the coordinator shutting down — is not the worker's
// failure and is returned as is. When the budget runs out with every
// worker down, degraded mode runs the work in-process via local.
func (c *Coordinator) place(ctx context.Context, key string, noCache bool, attempt attemptFunc, local func(context.Context) (server.Result, error)) (server.Result, error) {
	redispatch, satRetries := 0, 0
	for {
		if err := ctx.Err(); err != nil {
			return server.Result{}, err
		}
		cands := c.reg.Candidates(key)
		if len(cands) == 0 {
			return c.fallback(ctx, local, errors.New("no workers registered"))
		}
		node := cands[redispatch%len(cands)]
		backup := ""
		if len(cands) > 1 {
			backup = cands[(redispatch+1)%len(cands)]
		}
		if redispatch > 0 && !noCache {
			if b, ok := c.Lookup(ctx, key); ok {
				return server.Result{Body: b, Cached: true}, nil
			}
		}
		res, served, err := attempt(ctx, node, backup)
		if err == nil {
			c.reg.ReportSuccess(served)
			return res, nil
		}
		if ctx.Err() != nil {
			return server.Result{}, ctx.Err()
		}
		var se *StatusError
		var answer *server.JobError
		errors.As(err, &se)
		switch {
		case se != nil && se.Saturated() && satRetries < c.cfg.SaturationRetries:
			satRetries++
			c.satRetries.Add(1)
			if !c.sleep(ctx, c.backoff(se.RetryAfter, satRetries)) {
				return server.Result{}, ctx.Err()
			}
			continue
		case se != nil && !se.Saturated() && se.Status != http.StatusBadGateway && se.Status != http.StatusServiceUnavailable:
			c.reg.ReportSuccess(served)
			return server.Result{}, workerError(se)
		case errors.As(err, &answer):
			c.reg.ReportSuccess(served)
			return server.Result{}, err
		}
		if isIntegrityError(err) {
			c.corruptBodies.Add(1)
		}
		c.reg.ReportFailure(served, err, transportFailure(err))
		c.failovers.Add(1)
		redispatch++
		if redispatch > c.cfg.RetryBudget {
			cause := fmt.Errorf("%w: failed after %d dispatches: %v", ErrDispatchExhausted, redispatch, err)
			if len(c.reg.Up()) == 0 {
				// Every worker is down and the budget is spent: degraded mode
				// answers locally rather than failing a deterministic job the
				// coordinator can compute itself.
				return c.fallback(ctx, local, cause)
			}
			return server.Result{}, unavailable(cause)
		}
	}
}

// fallback resolves work that ran out of cluster: degraded-mode local
// execution when allowed, the typed exhaustion error otherwise.
func (c *Coordinator) fallback(ctx context.Context, local func(context.Context) (server.Result, error), cause error) (server.Result, error) {
	if c.cfg.DisableLocalFallback {
		if !errors.Is(cause, ErrDispatchExhausted) {
			cause = fmt.Errorf("%w: %v", ErrDispatchExhausted, cause)
		}
		return server.Result{}, unavailable(cause)
	}
	c.localRuns.Add(1)
	res, err := local(ctx)
	if err != nil {
		return server.Result{}, fmt.Errorf("degraded local run: %w", err)
	}
	return res, nil
}

// unavailable marks an error as the cluster failing to place the job.
func unavailable(err error) error { return &server.JobError{Code: "unavailable", Err: err} }

// eventError turns a worker's terminal error event back into the job's
// error, code and partial snapshot intact.
func eventError(ev server.Event) error {
	return &server.JobError{Code: ev.Code, Err: errors.New(ev.Error), Snapshot: ev.Snapshot}
}

// workerError is a worker's plain error answer as the job's error: the
// worker wrote its terminal event as the body, so the code survives;
// a body that is no event is an upstream failure.
func workerError(se *StatusError) error {
	var ev server.Event
	if json.Unmarshal(se.Raw, &ev) == nil && ev.Event == "error" {
		return eventError(ev)
	}
	return &server.JobError{Code: "upstream", Err: se}
}

// isIntegrityError reports whether err is a digest-mismatch discard.
func isIntegrityError(err error) bool {
	var ie *IntegrityError
	return errors.As(err, &ie)
}

// transportFailure reports whether err looks like the worker process is
// gone (connection-level failure) rather than an HTTP-level complaint —
// gone workers are marked down immediately instead of waiting out the
// probe threshold. A digest mismatch is neither: the worker answered,
// the bytes were wrong, so it counts toward the threshold like any
// HTTP-level failure instead of costing the node its traffic at once.
func transportFailure(err error) bool {
	var se *StatusError
	if errors.As(err, &se) {
		return false
	}
	return !isIntegrityError(err)
}

// backoff is the saturation wait: the worker's Retry-After hint when it
// sent one (else a doubling ramp from 50 ms), capped by MaxRetryWait,
// plus up to 25% jitter so colliding cells do not re-arrive in
// lockstep.
func (c *Coordinator) backoff(hint time.Duration, attempt int) time.Duration {
	wait := hint
	if wait <= 0 {
		// Clamp the exponent: the ramp is capped by MaxRetryWait anyway,
		// and an unchecked shift overflows time.Duration into zero-length
		// waits (a hot spin) once attempt grows past ~40 — a coordinator
		// set to wait out saturation runs with SaturationRetries in the
		// thousands.
		shift := attempt - 1
		if shift > 6 {
			shift = 6
		}
		wait = 50 * time.Millisecond << shift
	}
	if wait > c.cfg.MaxRetryWait {
		wait = c.cfg.MaxRetryWait
	}
	return wait + time.Duration(c.randFloat()*0.25*float64(wait))
}

// randFloat is a locked xorshift64 in [0,1) — jitter needs no
// cryptographic or reproducible source, just decorrelation.
func (c *Coordinator) randFloat() float64 {
	c.mu.Lock()
	x := c.rngState
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	c.rngState = x
	c.mu.Unlock()
	return float64(x>>11) / float64(1<<53)
}

// sleep waits d or until ctx is done, reporting whether the wait
// completed.
func (c *Coordinator) sleep(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// --- cluster routes ---

// handleJoin serves POST /v1/cluster/join: a worker announcing itself.
func (c *Coordinator) handleJoin(w http.ResponseWriter, r *http.Request) {
	var req struct {
		URL string `json:"url"`
	}
	if !server.DecodeJSON(w, r, &req) {
		return
	}
	u, err := url.Parse(req.URL)
	if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		server.WriteJSON(w, http.StatusBadRequest, map[string]string{
			"error": fmt.Sprintf("join: want an http(s) base URL, got %q", req.URL),
		})
		return
	}
	c.joins.Add(1)
	added := c.reg.Add(req.URL)
	server.WriteJSON(w, http.StatusOK, map[string]any{
		"added":   added,
		"workers": c.reg.Workers(),
	})
}

// handleTopology serves GET /v1/cluster: the ring membership and each
// worker's state.
func (c *Coordinator) handleTopology(w http.ResponseWriter, r *http.Request) {
	server.WriteJSON(w, http.StatusOK, map[string]any{
		"workers": c.reg.Workers(),
	})
}
