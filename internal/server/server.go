// Package server is ctrpredd's HTTP front: the job service through which
// the simulator is exposed, on a single node and in front of a cluster
// alike.
//
// The front owns everything a client sees: routing, request decoding and
// validation, content keys, the result cache, pool admission, drain on
// shutdown, the NDJSON and plain response shapes, the listings,
// /healthz and /metrics. Once it has admitted a job it hands the job to
// an Executor. There are two: Local runs jobs on this node's simulator
// (New), and the cluster coordinator in internal/cluster spreads them
// over worker nodes (NewFront).
//
// Requests land on a bounded runpool-backed queue (backpressure is a
// 429 with Retry-After, never an unbounded goroutine pile), run under
// per-job context deadlines that cancel at the simulator's existing
// instruction checkpoints, and can stream progress as NDJSON — one JSON
// object per line: queue admission, checkpoint heartbeats, one
// runpool.Update per finished simulation, then the final
// stats.Snapshot. Completed results are stored in a content-addressed
// cache (canonical-config hash → snapshot JSON), so a repeated request
// is served without re-simulating; because a run is fully determined by
// its configuration, a cached body is byte-identical to a fresh one.
//
//	POST /v1/sim            run one simulation (stream with ?stream=1
//	                        or Accept: application/x-ndjson)
//	POST /v1/experiments    regenerate a figure/table over a grid
//	GET  /v1/benchmarks     list workload kernels
//	GET  /v1/experiments    list experiment ids
//	GET  /v1/results/{key}  fetch a cached result by content address
//	GET  /healthz           liveness/readiness (503 while draining)
//	GET  /metrics           server counters as a stats.Snapshot JSON
//	GET  /debug/pprof/...   runtime profiles (Config.EnablePprof)
//
// Shutdown is graceful: admission stops immediately, running jobs get
// Config.DrainTimeout to finish, then their contexts are cancelled and
// the simulator aborts within one Config.CheckInterval of instructions.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ctrpred/internal/cryptoengine"
	"ctrpred/internal/experiments"
	"ctrpred/internal/runpool"
	"ctrpred/internal/secmem"
	"ctrpred/internal/sim"
	"ctrpred/internal/stats"
	"ctrpred/internal/workload"
)

// Config sizes the service. The zero value is usable: one worker per
// CPU, a backlog twice that, a 256-entry result cache, no default job
// deadline, a 5 s drain window, pprof off.
type Config struct {
	// Workers caps concurrently running jobs (<= 0: one per CPU).
	Workers int
	// Backlog caps jobs queued behind the running ones (< 0: none;
	// 0: 2×Workers). A full backlog rejects with 429.
	Backlog int
	// CacheEntries bounds the result cache (0: 256; < 0: disabled).
	CacheEntries int
	// DefaultTimeout bounds jobs whose request carries no timeout
	// (0: unbounded).
	DefaultTimeout time.Duration
	// DrainTimeout is how long Shutdown lets running jobs finish before
	// cancelling their contexts (0: 5 s).
	DrainTimeout time.Duration
	// EnablePprof mounts net/http/pprof under /debug/pprof/.
	EnablePprof bool
}

const (
	defaultCacheEntries = 256
	defaultDrain        = 5 * time.Second
	// heartbeatEvery throttles checkpoint heartbeats on the stream.
	heartbeatEvery = 200 * time.Millisecond
)

// Executor runs a job once the front has admitted it. progress takes
// the job's non-terminal events (heartbeats, per-simulation updates)
// and never blocks. The returned Result or error becomes the job's
// terminal event, which the front caches, counts and shapes.
type Executor interface {
	Sim(ctx context.Context, job *SimJob, progress func(Event)) (Result, error)
	Experiment(ctx context.Context, job *ExperimentJob, progress func(Event)) (Result, error)
	// Lookup finds a result the front's cache does not hold, for
	// GET /v1/results/{key}.
	Lookup(ctx context.Context, key string) ([]byte, bool)
	// Health returns the executor's /healthz fields given the front's
	// pool, and whether it is degraded: still answering, but without the
	// backends it normally runs on.
	Health(ps runpool.PoolStats) (fields map[string]any, degraded bool)
	// Metrics adds the executor's counters to the front's /metrics tree.
	Metrics(n *stats.Snapshot)
}

// SimJob is an admitted POST /v1/sim: the request, the run it resolves
// to, and its content address.
type SimJob struct {
	Request SimRequest
	Bench   string
	Config  sim.Config
	Key     string
	// Stream is set when the client reads the job as NDJSON.
	Stream bool
}

// ExperimentJob is an admitted POST /v1/experiments: the request, the
// sweep options it resolves to, and its content address.
type ExperimentJob struct {
	Request ExperimentRequest
	Options experiments.Options
	Key     string
	// Stream is set when the client reads the job as NDJSON.
	Stream bool
}

// Result is a finished job's snapshot body.
type Result struct {
	Body []byte
	// Cached marks a body some cache already held; a streamed result
	// event says so.
	Cached bool
}

// Server is the HTTP front. Create with New (or NewFront), mount as an
// http.Handler, stop with Shutdown.
type Server struct {
	cfg   Config
	name  string
	exec  Executor
	pool  *runpool.Pool
	cache *ResultCache
	mux   *http.ServeMux
	start time.Time

	// endpoints counts requests per route pattern, exported under the
	// "endpoints" child of /metrics so a load balancer can see which
	// surfaces carry the traffic.
	endpoints endpointCounters

	// jobsCtx parents every job's context; hardStop cancels it when the
	// drain window expires, aborting in-flight simulations at their next
	// instruction checkpoint.
	jobsCtx  context.Context
	hardStop context.CancelFunc

	mu       sync.Mutex
	draining bool

	accepted  atomic.Uint64
	rejected  atomic.Uint64
	finished  atomic.Uint64
	failed    atomic.Uint64
	streamed  atomic.Uint64
	cacheSrvd atomic.Uint64

	// jobDurNS/jobsDone accumulate wall-clock job durations so a 429's
	// Retry-After can be derived from how long jobs actually take here
	// rather than a fixed guess.
	jobDurNS atomic.Int64
	jobsDone atomic.Uint64
}

// New assembles a single-node Server from cfg (see Config for zero-value
// defaults): the front over a Local executor.
func New(cfg Config) *Server { return NewFront("server", cfg, &Local{}) }

// NewFront assembles the front over exec; name roots the /metrics tree.
// The cluster coordinator builds its front this way.
func NewFront(name string, cfg Config, exec Executor) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = runpool.DefaultWorkers()
	}
	if cfg.Backlog == 0 {
		cfg.Backlog = 2 * cfg.Workers
	}
	if cfg.Backlog < 0 {
		cfg.Backlog = 0
	}
	if cfg.CacheEntries == 0 {
		cfg.CacheEntries = defaultCacheEntries
	}
	if cfg.DrainTimeout == 0 {
		cfg.DrainTimeout = defaultDrain
	}
	jobsCtx, hardStop := context.WithCancel(context.Background())
	s := &Server{
		cfg:      cfg,
		name:     name,
		exec:     exec,
		pool:     runpool.NewPool(cfg.Workers, cfg.Backlog),
		cache:    NewResultCache(cfg.CacheEntries),
		mux:      http.NewServeMux(),
		start:    time.Now(),
		jobsCtx:  jobsCtx,
		hardStop: hardStop,
	}
	s.Handle("POST /v1/sim", "sim", s.handleSim)
	s.Handle("POST /v1/experiments", "experiments", s.handleExperiment)
	s.Handle("GET /v1/benchmarks", "benchmarks", s.handleBenchmarks)
	s.Handle("GET /v1/experiments", "experiment_list", s.handleExperimentList)
	s.Handle("GET /v1/results/{key}", "results", s.handleResult)
	s.Handle("GET /healthz", "healthz", s.handleHealthz)
	s.Handle("GET /metrics", "metrics", s.handleMetrics)
	if cfg.EnablePprof {
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s
}

// Handle mounts a route, counting its requests under endpoint in
// /metrics. Executors mount their own routes beside the job API.
func (s *Server) Handle(pattern, endpoint string, h http.HandlerFunc) {
	s.mux.HandleFunc(pattern, s.endpoints.counted(endpoint, h))
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Shutdown stops admission, waits up to Config.DrainTimeout for running
// jobs to finish on their own, then cancels every job context — the
// simulator aborts within one CheckInterval — and waits for the drain to
// complete or ctx to expire. Safe to call more than once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()

	drainCtx, cancel := context.WithTimeout(ctx, s.cfg.DrainTimeout)
	defer cancel()
	if err := s.pool.Shutdown(drainCtx); err == nil {
		s.hardStop()
		return nil
	}
	// Grace expired: cut the jobs loose and wait for the checkpoints to
	// observe it.
	s.hardStop()
	return s.pool.Shutdown(ctx)
}

func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// UpdateWire is runpool.Update in wire form: the error flattened to a
// string so it survives JSON, the duration in milliseconds.
type UpdateWire struct {
	Index     int     `json:"index"`
	Label     string  `json:"label"`
	Error     string  `json:"error,omitempty"`
	ElapsedMS float64 `json:"elapsed_ms"`
	Done      int     `json:"done"`
	Total     int     `json:"total"`
}

// UpdateEvent frames one finished simulation of a job's grid as an
// "update" stream event.
func UpdateEvent(u runpool.Update) Event {
	w := &UpdateWire{
		Index: u.Index, Label: u.Label,
		ElapsedMS: float64(u.Elapsed) / float64(time.Millisecond),
		Done:      u.Done, Total: u.Total,
	}
	if u.Err != nil {
		w.Error = u.Err.Error()
	}
	return Event{Event: "update", Update: w}
}

// Event is one NDJSON stream line. Event is "accepted", "progress",
// "update", "result" or "error"; "result" and "error" are terminal.
type Event struct {
	Event string `json:"event"`
	// Key is the result's content address (accepted/result).
	Key string `json:"key,omitempty"`
	// Cached marks a result served from the cache without simulating.
	Cached bool `json:"cached,omitempty"`
	// Queue is the backlog depth observed at admission.
	Queue int `json:"queue,omitempty"`
	// Instructions is the committed-instruction count of a heartbeat.
	Instructions uint64 `json:"instructions,omitempty"`
	// Update is one finished simulation of the job's grid.
	Update *UpdateWire `json:"update,omitempty"`
	// Snapshot is the final metrics tree (also present, when available,
	// on a security-halt error so the partial run is not lost).
	Snapshot json.RawMessage `json:"snapshot,omitempty"`
	Error    string          `json:"error,omitempty"`
	// Code classifies an error; statusByCode gives its HTTP status.
	Code string `json:"code,omitempty"`
}

// statusByCode is the one map from an error code to the HTTP status a
// plain response carries, on a single node and a coordinator alike.
// Codes missing here (self_check, panic, internal) answer 500.
var statusByCode = map[string]int{
	"bad_request": http.StatusBadRequest,
	// A well-formed request naming an unknown engine model.
	"unknown_engine": http.StatusUnprocessableEntity,
	// Tampering detected under the halt policy: the simulation did its
	// job; the input memory was hostile.
	"security": http.StatusUnprocessableEntity,
	"timeout":  http.StatusGatewayTimeout,
	"canceled": http.StatusServiceUnavailable,
	// A cluster that could not place the job, and a worker that failed
	// it without saying how.
	"unavailable": http.StatusBadGateway,
	"upstream":    http.StatusBadGateway,
}

func statusFor(code string) int {
	if status, ok := statusByCode[code]; ok {
		return status
	}
	return http.StatusInternalServerError
}

// JobError is a job failure an executor has already classified — a
// worker's relayed error event, or a cluster that could not place the
// job — or one that carries a partial snapshot worth shipping.
type JobError struct {
	// Code is the error event's code; empty classifies Err.
	Code string
	Err  error
	// Snapshot rides the error event (a security halt's partial run).
	Snapshot json.RawMessage
}

func (e *JobError) Error() string { return e.Err.Error() }
func (e *JobError) Unwrap() error { return e.Err }

// classify maps an error to its code.
func classify(err error) string {
	var jerr *JobError
	var serr *secmem.SecurityError
	var perr *runpool.PanicError
	switch {
	case errors.As(err, &jerr) && jerr.Code != "":
		return jerr.Code
	case errors.Is(err, cryptoengine.ErrUnknownEngine):
		return "unknown_engine"
	case errors.As(err, &serr):
		if serr.Kind == secmem.KindSelfCheck {
			return "self_check"
		}
		return "security"
	case errors.As(err, &perr):
		return "panic"
	case errors.Is(err, context.DeadlineExceeded):
		return "timeout"
	case errors.Is(err, context.Canceled):
		return "canceled"
	default:
		return "internal"
	}
}

func errEvent(err error) Event {
	ev := Event{Event: "error", Error: err.Error(), Code: classify(err)}
	var jerr *JobError
	if errors.As(err, &jerr) {
		ev.Snapshot = jerr.Snapshot
	}
	return ev
}

// reject answers a request that failed validation: a bad request, or an
// unprocessable one when it names an unknown engine model.
func reject(w http.ResponseWriter, err error) {
	code := "bad_request"
	if classify(err) == "unknown_engine" {
		code = "unknown_engine"
	}
	httpError(w, statusFor(code), err)
}

// handleSim serves POST /v1/sim.
func (s *Server) handleSim(w http.ResponseWriter, r *http.Request) {
	var req SimRequest
	if !DecodeJSON(w, r, &req) {
		return
	}
	bench, cfg, err := req.Resolve()
	if err != nil {
		reject(w, err)
		return
	}
	timeout, err := parseTimeout(req.Timeout, s.cfg.DefaultTimeout)
	if err != nil {
		reject(w, err)
		return
	}
	key := sim.Fingerprint(bench, cfg)
	job := &SimJob{Request: req, Bench: bench, Config: cfg, Key: key, Stream: wantsStream(r)}
	s.dispatch(w, r, dispatchSpec{
		key: key, noCache: req.NoCache, stream: job.Stream, timeout: timeout,
		run: func(ctx context.Context, progress func(Event)) (Result, error) {
			return s.exec.Sim(ctx, job, progress)
		},
	})
}

// handleExperiment serves POST /v1/experiments.
func (s *Server) handleExperiment(w http.ResponseWriter, r *http.Request) {
	var req ExperimentRequest
	if !DecodeJSON(w, r, &req) {
		return
	}
	opt, err := req.Resolve()
	if err != nil {
		reject(w, err)
		return
	}
	// One experiment occupies one queue slot; its internal parallelism
	// defaults to a single worker so a grid cannot monopolize the host
	// unless the operator sized the server for it.
	opt.Workers = 1
	if req.Workers > 0 {
		opt.Workers = min(req.Workers, s.cfg.Workers)
	}
	timeout, err := parseTimeout(req.Timeout, s.cfg.DefaultTimeout)
	if err != nil {
		reject(w, err)
		return
	}
	key, err := req.CacheKey()
	if err != nil {
		reject(w, err)
		return
	}
	job := &ExperimentJob{Request: req, Options: opt, Key: key, Stream: wantsStream(r)}
	s.dispatch(w, r, dispatchSpec{
		key: key, noCache: req.NoCache, stream: job.Stream, timeout: timeout,
		run: func(ctx context.Context, progress func(Event)) (Result, error) {
			return s.exec.Experiment(ctx, job, progress)
		},
	})
}

type dispatchSpec struct {
	key     string
	noCache bool
	stream  bool
	timeout time.Duration
	run     func(ctx context.Context, progress func(Event)) (Result, error)
}

// dispatch implements the request lifecycle: cache probe, admission,
// execution, caching, and response shaping for both the streaming and
// the plain mode.
func (s *Server) dispatch(w http.ResponseWriter, r *http.Request, spec dispatchSpec) {
	if !spec.noCache {
		if body, ok := s.cache.Get(spec.key); ok {
			s.cacheSrvd.Add(1)
			if spec.stream {
				sw := newStreamWriter(w)
				sw.write(Event{Event: "accepted", Key: spec.key, Cached: true})
				sw.write(Event{Event: "result", Key: spec.key, Cached: true, Snapshot: body})
				return
			}
			writeSnapshot(w, "hit", spec.key, body)
			return
		}
	}

	if s.isDraining() {
		httpError(w, http.StatusServiceUnavailable, errors.New("server draining"))
		return
	}

	// The job's context: cancelled by client disconnect, by the request
	// deadline, or — after the drain window — by server shutdown.
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	unhook := context.AfterFunc(s.jobsCtx, cancel)
	defer unhook()
	if spec.timeout > 0 {
		var tcancel context.CancelFunc
		ctx, tcancel = context.WithTimeout(ctx, spec.timeout)
		defer tcancel()
	}

	// Sized to absorb a burst of progress events between the handler's
	// writes; progress beyond it is dropped, never blocking the job.
	events := make(chan Event, 128)
	progress := func(ev Event) {
		select {
		case events <- ev:
		default:
		}
	}
	job := func() {
		defer close(events)
		start := time.Now()
		defer func() {
			s.jobDurNS.Add(int64(time.Since(start)))
			s.jobsDone.Add(1)
		}()
		// The terminal event uses a blocking send: the handler always
		// drains to close.
		res, err := spec.run(ctx, progress)
		if err != nil {
			events <- errEvent(err)
			return
		}
		if !spec.noCache {
			s.cache.Put(spec.key, res.Body)
		}
		events <- Event{Event: "result", Key: spec.key, Cached: res.Cached, Snapshot: res.Body}
	}

	ps := s.pool.Stats()
	queueDepth := ps.Pending
	if err := s.pool.TrySubmit(job); err != nil {
		s.rejected.Add(1)
		switch {
		case errors.Is(err, runpool.ErrPoolSaturated):
			ra := retryAfterSeconds(ps, s.meanJobLatency())
			w.Header().Set("Retry-After", strconv.Itoa(ra))
			httpError(w, http.StatusTooManyRequests, errors.New("job queue full; retry later"))
		default:
			httpError(w, http.StatusServiceUnavailable, err)
		}
		return
	}
	s.accepted.Add(1)

	if spec.stream {
		s.streamed.Add(1)
		sw := newStreamWriter(w)
		sw.write(Event{Event: "accepted", Key: spec.key, Queue: queueDepth})
		for ev := range events {
			if ev.Event == "error" {
				s.failed.Add(1)
			} else if ev.Event == "result" {
				s.finished.Add(1)
			}
			sw.write(ev)
		}
		return
	}

	var final Event
	for ev := range events {
		if ev.Event == "result" || ev.Event == "error" {
			final = ev
		}
	}
	switch final.Event {
	case "result":
		s.finished.Add(1)
		writeSnapshot(w, "miss", spec.key, final.Snapshot)
	case "error":
		s.failed.Add(1)
		WriteJSON(w, statusFor(final.Code), final)
	default:
		httpError(w, http.StatusInternalServerError, errors.New("job produced no result"))
	}
}

// writeSnapshot writes a plain result body with its cache disposition,
// content address (when known) and integrity digest.
func writeSnapshot(w http.ResponseWriter, cache, key string, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("X-Cache", cache)
	if key != "" {
		h.Set("X-Result-Key", key)
	}
	SetSnapshotDigest(h, body)
	w.Write(body)
}

// meanJobLatency is the average wall-clock duration of finished jobs,
// or 0 before the first one completes.
func (s *Server) meanJobLatency() time.Duration {
	n := s.jobsDone.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(uint64(s.jobDurNS.Load()) / n)
}

// coldStartWaveLatency stands in for the mean job latency before any
// job has completed: with no signal yet, each wave of queued jobs is
// assumed to take about a second, so a deep backlog still pushes the
// hint out instead of telling every rejected client "retry in 1 s"
// against a queue that cannot possibly drain that fast.
const coldStartWaveLatency = time.Second

// retryAfterSeconds turns pool occupancy and observed mean job latency
// into a Retry-After hint for a saturated 429. A rejected client gets a
// slot once enough jobs ahead of it finish for the backlog to open up;
// jobs drain Workers at a time, so the (running + pending) occupancy
// seen at rejection is Pending/Workers full waves behind the currently
// running one, each taking about one mean latency. Before any job has
// finished there is no latency signal; the waves model still applies,
// with coldStartWaveLatency standing in for the mean, so the hint keeps
// scaling with backlog depth instead of degenerating to a constant.
// 1 s floors the result; 60 s caps it so a pathological backlog never
// tells clients to go away for minutes.
func retryAfterSeconds(ps runpool.PoolStats, mean time.Duration) int {
	if ps.Workers <= 0 {
		return 1
	}
	if mean <= 0 {
		mean = coldStartWaveLatency
	}
	waves := 1 + ps.Pending/ps.Workers
	wait := time.Duration(waves) * mean
	secs := int((wait + time.Second - 1) / time.Second) // ceil
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return secs
}

// handleResult serves GET /v1/results/{key}: the content-addressed
// fetch path of the cache, then of the executor (X-Cache: peer, copied
// into the cache on the way through).
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if body, ok := s.cache.Get(key); ok {
		s.cacheSrvd.Add(1)
		writeSnapshot(w, "hit", "", body)
		return
	}
	if body, ok := s.exec.Lookup(r.Context(), key); ok {
		s.cache.Put(key, body)
		writeSnapshot(w, "peer", "", body)
		return
	}
	httpError(w, http.StatusNotFound, fmt.Errorf("no cached result for %q", key))
}

func (s *Server) handleBenchmarks(w http.ResponseWriter, r *http.Request) {
	type bench struct {
		Name        string `json:"name"`
		Description string `json:"description"`
		MemoryBound bool   `json:"memory_bound"`
		WriteHeavy  bool   `json:"write_heavy"`
	}
	var out []bench
	for _, n := range workload.Names() {
		sp, _ := workload.Lookup(n)
		out = append(out, bench{Name: sp.Name, Description: sp.Description,
			MemoryBound: sp.MemoryBound, WriteHeavy: sp.WriteHeavy})
	}
	WriteJSON(w, http.StatusOK, out)
}

func (s *Server) handleExperimentList(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, experiments.IDs())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	fields, degraded := s.exec.Health(s.pool.Stats())
	status, code := "ok", http.StatusOK
	switch {
	case s.isDraining():
		status, code = "draining", http.StatusServiceUnavailable
	case degraded:
		status = "degraded"
	}
	fields["status"] = status
	WriteJSON(w, code, fields)
}

// Snapshot exports the front's counters as a metrics tree (the /metrics
// payload): job admission and the executor's counters at the root, the
// pool, cache and endpoints as children.
func (s *Server) Snapshot() *stats.Snapshot {
	n := stats.NewSnapshot(s.name)
	n.Counter("accepted", s.accepted.Load())
	n.Counter("rejected", s.rejected.Load())
	n.Counter("finished", s.finished.Load())
	n.Counter("failed", s.failed.Load())
	n.Counter("streamed", s.streamed.Load())
	n.Counter("cache_served", s.cacheSrvd.Load())
	n.Value("uptime_seconds", time.Since(s.start).Seconds())
	n.Value("mean_job_ms", float64(s.meanJobLatency())/float64(time.Millisecond))
	s.exec.Metrics(n)

	ps := s.pool.Stats()
	pn := n.Child("pool")
	pn.Counter("submitted", ps.Submitted)
	pn.Counter("rejected", ps.Rejected)
	pn.Counter("completed", ps.Completed)
	pn.Counter("panics", ps.Panics)
	pn.Counter("workers", uint64(ps.Workers))
	pn.Counter("backlog", uint64(ps.Backlog))
	pn.Counter("pending", uint64(ps.Pending))
	pn.Counter("running", uint64(ps.Running))
	// The gauges a load balancer steers by: how full the execution slots
	// are (running/workers) and how deep the backlog sits behind them
	// (pending/backlog; 0 when no backlog is configured).
	pn.Value("occupancy", ps.Occupancy())
	pn.Value("backlog_depth", backlogDepth(ps))

	cs := s.cache.Stats()
	cn := n.Child("cache")
	cn.Counter("entries", uint64(cs.Entries))
	cn.Counter("capacity", uint64(max(cs.Capacity, 0)))
	cn.Counter("hits", cs.Hits)
	cn.Counter("misses", cs.Misses)
	cn.Counter("evictions", cs.Evictions)

	s.endpoints.addTo(n.Child("endpoints"))
	return n
}

// backlogDepth is the fraction of the configured backlog in use, 0 when
// the pool runs without one.
func backlogDepth(ps runpool.PoolStats) float64 {
	if ps.Backlog <= 0 {
		return 0
	}
	return float64(ps.Pending) / float64(ps.Backlog)
}

// endpointCounters counts requests per route, keyed by a short stable
// name so the /metrics tree stays deterministic as routes come and go.
type endpointCounters struct {
	mu     sync.Mutex
	counts map[string]uint64
}

// counted wraps a handler so every invocation increments the named
// endpoint's counter.
func (e *endpointCounters) counted(name string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		e.mu.Lock()
		if e.counts == nil {
			e.counts = make(map[string]uint64)
		}
		e.counts[name]++
		e.mu.Unlock()
		h(w, r)
	}
}

// addTo exports one counter per endpoint (serialization sorts by name).
func (e *endpointCounters) addTo(n *stats.Snapshot) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for name, v := range e.counts {
		n.Counter(name, v)
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	body, err := s.Snapshot().JSON()
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
}

// --- plumbing ---

func wantsStream(r *http.Request) bool {
	if v := r.URL.Query().Get("stream"); v == "1" || v == "true" {
		return true
	}
	for _, accept := range r.Header.Values("Accept") {
		if accept == "application/x-ndjson" || accept == "application/ndjson" {
			return true
		}
	}
	return false
}

// streamWriter emits NDJSON lines, flushing after each so progress
// reaches the client as it happens. Writes to a stalled client get a
// bounded deadline instead of wedging the handler.
type streamWriter struct {
	w      http.ResponseWriter
	rc     *http.ResponseController
	enc    *json.Encoder
	broken bool
}

func newStreamWriter(w http.ResponseWriter) *streamWriter {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	return &streamWriter{w: w, rc: http.NewResponseController(w), enc: json.NewEncoder(w)}
}

func (sw *streamWriter) write(ev Event) {
	if sw.broken {
		return
	}
	sw.rc.SetWriteDeadline(time.Now().Add(30 * time.Second))
	if err := sw.enc.Encode(ev); err != nil {
		sw.broken = true
		return
	}
	sw.rc.Flush()
}

// DecodeJSON reads a request's JSON body into dst, refusing unknown
// fields and bodies over 1 MiB; on failure it answers 400 itself and
// reports false.
func DecodeJSON(w http.ResponseWriter, r *http.Request, dst any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("request body: %w", err))
		return false
	}
	return true
}

func httpError(w http.ResponseWriter, status int, err error) {
	WriteJSON(w, status, map[string]string{"error": err.Error()})
}

// WriteJSON answers with v as indented JSON.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
