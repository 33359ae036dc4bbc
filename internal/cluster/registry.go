package cluster

import (
	"sort"
	"strings"
	"sync"
	"time"
)

// Registry tracks the cluster's worker nodes: ring membership, up/down
// state, and per-worker dispatch counters. Dispatch paths report
// outcomes; the health prober (coordinator.go) reports probe results;
// both flow through the same mark-down/mark-up logic so a worker's
// state has one definition: a per-worker circuit breaker.
//
// The breaker has the classic three states. Closed (up): traffic flows,
// consecutive failures count toward the threshold. Open (down): no
// traffic for a cooldown window; further failures (probes, strays)
// refresh the window. Half-open: the cooldown expired, so Candidates
// offers the worker again — as a failover candidate behind the closed
// ones — and the first dispatch is the trial; success closes the
// breaker, failure re-opens it for another cooldown. The prober's
// successful probe also closes it, so revival does not wait for
// traffic when probing is enabled.
//
// Down workers stay on the ring — key ownership must not churn on a
// transient outage, or every blip would cold-start the caches — but
// Candidates skips open workers, so traffic routes around a down
// worker to the next node clockwise until the breaker lets it back.
type Registry struct {
	mu            sync.Mutex
	ring          *Ring
	workers       map[string]*workerState
	failThreshold int
	cooldown      time.Duration
}

type workerState struct {
	url string
	// down gates dispatch; consecFails counts failures since the last
	// success, and down flips when it reaches the registry threshold.
	down        bool
	consecFails int
	lastErr     string
	lastChange  time.Time
	// openUntil is when the breaker's cooldown expires; trial marks the
	// single half-open probe dispatch as taken.
	openUntil time.Time
	trial     bool

	dispatched uint64 // cells/jobs sent to this worker
	failures   uint64 // dispatch and probe failures observed
	markDowns  uint64 // times this worker was marked down
}

// state renders the breaker state at time now.
func (w *workerState) state(now time.Time) string {
	switch {
	case !w.down:
		return "up"
	case now.Before(w.openUntil):
		return "open"
	default:
		return "half-open"
	}
}

// halfOpenReady reports whether the worker may receive its half-open
// trial dispatch at time now.
func (w *workerState) halfOpenReady(now time.Time) bool {
	return w.down && !w.trial && !now.Before(w.openUntil)
}

// WorkerInfo is one worker's state as reported by Workers — the
// topology and metrics view.
type WorkerInfo struct {
	URL  string `json:"url"`
	Down bool   `json:"down"`
	// State is the breaker state: "up", "open" (cooling down), or
	// "half-open" (eligible for a trial dispatch).
	State      string `json:"state"`
	LastError  string `json:"last_error,omitempty"`
	Dispatched uint64 `json:"dispatched"`
	Failures   uint64 `json:"failures"`
	MarkDowns  uint64 `json:"mark_downs"`
}

// NewRegistry creates an empty registry. failThreshold is how many
// consecutive failures mark a worker down (<= 0: 2 — one failure could
// be the victim of a mid-request kill; two in a row is a pattern).
// cooldown is the breaker's open window before a half-open trial
// (<= 0: 5 s).
func NewRegistry(failThreshold int, cooldown time.Duration) *Registry {
	if failThreshold <= 0 {
		failThreshold = 2
	}
	if cooldown <= 0 {
		cooldown = 5 * time.Second
	}
	return &Registry{
		ring:          NewRing(),
		workers:       make(map[string]*workerState),
		failThreshold: failThreshold,
		cooldown:      cooldown,
	}
}

// normalizeURL canonicalizes a worker URL so "http://a:1/" and
// "http://a:1" name one worker.
func normalizeURL(u string) string {
	return strings.TrimRight(strings.TrimSpace(u), "/")
}

// Add registers a worker as up, reporting whether it was new. Re-adding
// a known worker (a worker re-joining after a restart) revives it.
func (g *Registry) Add(url string) bool {
	url = normalizeURL(url)
	if url == "" {
		return false
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	w, ok := g.workers[url]
	if !ok {
		g.workers[url] = &workerState{url: url, lastChange: time.Now()}
		g.ring.Add(url)
		return true
	}
	w.down = false
	w.consecFails = 0
	w.lastErr = ""
	w.trial = false
	w.lastChange = time.Now()
	return false
}

// Candidates returns the workers that should run key's job, in
// failover order: the closed (up) workers first — the key's home, then
// successive nodes clockwise on the ring — then any half-open workers
// whose breaker cooldown has expired and whose trial is unclaimed, so
// a recovering node re-earns traffic as a failover target before it
// carries primaries again. When every worker is open it returns the
// full sequence anyway — dispatching into a possibly-recovering
// cluster beats refusing all work on the breaker's say-so.
func (g *Registry) Candidates(key string) []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	now := time.Now()
	seq := g.ring.Sequence(key, g.ring.Len())
	up := make([]string, 0, len(seq))
	for _, url := range seq {
		if w := g.workers[url]; w != nil && !w.down {
			up = append(up, url)
		}
	}
	for _, url := range seq {
		if w := g.workers[url]; w != nil && w.halfOpenReady(now) {
			up = append(up, url)
		}
	}
	if len(up) == 0 {
		return seq
	}
	return up
}

// Up returns the up workers, sorted — the set a cluster-wide peer
// lookup should consult.
func (g *Registry) Up() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]string, 0, len(g.workers))
	for url, w := range g.workers {
		if !w.down {
			out = append(out, url)
		}
	}
	sort.Strings(out)
	return out
}

// All returns every registered worker URL, sorted, up or not — the set
// the health prober sweeps.
func (g *Registry) All() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]string, 0, len(g.workers))
	for url := range g.workers {
		out = append(out, url)
	}
	sort.Strings(out)
	return out
}

// NoteDispatch counts a job sent to url. Dispatching to a half-open
// worker claims its single trial slot, so concurrent cells cannot pile
// onto a node that has yet to prove it recovered.
func (g *Registry) NoteDispatch(url string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if w := g.workers[normalizeURL(url)]; w != nil {
		w.dispatched++
		if w.halfOpenReady(time.Now()) {
			w.trial = true
		}
	}
}

// ReportSuccess records a successful interaction: the breaker closes,
// the worker is up, and its failure streak resets.
func (g *Registry) ReportSuccess(url string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	w := g.workers[normalizeURL(url)]
	if w == nil {
		return
	}
	if w.down {
		w.lastChange = time.Now()
	}
	w.down = false
	w.consecFails = 0
	w.lastErr = ""
	w.trial = false
}

// ReportFailure records a failed interaction (dispatch error or probe
// failure) and reports whether the worker is now down. immediate
// short-circuits the threshold — a connection refused means the process
// is gone, and waiting out more probes would send it more doomed work.
// A failure on an already-open breaker (a failed half-open trial, a
// probe miss) re-arms the cooldown window.
func (g *Registry) ReportFailure(url string, err error, immediate bool) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	w := g.workers[normalizeURL(url)]
	if w == nil {
		return false
	}
	now := time.Now()
	w.failures++
	w.consecFails++
	if err != nil {
		w.lastErr = err.Error()
	}
	if !w.down && (immediate || w.consecFails >= g.failThreshold) {
		w.down = true
		w.markDowns++
		w.lastChange = now
	}
	if w.down {
		w.openUntil = now.Add(g.cooldown)
		w.trial = false
	}
	return w.down
}

// Workers returns every worker's state, sorted by URL.
func (g *Registry) Workers() []WorkerInfo {
	g.mu.Lock()
	defer g.mu.Unlock()
	now := time.Now()
	out := make([]WorkerInfo, 0, len(g.workers))
	for _, w := range g.workers {
		out = append(out, WorkerInfo{
			URL: w.url, Down: w.down, State: w.state(now), LastError: w.lastErr,
			Dispatched: w.dispatched, Failures: w.failures, MarkDowns: w.markDowns,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].URL < out[j].URL })
	return out
}
