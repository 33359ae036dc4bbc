// Package chaos injects deterministic, seeded service-level faults
// into coordinator↔worker HTTP traffic: added latency, connection
// resets, 5xx bursts, corrupted or truncated response bodies,
// mid-stream stalls, partitions, and flapping workers.
//
// Where internal/faults attacks the *simulated* memory system, this
// package attacks the *real* distributed system built in
// internal/cluster — the adversary the ROADMAP's "production means
// slow, flaky, lying networks" line asks for. Faults mount at either
// end of a connection:
//
//   - Transport (client side): an http.RoundTripper wrapper perturbing
//     requests the coordinator sends to workers
//   - Middleware (server side): an http.Handler wrapper perturbing the
//     responses a worker serves
//
// A Schedule is parsed from a compact grammar modeled on
// faults.ParsePlan:
//
//	schedule := rule (";" rule)*
//	rule     := kind [":" param ("," param)*]
//	param    := key "=" value
//
//	chaos.Parse("latency:p=0.2,ms=500;stall:after=3")
//
// Kinds and their parameters (beyond the common ones):
//
//	latency    add ms (+ up to jitter ms) of delay before dispatch
//	reset      process the request, then kill the connection so the
//	           response is lost (the work happened; the answer didn't)
//	err        short-circuit with an HTTP error (status, default 503)
//	corrupt    flip one byte of the response body
//	truncate   cut the response body after bytes bytes (default 128)
//	stall      serve the response normally for after lines/writes,
//	           then hold the connection silent for ms (default 30000)
//	           before killing it — the mid-NDJSON stream stall
//	partition  drop every matching request while from <= index < to
//	flap       alternate up serving / down dropped request windows
//
// Common parameters: p (firing probability per request, default 1),
// from (fire only from the from-th matching request on), count (fire at
// most count times), every (fire on every every-th request only), match
// (substring the request path must contain).
//
// Every decision is a pure function of (seed, rule index, request
// index), so a schedule replays identically for a given arrival order —
// chaos runs are as reproducible as the simulations they disturb.
package chaos

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Kind names a fault class.
type Kind int

const (
	KindLatency Kind = iota
	KindReset
	KindErr
	KindCorrupt
	KindTruncate
	KindStall
	KindPartition
	KindFlap
)

var kindNames = map[Kind]string{
	KindLatency:   "latency",
	KindReset:     "reset",
	KindErr:       "err",
	KindCorrupt:   "corrupt",
	KindTruncate:  "truncate",
	KindStall:     "stall",
	KindPartition: "partition",
	KindFlap:      "flap",
}

func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// ParseKind resolves a kind name from the schedule grammar.
func ParseKind(s string) (Kind, error) {
	for k, name := range kindNames {
		if name == s {
			return k, nil
		}
	}
	known := make([]string, 0, len(kindNames))
	for _, name := range kindNames {
		known = append(known, name)
	}
	sort.Strings(known)
	return 0, fmt.Errorf("chaos: unknown fault kind %q (want one of %s)", s, strings.Join(known, ", "))
}

// Rule is one parsed fault rule. Zero-valued fields take the kind's
// defaults at decision time.
type Rule struct {
	Kind Kind
	// P is the per-request firing probability (0 parses as "unset" and
	// means 1 — fire whenever eligible).
	P float64
	// MS is milliseconds: the added delay for latency, the silent hold
	// before the kill for stall.
	MS int
	// Jitter is extra uniformly-drawn delay for latency, in ms.
	Jitter int
	// Status is the short-circuit HTTP status for err (default 503).
	Status int
	// Bytes is the truncation point for truncate (default 128).
	Bytes int
	// After is stall's position trigger: response writes (NDJSON lines)
	// served before the stall (default 1).
	After int
	// From/To gate by request index: From is the first eligible index
	// for any rule; To bounds partition's window (exclusive).
	From, To int
	// Count caps total firings (0: unlimited).
	Count int
	// Every fires only on every Every-th matching request (0/1: all).
	Every int
	// Up/Down are flap's serve/drop window lengths in requests.
	Up, Down int
	// Match restricts the rule to request paths containing it.
	Match string
}

// Schedule is a parsed fault schedule: every rule is evaluated for
// every request, so independent faults stack (a request can be both
// delayed and corrupted).
type Schedule struct {
	Rules []Rule
}

// String renders the schedule back in (normalized) grammar form.
func (s Schedule) String() string {
	parts := make([]string, 0, len(s.Rules))
	for _, r := range s.Rules {
		parts = append(parts, r.String())
	}
	return strings.Join(parts, ";")
}

// String renders one rule in grammar form, only non-default fields.
func (r Rule) String() string {
	var kv []string
	add := func(k string, v int) {
		if v != 0 {
			kv = append(kv, fmt.Sprintf("%s=%d", k, v))
		}
	}
	if r.P > 0 && r.P < 1 {
		kv = append(kv, "p="+strconv.FormatFloat(r.P, 'g', -1, 64))
	}
	add("ms", r.MS)
	add("jitter", r.Jitter)
	add("status", r.Status)
	add("bytes", r.Bytes)
	add("after", r.After)
	add("from", r.From)
	add("to", r.To)
	add("count", r.Count)
	add("every", r.Every)
	add("up", r.Up)
	add("down", r.Down)
	if r.Match != "" {
		kv = append(kv, "match="+r.Match)
	}
	if len(kv) == 0 {
		return r.Kind.String()
	}
	return r.Kind.String() + ":" + strings.Join(kv, ",")
}

// Parse parses the schedule grammar (see the package comment).
func Parse(s string) (Schedule, error) {
	var sched Schedule
	for _, raw := range strings.Split(s, ";") {
		spec := strings.TrimSpace(raw)
		if spec == "" {
			continue
		}
		name, params, hasParams := strings.Cut(spec, ":")
		kind, err := ParseKind(strings.TrimSpace(name))
		if err != nil {
			return Schedule{}, err
		}
		r := Rule{Kind: kind}
		if hasParams {
			for _, param := range strings.Split(params, ",") {
				key, val, found := strings.Cut(param, "=")
				if !found {
					return Schedule{}, fmt.Errorf("chaos: parameter %q in %q has no value (want key=value)", param, spec)
				}
				key, val = strings.TrimSpace(key), strings.TrimSpace(val)
				if err := r.set(key, val); err != nil {
					return Schedule{}, fmt.Errorf("chaos: parameter %q in %q: %w", param, spec, err)
				}
			}
		}
		if err := r.validate(); err != nil {
			return Schedule{}, fmt.Errorf("chaos: rule %q: %w", spec, err)
		}
		sched.Rules = append(sched.Rules, r)
	}
	if len(sched.Rules) == 0 {
		return Schedule{}, fmt.Errorf("chaos: empty schedule %q", s)
	}
	return sched, nil
}

func (r *Rule) set(key, val string) error {
	switch key {
	case "p":
		p, err := strconv.ParseFloat(val, 64)
		if err != nil || math.IsNaN(p) || p < 0 || p > 1 {
			return fmt.Errorf("want a probability in [0,1], got %q", val)
		}
		r.P = p
		return nil
	case "match":
		r.Match = val
		return nil
	}
	n, err := strconv.Atoi(val)
	if err != nil || n < 0 {
		return fmt.Errorf("want a non-negative integer, got %q", val)
	}
	switch key {
	case "ms":
		r.MS = n
	case "jitter":
		r.Jitter = n
	case "status":
		r.Status = n
	case "bytes":
		r.Bytes = n
	case "after":
		r.After = n
	case "from":
		r.From = n
	case "to":
		r.To = n
	case "count":
		r.Count = n
	case "every":
		r.Every = n
	case "up":
		r.Up = n
	case "down":
		r.Down = n
	default:
		return fmt.Errorf("unknown key %q", key)
	}
	return nil
}

func (r *Rule) validate() error {
	switch r.Kind {
	case KindErr:
		if r.Status == 0 {
			r.Status = 503
		}
		if r.Status < 400 || r.Status > 599 {
			return fmt.Errorf("status %d is not an HTTP error status", r.Status)
		}
	case KindTruncate:
		if r.Bytes == 0 {
			r.Bytes = 128
		}
	case KindStall:
		if r.After == 0 {
			r.After = 1
		}
		if r.MS == 0 {
			r.MS = 30_000
		}
	case KindPartition:
		if r.To <= r.From {
			return fmt.Errorf("partition needs from < to (got from=%d to=%d)", r.From, r.To)
		}
	case KindFlap:
		if r.Up <= 0 || r.Down <= 0 {
			return fmt.Errorf("flap needs up > 0 and down > 0 (got up=%d down=%d)", r.Up, r.Down)
		}
	case KindLatency:
		if r.MS == 0 && r.Jitter == 0 {
			return fmt.Errorf("latency needs ms or jitter")
		}
	}
	return nil
}

// Decision is every fault the schedule injects into one request.
// Terminal faults take precedence in the order Drop, Status, Reset;
// body mutations (corrupt/truncate/stall) stack with Delay.
type Decision struct {
	// Index is the request's arrival index at this injector (0-based).
	Index uint64
	// Delay is added latency before the request is dispatched/served.
	Delay time.Duration
	// Drop refuses the request outright: the connection dies before any
	// processing (a partitioned or down-flapping worker).
	Drop bool
	// Status short-circuits with an HTTP error response of this status.
	Status int
	// Reset processes the request but kills the connection as the
	// response starts, so the work happened and the answer is lost.
	Reset bool
	// Corrupt flips the response-body byte at CorruptPos (reduced
	// modulo the body/chunk length at the injection site).
	Corrupt    bool
	CorruptPos int
	// TruncateAfter cuts the response body after this many bytes and
	// kills the connection (0: no truncation).
	TruncateAfter int
	// StallAfter serves this many response writes (NDJSON lines), then
	// holds the connection silent for StallHold before killing it
	// (0: no stall).
	StallAfter int
	StallHold  time.Duration
}

// Faulty reports whether the decision perturbs the request at all.
func (d Decision) Faulty() bool {
	return d.Delay > 0 || d.Drop || d.Status != 0 || d.Reset || d.Corrupt ||
		d.TruncateAfter > 0 || d.StallAfter > 0
}

// Injector evaluates a Schedule deterministically. One injector owns
// one request counter; mount the same injector in a Transport or a
// Middleware, not both, or they will share the index stream.
type Injector struct {
	sched Schedule
	seed  uint64
	mu    sync.Mutex
	n     uint64   // requests seen
	fired []uint64 // firings per rule (Count budgeting)
	total uint64   // requests with at least one fault
}

// New builds an injector over sched with the given seed. Equal seeds
// and schedules make equal decisions for equal request indices.
func New(sched Schedule, seed uint64) *Injector {
	return &Injector{sched: sched, seed: seed, fired: make([]uint64, len(sched.Rules))}
}

// Decide consumes the next request index and returns the faults to
// inject into a request for path.
func (in *Injector) Decide(path string) Decision {
	in.mu.Lock()
	defer in.mu.Unlock()
	i := in.n
	in.n++
	d := Decision{Index: i}
	for ri, r := range in.sched.Rules {
		if !ruleEligible(r, i, path) {
			continue
		}
		// Flap and partition are windows, not draws: their up/down state
		// is a function of the index alone.
		switch r.Kind {
		case KindPartition:
			d.Drop = true
			in.fired[ri]++
			continue
		case KindFlap:
			if int(i)%(r.Up+r.Down) >= r.Up {
				d.Drop = true
				in.fired[ri]++
			}
			continue
		}
		if r.Count > 0 && in.fired[ri] >= uint64(r.Count) {
			continue
		}
		p := r.P
		if p == 0 {
			p = 1
		}
		h := mix(in.seed, uint64(ri), i)
		if p < 1 && float64(h>>11)/float64(1<<53) >= p {
			continue
		}
		in.fired[ri]++
		switch r.Kind {
		case KindLatency:
			delay := time.Duration(r.MS) * time.Millisecond
			if r.Jitter > 0 {
				delay += time.Duration(mix(in.seed, uint64(ri)+1000, i)%uint64(r.Jitter+1)) * time.Millisecond
			}
			d.Delay += delay
		case KindReset:
			d.Reset = true
		case KindErr:
			d.Status = r.Status
		case KindCorrupt:
			d.Corrupt = true
			d.CorruptPos = int(mix(in.seed, uint64(ri)+2000, i) >> 7 & 0x7fffffff)
		case KindTruncate:
			d.TruncateAfter = r.Bytes
		case KindStall:
			d.StallAfter = r.After
			d.StallHold = time.Duration(r.MS) * time.Millisecond
		}
	}
	if d.Faulty() {
		in.total++
	}
	return d
}

func ruleEligible(r Rule, i uint64, path string) bool {
	if r.Match != "" && !strings.Contains(path, r.Match) {
		return false
	}
	if i < uint64(r.From) {
		return false
	}
	if r.Kind == KindPartition && i >= uint64(r.To) {
		return false
	}
	if r.Every > 1 && i%uint64(r.Every) != 0 {
		return false
	}
	return true
}

// Stats reports the injector's activity: requests seen, requests
// perturbed, and per-rule firing counts keyed by the rule's grammar
// form.
func (in *Injector) Stats() (requests, faulted uint64, perRule map[string]uint64) {
	in.mu.Lock()
	defer in.mu.Unlock()
	perRule = make(map[string]uint64, len(in.sched.Rules))
	for ri, r := range in.sched.Rules {
		perRule[r.String()] += in.fired[ri]
	}
	return in.n, in.total, perRule
}

// mix is a splitmix64-style finalizer over (seed, stream, index): the
// deterministic per-request randomness source. Decorrelated streams
// (probability draws, jitter, corruption positions) use distinct
// stream values.
func mix(seed, stream, i uint64) uint64 {
	z := seed ^ (stream+1)*0x9e3779b97f4a7c15 ^ (i+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
