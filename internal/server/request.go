package server

import (
	"encoding/json"
	"fmt"
	"time"

	"ctrpred/internal/cryptoengine"
	"ctrpred/internal/experiments"
	"ctrpred/internal/faults"
	"ctrpred/internal/secmem"
	"ctrpred/internal/sha256"
	"ctrpred/internal/sim"
	"ctrpred/internal/tenancy"
	"ctrpred/internal/workload"
)

// SimRequest is the JSON body of POST /v1/sim: one simulation run,
// exposing the full sim.Config surface the CLIs expose. Zero-valued
// fields take the library defaults (Table 1 machine, 256K L2, default
// scale), mirroring cmd/ctrsim's flags.
type SimRequest struct {
	// Bench is the workload kernel to run (required; see /v1/benchmarks).
	Bench string `json:"bench"`
	// Scheme is the counter-availability scheme spec, in ParseScheme
	// syntax ("baseline", "pred-context", "seqcache:128K", …). Required.
	Scheme string `json:"scheme"`
	// Engine is the cipher-engine model spec, in ParseEngine syntax
	// ("aes", "aes:lat=48", "sealer:banks=8", "bipbip", …). Empty means
	// the default pipelined AES. Unknown models fail with 422.
	Engine string `json:"engine,omitempty"`
	// L2 and Footprint are sizes with optional K/M suffixes.
	L2        string `json:"l2,omitempty"`
	Footprint string `json:"footprint,omitempty"`
	// Instructions is the dynamic instruction budget (0 = default scale).
	Instructions uint64 `json:"instructions,omitempty"`
	// Mode is "performance" (default) or "hitrate".
	Mode string `json:"mode,omitempty"`
	// Seed drives workload layout, key material and predictor roots
	// (0 = the library default, seed 1).
	Seed uint64 `json:"seed,omitempty"`
	// FlushInterval is the dirty-flush interval in cycles (0 = library
	// default).
	FlushInterval uint64 `json:"flush_interval,omitempty"`
	// Integrity attaches the hash-tree authentication layer.
	Integrity bool `json:"integrity,omitempty"`
	// Faults is an attack plan in ParseFaultPlan syntax; arming faults
	// implies Integrity, as with ctrsim's -faults flag.
	Faults string `json:"faults,omitempty"`
	// Recovery is "halt" (default) or "quarantine".
	Recovery string `json:"recovery,omitempty"`
	// RetryBudget bounds quarantine re-fetches (0 = default).
	RetryBudget int `json:"retry_budget,omitempty"`
	// CheckInterval paces cancellation checkpoints and progress
	// heartbeats (instructions; 0 = default 10k). Never affects results.
	CheckInterval uint64 `json:"check_interval,omitempty"`
	// Timeout bounds the whole job, on a single node and a coordinator
	// alike (Go duration string, e.g. "30s"); empty uses the server's
	// default.
	Timeout string `json:"timeout,omitempty"`
	// NoCache skips the result cache on both read and write.
	NoCache bool `json:"no_cache,omitempty"`
}

// buildSim validates the request and assembles the run configuration.
func (r SimRequest) buildSim() (string, sim.Config, error) {
	var zero sim.Config
	if r.Bench == "" {
		return "", zero, fmt.Errorf("missing required field %q", "bench")
	}
	if _, ok := workload.Lookup(r.Bench); !ok {
		return "", zero, fmt.Errorf("unknown benchmark %q (see /v1/benchmarks)", r.Bench)
	}
	if r.Scheme == "" {
		return "", zero, fmt.Errorf("missing required field %q", "scheme")
	}
	sch, err := sim.ParseScheme(r.Scheme)
	if err != nil {
		return "", zero, err
	}
	cfg := sim.DefaultConfig(sch)
	if r.Engine != "" {
		eng, err := cryptoengine.ParseEngine(r.Engine)
		if err != nil {
			return "", zero, err
		}
		cfg = cfg.WithEngine(eng)
	}
	if r.L2 != "" {
		n, err := sim.ParseSize(r.L2)
		if err != nil {
			return "", zero, fmt.Errorf("l2: %w", err)
		}
		cfg = cfg.WithL2(n)
	}
	if r.Footprint != "" {
		n, err := sim.ParseSize(r.Footprint)
		if err != nil {
			return "", zero, fmt.Errorf("footprint: %w", err)
		}
		cfg = cfg.WithFootprint(n)
	}
	if r.Instructions != 0 {
		cfg = cfg.WithInstrBudget(r.Instructions)
	}
	switch r.Mode {
	case "", "performance":
	case "hitrate":
		cfg = cfg.WithMode(sim.HitRate)
	default:
		return "", zero, fmt.Errorf("unknown mode %q (want performance or hitrate)", r.Mode)
	}
	if r.Seed != 0 {
		cfg = cfg.WithSeed(r.Seed)
	}
	if r.FlushInterval != 0 {
		cfg.Mem.FlushInterval = r.FlushInterval
	}
	if r.Integrity || r.Faults != "" {
		cfg = cfg.WithIntegrity()
	}
	if r.Faults != "" {
		plan, err := faults.ParsePlan(r.Faults)
		if err != nil {
			return "", zero, err
		}
		cfg = cfg.WithFaults(&plan)
	}
	if r.Recovery != "" {
		policy, err := secmem.ParseRecovery(r.Recovery)
		if err != nil {
			return "", zero, err
		}
		cfg = cfg.WithRecovery(policy)
	}
	cfg.RetryBudget = r.RetryBudget
	cfg.CheckInterval = r.CheckInterval
	return r.Bench, cfg, nil
}

// ExperimentRequest is the JSON body of POST /v1/experiments: one figure
// or table regeneration over a benchmark × scheme grid.
type ExperimentRequest struct {
	// ID names the figure/table (required; see /v1/experiments).
	ID string `json:"id"`
	// Benchmarks restricts the grid's benchmark set (default: all 14).
	Benchmarks []string `json:"benchmarks,omitempty"`
	// Instructions and Footprint override the per-simulation scale.
	Instructions uint64 `json:"instructions,omitempty"`
	Footprint    string `json:"footprint,omitempty"`
	// Seed drives all randomness (0 = default).
	Seed uint64 `json:"seed,omitempty"`
	// Workers caps concurrent simulations inside this job (default 1;
	// capped at the server's worker count). Results are byte-identical
	// for any value.
	Workers int `json:"workers,omitempty"`
	// Engine is the cipher-engine model spec every simulation of the
	// grid runs under, in ParseEngine syntax (empty = default AES;
	// ignored by the "engines" experiment, which sweeps models itself).
	Engine string `json:"engine,omitempty"`
	// SimTimeout bounds each grid cell (Go duration string).
	SimTimeout string `json:"sim_timeout,omitempty"`
	// Timeout bounds the whole job.
	Timeout string `json:"timeout,omitempty"`
	// NoCache skips the result cache on both read and write.
	NoCache bool `json:"no_cache,omitempty"`
	// Arrival selects the tenancy experiments' job-arrival process
	// ("poisson" or "bursty"; empty = poisson). Ignored by the others.
	Arrival string `json:"arrival,omitempty"`
	// MaxTenants bounds the capacity experiment's search (0 = default 8).
	MaxTenants int `json:"max_tenants,omitempty"`
	// SLOMaxSlowdown and SLOP99Fetch declare the capacity experiment's
	// SLO (0 = defaults: slowdown 8, p99 unconstrained).
	SLOMaxSlowdown float64 `json:"slo_max_slowdown,omitempty"`
	SLOP99Fetch    float64 `json:"slo_p99_fetch,omitempty"`
}

// buildExperiment validates the request and assembles the sweep options.
func (r ExperimentRequest) buildExperiment(maxWorkers int) (experiments.Options, error) {
	var zero experiments.Options
	if r.ID == "" {
		return zero, fmt.Errorf("missing required field %q", "id")
	}
	known := false
	for _, id := range experiments.IDs() {
		if id == r.ID {
			known = true
			break
		}
	}
	if !known {
		return zero, fmt.Errorf("%w: %q", experiments.ErrUnknownExperiment, r.ID)
	}
	for _, b := range r.Benchmarks {
		if _, ok := workload.Lookup(b); !ok {
			return zero, fmt.Errorf("unknown benchmark %q (see /v1/benchmarks)", b)
		}
	}
	opt := experiments.DefaultOptions()
	opt.Benchmarks = r.Benchmarks
	if len(opt.Benchmarks) == 0 {
		// Resolve the default set eagerly so an empty list and the full
		// explicit list hash to the same cache key.
		opt.Benchmarks = workload.Names()
	}
	if r.Instructions != 0 {
		opt.Scale.Instructions = r.Instructions
	}
	if r.Footprint != "" {
		n, err := sim.ParseSize(r.Footprint)
		if err != nil {
			return zero, fmt.Errorf("footprint: %w", err)
		}
		opt.Scale.Footprint = n
	}
	if r.Seed != 0 {
		opt.Seed = r.Seed
	}
	if r.Engine != "" {
		eng, err := cryptoengine.ParseEngine(r.Engine)
		if err != nil {
			return zero, err
		}
		opt.Engine = eng
	}
	// One experiment occupies one queue slot; its internal parallelism
	// defaults to a single worker so a grid cannot monopolize the host
	// unless the operator sized the server for it.
	opt.Workers = 1
	if r.Workers > 0 {
		opt.Workers = min(r.Workers, maxWorkers)
	}
	if r.SimTimeout != "" {
		d, err := time.ParseDuration(r.SimTimeout)
		if err != nil {
			return zero, fmt.Errorf("sim_timeout: %w", err)
		}
		opt.SimTimeout = d
	}
	kind, err := tenancy.ParseArrival(r.Arrival)
	if err != nil {
		return zero, err
	}
	opt.Arrival = kind
	if r.MaxTenants < 0 {
		return zero, fmt.Errorf("max_tenants: negative count %d", r.MaxTenants)
	}
	opt.MaxTenants = r.MaxTenants
	opt.SLOMaxSlowdown = r.SLOMaxSlowdown
	opt.SLOP99Fetch = r.SLOP99Fetch
	return opt, nil
}

// CacheKey exposes the experiment request's content address: the
// cluster coordinator addresses each per-benchmark cell of a grid by it.
// The key is insensitive to Workers and timeouts (they change when a
// result arrives, not what it is), so the coordinator and the serving
// node agree on the address without coordinating pool sizes.
func (r ExperimentRequest) CacheKey() (string, error) {
	opt, err := r.buildExperiment(1)
	if err != nil {
		return "", err
	}
	return r.key(opt)
}

// key returns the content address of an experiment request, given the
// options it resolved to: a hash over the result-determining fields
// only. Workers and timeouts are excluded — the sweep output is
// byte-identical for any worker count, and a deadline changes when a
// result exists, not what it is.
func (r ExperimentRequest) key(opt experiments.Options) (string, error) {
	payload := struct {
		Kind         string
		ID           string
		Benchmarks   []string
		Instructions uint64
		Footprint    int
		Seed         uint64
		Engine       string `json:",omitempty"`
		// Tenancy knobs are folded in only for the experiments they
		// steer, in normalized form — so requests for other experiments
		// keep their addresses no matter how these fields are spelled,
		// and implicit and explicit tenancy defaults collide.
		Arrival        string  `json:",omitempty"`
		MaxTenants     int     `json:",omitempty"`
		SLOMaxSlowdown float64 `json:",omitempty"`
		SLOP99Fetch    float64 `json:",omitempty"`
	}{
		Kind: "experiment", ID: r.ID, Benchmarks: opt.Benchmarks,
		Instructions: opt.Scale.Instructions, Footprint: opt.Scale.Footprint,
		Seed: opt.Seed, Engine: engineKey(opt.Engine),
	}
	if r.ID == "tenants" || r.ID == "capacity" {
		n := opt.Normalized()
		payload.Arrival = n.Arrival.String()
		if r.ID == "capacity" {
			payload.MaxTenants = n.MaxTenants
			payload.SLOMaxSlowdown = n.SLOMaxSlowdown
			payload.SLOP99Fetch = n.SLOP99Fetch
		}
	}
	b, err := json.Marshal(payload)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%x", sha256.Sum256(b)), nil
}

// engineKey canonicalizes an engine spec for cache hashing: the default
// AES engine renders as "" so requests that omit the field and requests
// that spell the default explicitly share one cache entry, while every
// other spec contributes its canonical string.
func engineKey(s cryptoengine.Spec) string {
	n := s.Normalized()
	if n == cryptoengine.DefaultSpec() {
		return ""
	}
	return n.String()
}

// parseTimeout resolves a request's job deadline against the server
// default; empty means the default, "0" or "0s" disables it.
func parseTimeout(s string, def time.Duration) (time.Duration, error) {
	if s == "" {
		return def, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, fmt.Errorf("timeout: %w", err)
	}
	if d < 0 {
		return 0, fmt.Errorf("timeout: negative duration %s", d)
	}
	return d, nil
}
