package spec

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"slices"
	"strings"
	"time"

	"ctrpred/internal/cryptoengine"
	"ctrpred/internal/experiments"
	"ctrpred/internal/sha256"
	"ctrpred/internal/sim"
	"ctrpred/internal/tenancy"
	"ctrpred/internal/workload"
)

// Sweep is one experiment grid: the JSON body of POST /v1/experiments
// and the flags of experiments. Zero-valued fields take
// experiments.DefaultOptions().
type Sweep struct {
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

// Resolve validates the spec and assembles the sweep options. Workers
// is left to the caller: how many simulations run at once is the
// executor's choice (the daemon defaults and caps it, experiments takes
// -j), never part of the result.
func (r Sweep) Resolve() (experiments.Options, error) {
	var zero experiments.Options
	if r.ID == "" {
		return zero, fmt.Errorf("missing required field %q", "id")
	}
	if !slices.Contains(experiments.IDs(), r.ID) {
		return zero, fmt.Errorf("%w %q (valid: %s)", experiments.ErrUnknownExperiment, r.ID, strings.Join(experiments.IDs(), ", "))
	}
	for _, b := range r.Benchmarks {
		if err := knownBenchmark(b); err != nil {
			return zero, err
		}
	}
	if err := experiments.CheckBenchmarks(r.Benchmarks); err != nil {
		return zero, err
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
	// An empty spec parses as the default AES; normalizing makes an
	// omitted engine and a spelled default resolve to equal options.
	eng, err := cryptoengine.ParseEngine(r.Engine)
	if err != nil {
		return zero, err
	}
	opt.Engine = eng.Normalized()
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
	slo, err := SLO(r.SLOMaxSlowdown, r.SLOP99Fetch)
	if err != nil {
		return zero, err
	}
	opt.SLOMaxSlowdown, opt.SLOP99Fetch = slo.MaxSlowdown, slo.P99FetchLatency
	return opt, nil
}

// SLO checks a tenancy SLO's two bounds and returns it. A zero bound is
// unconstrained (or the capacity experiment's default); a negative or
// NaN bound is an error, not a silently unconstrained run.
func SLO(maxSlowdown, p99Fetch float64) (tenancy.SLO, error) {
	if !(maxSlowdown >= 0) {
		return tenancy.SLO{}, fmt.Errorf("slo max slowdown: %v is not a non-negative bound", maxSlowdown)
	}
	if !(p99Fetch >= 0) {
		return tenancy.SLO{}, fmt.Errorf("slo p99 fetch: %v is not a non-negative bound", p99Fetch)
	}
	return tenancy.SLO{MaxSlowdown: maxSlowdown, P99FetchLatency: p99Fetch}, nil
}

// CacheKey returns the sweep's content address: a hash over the
// result-determining fields of the options it resolves to. Workers and
// timeouts are excluded — the sweep output is byte-identical for any
// worker count, and a deadline changes when a result exists, not what
// it is — so the cluster coordinator and the serving node agree on the
// address of every grid cell without coordinating pool sizes.
func (r Sweep) CacheKey() (string, error) {
	opt, err := r.Resolve()
	if err != nil {
		return "", err
	}
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
		Seed: opt.Seed,
	}
	// Resolve normalized the engine; the default hashes as "", so an
	// omitted engine and a spelled default share one entry.
	if opt.Engine != cryptoengine.DefaultSpec() {
		payload.Engine = opt.Engine.String()
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

// Bind registers experiments' flags for the fields the sweep key
// covers, with r's current values as the defaults. The executor fields
// (id, workers, sim_timeout, timeout, no_cache) stay JSON-only; the
// command keeps its own -exp, -j and -simtimeout for them.
func (r *Sweep) Bind(fs *flag.FlagSet) {
	fs.Func("bench", "comma-separated benchmark `list` (default: all 14)", func(list string) error {
		r.Benchmarks = nil
		for _, raw := range strings.Split(list, ",") {
			if name := strings.TrimSpace(raw); name != "" {
				r.Benchmarks = append(r.Benchmarks, name)
			}
		}
		if len(r.Benchmarks) == 0 {
			return errors.New("no benchmarks given")
		}
		return nil
	})
	fs.Uint64Var(&r.Instructions, "instr", r.Instructions, "per-run instruction budget (0 = default)")
	fs.StringVar(&r.Footprint, "footprint", r.Footprint, "workload footprint with optional K/M suffix, e.g. 8M (empty = default)")
	fs.Uint64Var(&r.Seed, "seed", r.Seed, "random seed (0 = 1)")
	fs.StringVar(&r.Engine, "engine", r.Engine, "cipher engine model every simulation runs under: aes[:lat=N,issue=N]|sealer[:banks=N,lat=N]|bipbip[:lat=N] (ignored by the 'engines' experiment, which sweeps them)")
	fs.StringVar(&r.Arrival, "arrival", r.Arrival, "tenancy experiments' arrival process: poisson|bursty")
	fs.IntVar(&r.MaxTenants, "maxtenants", r.MaxTenants, "capacity experiment's search ceiling (0 = default 8)")
	fs.Float64Var(&r.SLOMaxSlowdown, "slo-slowdown", r.SLOMaxSlowdown, "capacity SLO: max end-to-end slowdown vs solo (0 = default 8)")
	fs.Float64Var(&r.SLOP99Fetch, "slo-p99", r.SLOP99Fetch, "capacity SLO: max p99 fetch latency in cycles (0 = unconstrained)")
}
