// Package spec is the one grammar from user strings to a machine. A Run
// describes one simulation and a Sweep one experiment grid. The daemon
// decodes them from JSON job bodies, ctrsim and experiments bind them to
// flags, and all three resolve them through Resolve, so a flag and the
// body field it names always mean the same thing.
//
// A zero or empty field takes the library default on every front: the
// Table 1 machine with memsys's 25M-cycle dirty flush, seed 1,
// workload.DefaultScale() for a run and experiments.DefaultOptions()
// for a sweep, the default AES engine, performance mode and the halt
// recovery policy.
package spec

import (
	"flag"
	"fmt"
	"strings"

	"ctrpred/internal/cryptoengine"
	"ctrpred/internal/faults"
	"ctrpred/internal/secmem"
	"ctrpred/internal/seqcache"
	"ctrpred/internal/sim"
	"ctrpred/internal/workload"
)

// Run is one simulation: the JSON body of POST /v1/sim and the flags
// of ctrsim. Zero-valued fields take the library defaults (Table 1
// machine, 256K L2, default scale, 25M-cycle dirty flush).
type Run struct {
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
	// default, Table 1's 25M).
	FlushInterval uint64 `json:"flush_interval,omitempty"`
	// Integrity attaches the hash-tree authentication layer.
	Integrity bool `json:"integrity,omitempty"`
	// Faults is an attack plan in ParseFaultPlan syntax; arming faults
	// implies Integrity.
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

// Resolve validates the spec and assembles the run configuration. An
// L2 or sequence-number cache size the cache model cannot build is an
// error here, before NewMachine would panic on it.
func (r Run) Resolve() (string, sim.Config, error) {
	var zero sim.Config
	if r.Bench == "" {
		return "", zero, fmt.Errorf("missing required field %q", "bench")
	}
	if err := knownBenchmark(r.Bench); err != nil {
		return "", zero, err
	}
	if r.Scheme == "" {
		return "", zero, fmt.Errorf("missing required field %q", "scheme")
	}
	sch, err := sim.ParseScheme(r.Scheme)
	if err != nil {
		return "", zero, err
	}
	if sch.SeqCacheBytes > 0 {
		if err := seqcache.Geometry(sch.SeqCacheBytes).Validate(); err != nil {
			return "", zero, fmt.Errorf("scheme %q: %w", r.Scheme, err)
		}
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
		if err := cfg.Mem.L2Cache().Validate(); err != nil {
			return "", zero, fmt.Errorf("l2: %w", err)
		}
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

// Bind registers ctrsim's flags for the fields sim.Fingerprint covers,
// with r's current values as the defaults. The executor fields
// (check_interval, timeout, no_cache) stay JSON-only.
func (r *Run) Bind(fs *flag.FlagSet) {
	fs.StringVar(&r.Bench, "bench", r.Bench, "benchmark to run (see -list)")
	fs.StringVar(&r.Scheme, "scheme", r.Scheme, "counter scheme: baseline|oracle|direct|seqcache:<size>|pred-regular|pred-twolevel|pred-context|combined:<size>")
	fs.StringVar(&r.Engine, "engine", r.Engine, "cipher engine model: aes[:lat=N,issue=N]|sealer[:banks=N,lat=N]|bipbip[:lat=N]")
	fs.StringVar(&r.L2, "l2", r.L2, "L2 size (256K or 1M per the paper; any power of two works)")
	fs.StringVar(&r.Footprint, "footprint", r.Footprint, "workload footprint")
	fs.Uint64Var(&r.Instructions, "instr", r.Instructions, "instruction budget (0 = the default scale's 2M)")
	fs.StringVar(&r.Mode, "mode", r.Mode, "performance (IPC) or hitrate (fast functional)")
	fs.Uint64Var(&r.Seed, "seed", r.Seed, "random seed (0 = 1)")
	fs.Uint64Var(&r.FlushInterval, "flush", r.FlushInterval, "dirty-flush interval in cycles (0 = Table 1's 25M)")
	fs.BoolVar(&r.Integrity, "integrity", r.Integrity, "attach the hash-tree integrity layer")
	fs.StringVar(&r.Faults, "faults", r.Faults, "attack plan, e.g. 'bitflip@fetch:100,replay@instr:50000' (implies -integrity)")
	fs.StringVar(&r.Recovery, "recovery", r.Recovery, "recovery policy on detected tampering: halt|quarantine")
	fs.IntVar(&r.RetryBudget, "retry-budget", r.RetryBudget, "quarantine re-fetch attempts per detection (0 = default 2)")
}

// knownBenchmark rejects a benchmark name outside the catalog, listing
// the valid names.
func knownBenchmark(name string) error {
	if _, ok := workload.Lookup(name); !ok {
		return fmt.Errorf("%w %q (valid: %s)", workload.ErrUnknownBenchmark, name, strings.Join(workload.Names(), ", "))
	}
	return nil
}
