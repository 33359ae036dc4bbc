package experiments

import (
	"context"
	"fmt"

	"ctrpred/internal/faults"
	"ctrpred/internal/predictor"
	"ctrpred/internal/secmem"
	"ctrpred/internal/sim"
	"ctrpred/internal/tenancy"
)

// tenancyFootprint pins every tenant's working set. Like the attack
// campaign's pinned footprint:L2 ratio, this is deliberate: a solo
// tenant's set fits the default 256 KB L2, so nearly all of the
// interleaved run's extra misses are switch-in disturbance — the effect
// the scenarios measure — rather than capacity misses both runs share.
const tenancyFootprint = 256 << 10

// tenantBackgroundBench is the fixed co-tenant of the interference
// matrix. A constant (not derived from Options.Benchmarks) keeps each
// benchmark's cell independent of the requested set, so per-benchmark
// cluster cells compute exactly what the full grid would.
const tenantBackgroundBench = "mcf"

// tenantSeedStride separates tenant key domains: tenant i of a scenario
// is seeded base + i·stride, so every tenant gets its own workload
// layout, key material and predictor roots.
const tenantSeedStride = 1_000_003

// tenantSeed returns tenant i's seed for a scenario built on base.
func tenantSeed(base uint64, i int) uint64 {
	return base + uint64(i)*tenantSeedStride
}

// tenantConfig builds one tenant's machine config: performance mode,
// pinned footprint, per-tenant seed, and no background flusher — the
// schedule's context switches drive all eviction traffic, so the
// interference counters attribute cleanly.
func tenantConfig(opt Options, scheme sim.Scheme, seed uint64) sim.Config {
	cfg := sim.DefaultConfig(scheme)
	cfg.Scale = opt.Scale
	cfg.Scale.Footprint = tenancyFootprint
	cfg.Seed = seed
	cfg.Mem.FlushInterval = 0
	return cfg.WithEngine(opt.Engine)
}

// adversaryConfig arms the background tenant with a bit-flip attack
// plan (the class that is applicable on any fetch), the integrity tree
// and quarantine recovery, so the adversarial scenario's co-tenant
// spends its slices absorbing detections and recovery traffic — the
// worst-neighbor shape of the interference matrix.
func adversaryConfig(opt Options, scheme sim.Scheme, seed uint64) sim.Config {
	cfg := tenantConfig(opt, scheme, seed).WithIntegrity()
	cfg.Recovery = secmem.RecoveryQuarantine
	cfg.Faults = campaignPlan(faults.BitFlip, campaignAttacks)
	return cfg
}

// runScenario executes one tenancy scenario under the per-simulation
// deadline, like runSim does for single machines.
func (o Options) runScenario(ctx context.Context, cfg tenancy.Config) (tenancy.Report, error) {
	ctx, cancel := o.simContext(ctx)
	defer cancel()
	return tenancy.Run(ctx, cfg)
}

// tenantsScheme is the machine configuration the interference matrix
// runs every tenant under: the paper's best combined design.
func tenantsScheme() sim.Scheme {
	return sim.SchemeCombined(32<<10, predictor.SchemeRegular)
}

// tenantsGrid declares the multi-tenant interference matrix: every
// benchmark as the victim tenant, interleaved with a fixed background
// tenant by the configured arrival process, under three scenarios — the
// plain mix (predictor flushed on switch), the same mix with predictor
// state retained across switches (the paper's save/restore-with-context
// policy), and an adversarial mix whose co-tenant continuously absorbs
// injected attacks under quarantine recovery. Reported per victim: solo
// IPC, in-mix IPC, end-to-end slowdown (solo IPC over effective IPC,
// waiting included) and p99 fetch latency.
func tenantsGrid() *grid {
	return &grid{
		id: "Tenants",
		cols: []string{"Solo_IPC", "Mix_IPC", "Mix_Slowdown", "Mix_p99_Fetch",
			"Retain_Slowdown", "Adv_Slowdown", "Adv_p99_Fetch"},
		title: func(opt Options) string {
			return fmt.Sprintf("Multi-tenant interference matrix (vs %s, %s arrivals, combined 32K+pred)",
				tenantBackgroundBench, opt.Arrival)
		},
		notes: "Retain_Slowdown ≤ Mix_Slowdown shows the value of saving predictor state with process context; " +
			"Adv_* rows co-schedule a tenant absorbing bit-flip attacks under quarantine recovery.",
		cells: func(ctx context.Context, opt Options, benchmarks []string) ([]float64, error) {
			return benchRows(ctx, opt, "tenants", benchmarks, func(ctx context.Context, bench string) ([]float64, error) {
				return tenantsRow(ctx, opt, bench)
			})
		},
	}
}

// tenantsRow runs bench's three scenarios and returns its row of the
// interference matrix.
func tenantsRow(ctx context.Context, opt Options, bench string) ([]float64, error) {
	scheme := tenantsScheme()
	victimCfg := tenantConfig(opt, scheme, tenantSeed(opt.Seed, 0))
	bgCfg := tenantConfig(opt, scheme, tenantSeed(opt.Seed, 1))
	soloV, err := opt.runSim(ctx, bench, victimCfg)
	if err != nil {
		return nil, fmt.Errorf("tenants %s: victim solo: %w", bench, err)
	}
	soloB, err := opt.runSim(ctx, tenantBackgroundBench, bgCfg)
	if err != nil {
		return nil, fmt.Errorf("tenants %s: background solo: %w", bench, err)
	}
	solos := []float64{soloV.IPC(), soloB.IPC()}
	base := tenancy.Config{
		Tenants: []tenancy.Tenant{
			{Bench: bench, Config: victimCfg},
			{Bench: tenantBackgroundBench, Config: bgCfg},
		},
		Kind: opt.Arrival, Seed: opt.Seed, SoloIPC: solos,
	}
	mix, err := opt.runScenario(ctx, base)
	if err != nil {
		return nil, fmt.Errorf("tenants %s: mix: %w", bench, err)
	}
	retainCfg := base
	retainCfg.RetainPredictor = true
	retain, err := opt.runScenario(ctx, retainCfg)
	if err != nil {
		return nil, fmt.Errorf("tenants %s: retain: %w", bench, err)
	}
	advCfg := base
	advCfg.Tenants = []tenancy.Tenant{
		{Bench: bench, Config: victimCfg},
		{Bench: tenantBackgroundBench, Config: adversaryConfig(opt, scheme, tenantSeed(opt.Seed, 1))},
	}
	adv, err := opt.runScenario(ctx, advCfg)
	if err != nil {
		return nil, fmt.Errorf("tenants %s: adversarial: %w", bench, err)
	}
	v := mix.Tenants[0]
	return []float64{
		solos[0], v.IPC, v.Slowdown, v.P99FetchLatency,
		retain.Tenants[0].Slowdown,
		adv.Tenants[0].Slowdown, adv.Tenants[0].P99FetchLatency,
	}, nil
}

// capacitySLO assembles the declared SLO from the options.
func capacitySLO(opt Options) tenancy.SLO {
	return tenancy.SLO{MaxSlowdown: opt.SLOMaxSlowdown, P99FetchLatency: opt.SLOP99Fetch}
}

// capacitySearch binary-searches the largest tenant count, up to
// opt.MaxTenants, at which every tenant of an all-bench mix still meets
// the SLO. The search is valid because the binding metric — end-to-end
// slowdown — is monotone in the tenant count: each added tenant's
// slices only push every completion later in global virtual time. Solo
// baselines for all MaxTenants key domains are computed once and shared
// across probes, so the probes differ only in mix size.
func capacitySearch(ctx context.Context, opt Options, bench string, scheme sim.Scheme) (float64, error) {
	maxN := opt.MaxTenants
	solos := make([]float64, maxN)
	cfgs := make([]sim.Config, maxN)
	for i := 0; i < maxN; i++ {
		cfgs[i] = tenantConfig(opt, scheme, tenantSeed(opt.Seed, i))
		r, err := opt.runSim(ctx, bench, cfgs[i])
		if err != nil {
			return 0, fmt.Errorf("capacity %s/%s: solo %d: %w", bench, scheme.Name, i, err)
		}
		solos[i] = r.IPC()
	}
	meets := func(n int) (bool, error) {
		tens := make([]tenancy.Tenant, n)
		for i := range tens {
			tens[i] = tenancy.Tenant{Bench: bench, Config: cfgs[i]}
		}
		rep, err := opt.runScenario(ctx, tenancy.Config{
			Tenants: tens, Kind: opt.Arrival, Seed: opt.Seed,
			SLO: capacitySLO(opt), SoloIPC: solos[:n],
		})
		if err != nil {
			return false, fmt.Errorf("capacity %s/%s: n=%d: %w", bench, scheme.Name, n, err)
		}
		return rep.MeetsSLO, nil
	}
	ok, err := meets(1)
	if err != nil {
		return 0, err
	}
	if !ok {
		return 0, nil // even a lone tenant misses the SLO
	}
	lo, hi := 1, maxN
	for lo < hi {
		mid := (lo + hi + 1) / 2
		ok, err := meets(mid)
		if err != nil {
			return 0, err
		}
		if ok {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return float64(lo), nil
}

// capacityGrid declares the capacity-planning experiment: for every
// benchmark and each scheme of the availability ladder, the largest
// number of co-scheduled tenants (identical programs, separate key
// domains) that still meets the declared SLO. The question under test,
// lifting the paper's context-switch analysis to a served deployment:
// whether prediction-based designs sustain more tenants at the same SLO
// than sequence-number caches, whose warm state is costlier to lose on a
// switch. Tight SLOs separate the schemes; loose ones are dominated by
// core sharing and tie.
func capacityGrid() *grid {
	schemes := []sim.Scheme{
		sim.SchemeSeqCache(32 << 10),
		sim.SchemePred(predictor.SchemeRegular),
		sim.SchemeCombined(32<<10, predictor.SchemeRegular),
	}
	cols := []string{"Seq_Cache_32K", "Pred", "Combined_32K"}
	return &grid{
		id:   "Capacity",
		cols: cols,
		title: func(opt Options) string {
			return fmt.Sprintf("Max sustainable tenants (SLO: slowdown ≤ %g%s, %s arrivals, ≤ %d tenants)",
				opt.SLOMaxSlowdown, p99Clause(opt.SLOP99Fetch), opt.Arrival, opt.MaxTenants)
		},
		notes: "Capacity = largest co-tenant count meeting the SLO; the binary search converges " +
			"to the same count for a fixed seed and SLO on every run and worker count.",
		cells: func(ctx context.Context, opt Options, benchmarks []string) ([]float64, error) {
			return sweep(ctx, opt, "Capacity", benchmarks, cols, func(ctx context.Context, bench string, col int) (float64, error) {
				return capacitySearch(ctx, opt, bench, schemes[col])
			})
		},
	}
}

// p99Clause renders the optional p99 bound for the capacity title.
func p99Clause(p99 float64) string {
	if p99 <= 0 {
		return ""
	}
	return fmt.Sprintf(", p99 fetch ≤ %g", p99)
}
