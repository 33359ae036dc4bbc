package tenancy

import (
	"context"
	"fmt"

	"ctrpred/internal/sim"
	"ctrpred/internal/stats"
)

// Tenant is one tenant of a scenario: a benchmark and the full machine
// configuration it runs under. Per-tenant seeds give each tenant its own
// key domain, workload layout and predictor roots; Config.Scale.
// Instructions is the tenant's core-time budget in the schedule.
type Tenant struct {
	Bench  string
	Config sim.Config
}

// SLO declares the service-level objective a scenario is judged
// against. Zero-valued bounds are unconstrained.
type SLO struct {
	// P99FetchLatency bounds every tenant's 99th-percentile secure-memory
	// fetch latency, in cycles.
	P99FetchLatency float64
	// MaxDegradation bounds every tenant's architectural IPC degradation
	// vs its solo run — cycles the tenant itself executed, so this
	// isolates cache/predictor interference from queueing — as a
	// fraction (0.25 = may lose at most a quarter of solo IPC).
	MaxDegradation float64
	// MaxSlowdown bounds every tenant's end-to-end slowdown: solo IPC
	// over effective IPC, where effective IPC divides the tenant's
	// committed instructions by the *global* cycles elapsed until it
	// completed — waiting for other tenants included. This is the
	// served-deployment "will it hold under load?" number: it grows with
	// tenant count even when the architectural degradation has
	// saturated, so it is what the capacity search knees on. Must be
	// ≥ 1 to constrain anything.
	MaxSlowdown float64
}

// Config is a complete multi-tenant scenario.
type Config struct {
	// Tenants lists the machines to interleave (at least one).
	Tenants []Tenant
	// Kind selects the arrival process; Quantum passes through to
	// ScheduleConfig (0 = its derived default).
	Kind    ArrivalKind
	Quantum uint64
	// Seed drives the arrival schedule (independent of tenant seeds).
	Seed uint64
	// RetainPredictor keeps each tenant's transient predictor state
	// (PHV confidence, latest-offset register, range-table residency)
	// across switches — the paper's save/restore-with-process-context
	// policy. False models a flush-on-switch OS.
	RetainPredictor bool
	// SLO is recorded in the report and evaluated per tenant.
	SLO SLO
	// SoloIPC, when non-nil (len == len(Tenants)), supplies precomputed
	// solo-run IPC baselines and Run skips its own; capacity searches
	// reuse one baseline set across probes this way.
	SoloIPC []float64
}

// TenantReport carries one tenant's SLO metrics from an interleaved run.
type TenantReport struct {
	Bench  string
	Scheme string
	// IPC is the tenant's instructions-per-cycle over the cycles it held
	// the core; SoloIPC the same machine run alone; Degradation the
	// fraction of solo IPC lost to interleaving (0 = none).
	IPC, SoloIPC, Degradation float64
	// EffectiveIPC divides the tenant's committed instructions by the
	// global cycles elapsed until it completed, so time spent waiting
	// behind other tenants counts against it; Slowdown is
	// SoloIPC / EffectiveIPC, the end-to-end response factor (≈1 solo,
	// growing with tenant count).
	EffectiveIPC, Slowdown float64
	// CompletionCycles is the global-virtual-time cycle count at which
	// the tenant's budget completed.
	CompletionCycles uint64
	// P50/P99FetchLatency are exact nearest-rank percentiles over every
	// secure-memory fetch the tenant issued (stats.Percentile).
	P50FetchLatency, P99FetchLatency float64
	// Fetches is the number of latency samples behind the percentiles.
	Fetches uint64
	// Slices and Switches count the tenant's timeslices and the
	// switch-in disturbances it absorbed; PredictorFlushes counts the
	// switches that also flushed its predictor (none when the scenario
	// retains predictors).
	Slices, Switches uint64
	PredictorFlushes uint64
	// MeetsSLO reports whether this tenant satisfied every declared
	// bound.
	MeetsSLO bool
	// Result is the tenant machine's full statistics tree.
	Result sim.Result
}

// Report is the outcome of one interleaved scenario.
type Report struct {
	Tenants []TenantReport
	// Aggregate percentiles pool every tenant's fetch samples.
	AggP50FetchLatency, AggP99FetchLatency float64
	// MeanDegradation / MaxDegradation summarize IPC loss across tenants.
	MeanDegradation, MaxDegradation float64
	// MeanSlowdown / MaxSlowdown summarize the end-to-end response
	// factors; GlobalCycles is the scenario's total busy time on the
	// shared core.
	MeanSlowdown, MaxSlowdown float64
	GlobalCycles              uint64
	// Switches is the total number of context switches the schedule
	// produced; Slices the total number of timeslices.
	Switches, Slices uint64
	// MeetsSLO is the conjunction of every tenant's verdict.
	MeetsSLO bool
	SLO      SLO
}

// Run executes the scenario: solo baselines first (unless supplied),
// then the interleaved run over the arrival schedule, sequentially and
// deterministically. Context cancellation lands within one simulation
// checkpoint, as everywhere else in the simulator.
func Run(ctx context.Context, cfg Config) (Report, error) {
	n := len(cfg.Tenants)
	if n == 0 {
		return Report{}, fmt.Errorf("tenancy: no tenants configured")
	}
	solo := cfg.SoloIPC
	if solo == nil {
		solo = make([]float64, n)
		for i, t := range cfg.Tenants {
			res, err := sim.RunContext(ctx, t.Bench, t.Config)
			if err != nil {
				return Report{}, fmt.Errorf("tenancy: solo baseline tenant %d (%s): %w", i, t.Bench, err)
			}
			solo[i] = res.IPC()
		}
	} else if len(solo) != n {
		return Report{}, fmt.Errorf("tenancy: SoloIPC has %d entries for %d tenants", len(solo), n)
	}

	budgets := make([]uint64, n)
	for i, t := range cfg.Tenants {
		budgets[i] = t.Config.Scale.Instructions
	}
	schedule := BuildSchedule(ScheduleConfig{
		Budgets: budgets, Quantum: cfg.Quantum, Kind: cfg.Kind, Seed: cfg.Seed,
	})

	machines := make([]*sim.Machine, n)
	samples := make([][]float64, n)
	for i, t := range cfg.Tenants {
		m, err := sim.NewMachine(t.Bench, t.Config)
		if err != nil {
			return Report{}, fmt.Errorf("tenancy: tenant %d (%s): %w", i, t.Bench, err)
		}
		defer m.Close()
		machines[i] = m
		buf := &samples[i]
		m.Ctrl.SetFetchObserver(func(lat uint64) { *buf = append(*buf, float64(lat)) })
	}

	rep := Report{SLO: cfg.SLO, Tenants: make([]TenantReport, n)}
	for i, t := range cfg.Tenants {
		rep.Tenants[i] = TenantReport{Bench: t.Bench, Scheme: t.Config.Scheme.Name, SoloIPC: solo[i]}
	}
	halted := make([]bool, n)
	completion := make([]uint64, n)
	var global uint64 // global virtual time: cycles any tenant has executed
	last := -1
	for _, sl := range schedule {
		t := sl.Tenant
		if halted[t] {
			continue
		}
		tr := &rep.Tenants[t]
		if last >= 0 && last != t {
			// Another tenant used the machine since this one last ran:
			// apply the switch-in disturbance before its slice.
			machines[t].SwitchIn(cfg.RetainPredictor)
			tr.Switches++
			if !cfg.RetainPredictor {
				tr.PredictorFlushes++
			}
			rep.Switches++
		}
		tr.Slices++
		rep.Slices++
		before := machines[t].Core.Stats().Cycles
		target := machines[t].Core.Committed() + sl.Length
		more, err := machines[t].RunSliceContext(ctx, target)
		if err != nil {
			return Report{}, fmt.Errorf("tenancy: tenant %d (%s): %w", t, tr.Bench, err)
		}
		global += machines[t].Core.Stats().Cycles - before
		completion[t] = global
		if !more {
			halted[t] = true
		}
		last = t
	}
	rep.GlobalCycles = global

	var all []float64
	var sumDeg, sumSlow float64
	rep.MeetsSLO = true
	for i := range rep.Tenants {
		tr := &rep.Tenants[i]
		committed := machines[i].Core.Committed()
		tr.Result = machines[i].Finish()
		tr.IPC = tr.Result.IPC()
		if tr.SoloIPC > 0 {
			tr.Degradation = 1 - tr.IPC/tr.SoloIPC
			if tr.Degradation < 0 {
				tr.Degradation = 0
			}
		}
		tr.CompletionCycles = completion[i]
		if completion[i] > 0 {
			tr.EffectiveIPC = float64(committed) / float64(completion[i])
		}
		if tr.SoloIPC > 0 && tr.EffectiveIPC > 0 {
			tr.Slowdown = tr.SoloIPC / tr.EffectiveIPC
		}
		tr.P50FetchLatency = stats.Percentile(samples[i], 0.50)
		tr.P99FetchLatency = stats.Percentile(samples[i], 0.99)
		tr.Fetches = uint64(len(samples[i]))
		all = append(all, samples[i]...)
		sumDeg += tr.Degradation
		sumSlow += tr.Slowdown
		if tr.Degradation > rep.MaxDegradation {
			rep.MaxDegradation = tr.Degradation
		}
		if tr.Slowdown > rep.MaxSlowdown {
			rep.MaxSlowdown = tr.Slowdown
		}
		tr.MeetsSLO = meetsSLO(cfg.SLO, tr.P99FetchLatency, tr.Degradation, tr.Slowdown)
		rep.MeetsSLO = rep.MeetsSLO && tr.MeetsSLO
	}
	rep.AggP50FetchLatency = stats.Percentile(all, 0.50)
	rep.AggP99FetchLatency = stats.Percentile(all, 0.99)
	rep.MeanDegradation = sumDeg / float64(n)
	rep.MeanSlowdown = sumSlow / float64(n)
	return rep, nil
}

// meetsSLO evaluates one tenant's metrics against the declared bounds
// (zero-valued bounds pass).
func meetsSLO(slo SLO, p99, degradation, slowdown float64) bool {
	if slo.P99FetchLatency > 0 && p99 > slo.P99FetchLatency {
		return false
	}
	if slo.MaxDegradation > 0 && degradation > slo.MaxDegradation {
		return false
	}
	if slo.MaxSlowdown >= 1 && slowdown > slo.MaxSlowdown {
		return false
	}
	return true
}

// Snapshot exports the scenario's SLO metrics as a metrics tree: one
// child per tenant (tenant00, tenant01, …) with its percentiles,
// degradation and interference counters, plus an "aggregate" child.
// Nodes serialize name-sorted, so the export is deterministic.
func (r Report) Snapshot() *stats.Snapshot {
	n := stats.NewSnapshot("tenancy")
	agg := n.Child("aggregate")
	agg.Value("p50_fetch_latency", r.AggP50FetchLatency)
	agg.Value("p99_fetch_latency", r.AggP99FetchLatency)
	agg.Value("mean_ipc_degradation", r.MeanDegradation)
	agg.Value("max_ipc_degradation", r.MaxDegradation)
	agg.Value("mean_slowdown", r.MeanSlowdown)
	agg.Value("max_slowdown", r.MaxSlowdown)
	agg.Counter("global_cycles", r.GlobalCycles)
	agg.Counter("switches", r.Switches)
	agg.Counter("slices", r.Slices)
	agg.Value("slo_p99_fetch_latency", r.SLO.P99FetchLatency)
	agg.Value("slo_max_degradation", r.SLO.MaxDegradation)
	agg.Value("slo_max_slowdown", r.SLO.MaxSlowdown)
	agg.Value("meets_slo", b2f(r.MeetsSLO))
	for i := range r.Tenants {
		tr := &r.Tenants[i]
		c := n.Child(fmt.Sprintf("tenant%02d", i))
		c.Label("bench", tr.Bench)
		c.Label("scheme", tr.Scheme)
		c.Value("ipc", tr.IPC)
		c.Value("solo_ipc", tr.SoloIPC)
		c.Value("ipc_degradation", tr.Degradation)
		c.Value("effective_ipc", tr.EffectiveIPC)
		c.Value("slowdown", tr.Slowdown)
		c.Counter("completion_cycles", tr.CompletionCycles)
		c.Value("p50_fetch_latency", tr.P50FetchLatency)
		c.Value("p99_fetch_latency", tr.P99FetchLatency)
		c.Value("meets_slo", b2f(tr.MeetsSLO))
		c.Counter("fetch_samples", tr.Fetches)
		c.Counter("slices", tr.Slices)
		c.Counter("switches", tr.Switches)
		c.Counter("predictor_flushes", tr.PredictorFlushes)
	}
	return n
}

func b2f(ok bool) float64 {
	if ok {
		return 1
	}
	return 0
}
