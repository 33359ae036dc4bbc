package tenancy

import (
	"context"
	"testing"

	"ctrpred/internal/predictor"
	"ctrpred/internal/sim"
)

// testTenant builds a small-scale tenant: per-tenant seed, 256K L2,
// modest footprint and budget so the suite stays fast.
func testTenant(bench string, scheme sim.Scheme, seed uint64) Tenant {
	cfg := sim.DefaultConfig(scheme).
		WithFootprint(512 << 10).
		WithInstrBudget(30_000).
		WithSeed(seed)
	cfg.Mem.FlushInterval = 0 // slices drive all eviction traffic
	return Tenant{Bench: bench, Config: cfg}
}

func testConfig() Config {
	return Config{
		Tenants: []Tenant{
			testTenant("gzip", sim.SchemeCombined(32<<10, predictor.SchemeRegular), 11),
			testTenant("mcf", sim.SchemePred(predictor.SchemeContext), 12),
		},
		Seed:    99,
		Quantum: 5000,
	}
}

// TestRunDeterministic: the same scenario snapshots identically across
// two runs.
func TestRunDeterministic(t *testing.T) {
	a, err := Run(context.Background(), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	ja, err := a.Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	jb, err := b.Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(ja) != string(jb) {
		t.Errorf("snapshots differ across identical runs:\n%s\nvs\n%s", ja, jb)
	}
}

// TestRunReportShape checks the SLO metrics are populated and mutually
// consistent: every tenant has fetch samples whose count matches its
// controller's own fetch-latency histogram (exact-sample attribution),
// percentiles are ordered, and interleaving actually degraded IPC
// relative to the solo baseline.
func TestRunReportShape(t *testing.T) {
	rep, err := Run(context.Background(), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Tenants) != 2 {
		t.Fatalf("got %d tenant reports, want 2", len(rep.Tenants))
	}
	if rep.Switches == 0 || rep.Slices < rep.Switches {
		t.Errorf("implausible schedule accounting: %d switches over %d slices", rep.Switches, rep.Slices)
	}
	for i, tr := range rep.Tenants {
		if tr.Fetches == 0 {
			t.Errorf("tenant %d (%s): no fetch samples", i, tr.Bench)
		}
		if tr.Fetches != tr.Result.Ctrl.FetchLatency.Total {
			t.Errorf("tenant %d (%s): %d samples vs histogram total %d — attribution leak",
				i, tr.Bench, tr.Fetches, tr.Result.Ctrl.FetchLatency.Total)
		}
		if tr.P50FetchLatency > tr.P99FetchLatency {
			t.Errorf("tenant %d (%s): p50 %.0f > p99 %.0f", i, tr.Bench, tr.P50FetchLatency, tr.P99FetchLatency)
		}
		if tr.SoloIPC <= 0 || tr.IPC <= 0 {
			t.Errorf("tenant %d (%s): IPC %.3f solo %.3f", i, tr.Bench, tr.IPC, tr.SoloIPC)
		}
		if tr.Degradation < 0 || tr.Degradation >= 1 {
			t.Errorf("tenant %d (%s): degradation %.3f outside [0,1)", i, tr.Bench, tr.Degradation)
		}
		// Waiting behind the other tenant can only hurt: effective IPC is
		// bounded by the tenant's own IPC, and with two contending tenants
		// the end-to-end slowdown must exceed 1.
		if tr.EffectiveIPC > tr.IPC {
			t.Errorf("tenant %d (%s): effective IPC %.3f exceeds own IPC %.3f", i, tr.Bench, tr.EffectiveIPC, tr.IPC)
		}
		if tr.Slowdown <= 1 {
			t.Errorf("tenant %d (%s): slowdown %.3f not above 1 despite contention", i, tr.Bench, tr.Slowdown)
		}
		if tr.CompletionCycles == 0 || tr.CompletionCycles > rep.GlobalCycles {
			t.Errorf("tenant %d (%s): completion %d outside (0, %d]", i, tr.Bench, tr.CompletionCycles, rep.GlobalCycles)
		}
	}
	// Predictors are not retained by default, so every switch flushes
	// the switched-in tenant's predictor.
	if rep.Tenants[1].PredictorFlushes != rep.Tenants[1].Switches {
		t.Errorf("flush-policy accounting: %d flushes vs %d switches",
			rep.Tenants[1].PredictorFlushes, rep.Tenants[1].Switches)
	}
}

// TestInterleavedAttribution is the per-tenant stat-attribution
// regression test (the PR 5 Predictor.Observe fix's shape, lifted to
// whole machines): a tenant interleaved with another tenant whose
// address stream is entirely disjoint (its own machine, its own key
// domain) must report *exactly* the statistics of the same machine run
// alone with the same slice boundaries and the same switch-in
// disturbances. Any counter that lands on the wrong tenant's machine —
// predictor observations, seqcache touches, fetch latencies — breaks
// byte-identity here.
func TestInterleavedAttribution(t *testing.T) {
	cfg := testConfig()
	rep, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Replay tenant 0's exact call sequence on a fresh machine, without
	// tenant 1 executing at all.
	const victim = 0
	budgets := []uint64{
		cfg.Tenants[0].Config.Scale.Instructions,
		cfg.Tenants[1].Config.Scale.Instructions,
	}
	schedule := BuildSchedule(ScheduleConfig{
		Budgets: budgets, Quantum: cfg.Quantum, Kind: cfg.Kind, Seed: cfg.Seed,
	})
	m, err := sim.NewMachine(cfg.Tenants[victim].Bench, cfg.Tenants[victim].Config)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	last := -1
	halted := false
	for _, sl := range schedule {
		if sl.Tenant != victim {
			last = sl.Tenant
			continue
		}
		if halted {
			continue
		}
		if last >= 0 && last != victim {
			m.SwitchIn(cfg.RetainPredictor)
		}
		more, err := m.RunSliceContext(context.Background(), m.Core.Committed()+sl.Length)
		if err != nil {
			t.Fatal(err)
		}
		halted = !more
		last = victim
	}
	solo := m.Finish()

	got, err := snapshotJSON(rep.Tenants[victim].Result)
	if err != nil {
		t.Fatal(err)
	}
	want, err := snapshotJSON(solo)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("interleaved tenant's stats differ from its solo replay — cross-tenant attribution leak:\n--- interleaved ---\n%s\n--- solo replay ---\n%s", got, want)
	}
}

func snapshotJSON(r sim.Result) ([]byte, error) {
	return r.Snapshot().JSON()
}

// TestRunHonorsSLO: a bound nothing can meet fails the report; an
// unconstrained SLO passes it.
func TestRunHonorsSLO(t *testing.T) {
	cfg := testConfig()
	rep, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.MeetsSLO {
		t.Error("unconstrained SLO reported as missed")
	}
	cfg.SLO = SLO{P99FetchLatency: 1} // one cycle: unmeetable
	rep, err = Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MeetsSLO {
		t.Error("1-cycle p99 SLO reported as met")
	}
	// A slowdown bound of exactly 1 is unmeetable with two contending
	// tenants: each must wait for the other at least once.
	cfg.SLO = SLO{MaxSlowdown: 1}
	rep, err = Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MeetsSLO {
		t.Error("slowdown-1 SLO reported as met under contention")
	}
}

// TestSoloIPCPassthrough: supplied baselines skip the solo runs and
// land verbatim in the report.
func TestSoloIPCPassthrough(t *testing.T) {
	cfg := testConfig()
	cfg.SoloIPC = []float64{0.5, 0.25}
	rep, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Tenants[0].SoloIPC != 0.5 || rep.Tenants[1].SoloIPC != 0.25 {
		t.Errorf("SoloIPC not passed through: %v, %v", rep.Tenants[0].SoloIPC, rep.Tenants[1].SoloIPC)
	}
}
