package ctrpred

import (
	"context"
	"errors"
	"testing"
)

func quickConfig(s Scheme) Config {
	cfg := DefaultConfig(s)
	cfg.Scale = Scale{Footprint: 256 << 10, Instructions: 40_000}
	cfg.Mem.L2Size = 16 << 10
	cfg.Mem.FlushInterval = 20_000
	return cfg
}

func TestFacadeRun(t *testing.T) {
	res, err := Run("mcf", quickConfig(SchemePred(PredContext)))
	if err != nil {
		t.Fatal(err)
	}
	if res.IPC() <= 0 || res.PredRate() <= 0 {
		t.Fatalf("IPC=%v PredRate=%v", res.IPC(), res.PredRate())
	}
}

func TestFacadeBenchmarks(t *testing.T) {
	if len(Benchmarks()) != 14 {
		t.Fatalf("Benchmarks() = %d entries", len(Benchmarks()))
	}
	cat := BenchmarkCatalog()
	if len(cat) != 14 {
		t.Fatalf("catalog has %d entries", len(cat))
	}
	for _, b := range cat {
		if b.Name == "" || b.Description == "" {
			t.Fatalf("incomplete catalog entry %+v", b)
		}
	}
}

func TestFacadeSchemes(t *testing.T) {
	if SchemeBaseline().Name != "baseline" || SchemeOracle().Name != "oracle" {
		t.Fatal("scheme constructors broken")
	}
	if SchemeSeqCache(4<<10).SeqCacheBytes != 4<<10 {
		t.Fatal("seq cache size not plumbed")
	}
	if SchemeCombined(32<<10, PredRegular).Pred != PredRegular {
		t.Fatal("combined scheme not plumbed")
	}
	if DefaultPredConfig().Depth != 5 {
		t.Fatal("default pred config wrong")
	}
}

func TestFacadeExperiment(t *testing.T) {
	opt := DefaultOptions()
	opt.Benchmarks = []string{"mcf"}
	opt.Scale = Scale{Footprint: 256 << 10, Instructions: 30_000}
	res, err := RunExperiment("fig7", opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.ID != "Figure 7" || res.Table.NumRows() != 2 {
		t.Fatalf("experiment result %q rows=%d", res.ID, res.Table.NumRows())
	}
	if _, err := RunExperiment("bogus", opt); err == nil {
		t.Fatal("bogus experiment id accepted")
	}
	if len(ExperimentIDs()) != 22 {
		t.Fatalf("ExperimentIDs() = %d", len(ExperimentIDs()))
	}
}

func TestFacadeSentinels(t *testing.T) {
	if _, err := Run("nonesuch", quickConfig(SchemeBaseline())); !errors.Is(err, ErrUnknownBenchmark) {
		t.Fatalf("Run(nonesuch) = %v, want errors.Is(err, ErrUnknownBenchmark)", err)
	}
	if _, err := RunExperiment("bogus", DefaultOptions()); !errors.Is(err, ErrUnknownExperiment) {
		t.Fatalf("RunExperiment(bogus) = %v, want errors.Is(err, ErrUnknownExperiment)", err)
	}
	if _, err := ParseScheme("frob"); !errors.Is(err, ErrUnknownScheme) {
		t.Fatalf("ParseScheme(frob) = %v, want errors.Is(err, ErrUnknownScheme)", err)
	}
	if _, err := ParseEngine("quantum"); !errors.Is(err, ErrUnknownEngine) {
		t.Fatalf("ParseEngine(quantum) = %v, want errors.Is(err, ErrUnknownEngine)", err)
	}
	cfg := quickConfig(SchemeBaseline())
	cfg.Engine = EngineSpec{Model: "quantum"}
	if _, err := Run("mcf", cfg); !errors.Is(err, ErrUnknownEngine) {
		t.Fatalf("Run with unknown engine = %v, want errors.Is(err, ErrUnknownEngine)", err)
	}
}

func TestFacadeRunContext(t *testing.T) {
	res, err := RunContext(context.Background(), "mcf", quickConfig(SchemeBaseline()))
	if err != nil {
		t.Fatal(err)
	}
	if res.CPU.Instructions == 0 {
		t.Fatal("RunContext executed nothing")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunContext(ctx, "mcf", quickConfig(SchemeBaseline())); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled RunContext = %v, want context.Canceled", err)
	}
}

func TestFacadeSnapshot(t *testing.T) {
	res, err := Run("mcf", quickConfig(SchemePred(PredRegular)))
	if err != nil {
		t.Fatal(err)
	}
	snap := res.Snapshot()
	cpu := snap.Lookup("cpu")
	if cpu == nil {
		t.Fatal("snapshot missing cpu node")
	}
	if v, ok := cpu.CounterValue("instructions"); !ok || v != res.CPU.Instructions {
		t.Fatalf("snapshot instructions = %d, %v; want %d", v, ok, res.CPU.Instructions)
	}
	if _, err := snap.JSON(); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeMachine(t *testing.T) {
	m, err := NewMachine("swim", quickConfig(SchemeBaseline()))
	if err != nil {
		t.Fatal(err)
	}
	if m.Core == nil || m.Ctrl == nil || m.Sys == nil {
		t.Fatal("machine components missing")
	}
	res := m.Run()
	if res.CPU.Instructions == 0 {
		t.Fatal("machine run executed nothing")
	}
}
