package spec

import (
	"errors"
	"flag"
	"math"
	"slices"
	"strings"
	"testing"

	"ctrpred/internal/cryptoengine"
	"ctrpred/internal/experiments"
	"ctrpred/internal/sim"
	"ctrpred/internal/workload"
)

// TestRunResolveDefaults pins the omitted-field rule: an empty spec
// field means the library default, the same on every front.
func TestRunResolveDefaults(t *testing.T) {
	bench, cfg, err := Run{Bench: "mcf", Scheme: "baseline"}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	want := sim.DefaultConfig(sim.SchemeBaseline())
	if bench != "mcf" || sim.Fingerprint(bench, cfg) != sim.Fingerprint("mcf", want) {
		t.Fatalf("omitted fields resolve to %+v, want sim.DefaultConfig", cfg)
	}
	if cfg.Mem.FlushInterval != 25_000_000 || cfg.Seed != 1 || cfg.Scale != workload.DefaultScale() {
		t.Fatalf("flush %d seed %d scale %+v, want 25M, 1 and the default scale",
			cfg.Mem.FlushInterval, cfg.Seed, cfg.Scale)
	}
	spelled := Run{
		Bench: "mcf", Scheme: "baseline", Engine: "aes", L2: "256K", Footprint: "2M",
		Instructions: 2_000_000, Mode: "performance", Seed: 1, FlushInterval: 25_000_000,
		Recovery: "halt",
	}
	_, cfg2, err := spelled.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if sim.Fingerprint("mcf", cfg2) != sim.Fingerprint("mcf", cfg) {
		t.Fatal("spelled defaults fingerprint differently from omitted ones")
	}
}

func TestRunResolveRejects(t *testing.T) {
	ok := Run{Bench: "mcf", Scheme: "baseline"}
	cases := []struct {
		name string
		edit func(*Run)
		want string
	}{
		{"missing bench", func(r *Run) { r.Bench = "" }, `"bench"`},
		{"unknown bench", func(r *Run) { r.Bench = "nope" }, "valid: ammp"},
		{"missing scheme", func(r *Run) { r.Scheme = "" }, `"scheme"`},
		{"bad scheme", func(r *Run) { r.Scheme = "warp-drive" }, "warp-drive"},
		{"seqcache geometry", func(r *Run) { r.Scheme = "seqcache:1" }, "not a multiple of line size"},
		{"combined geometry", func(r *Run) { r.Scheme = "combined:96" }, "not a power of two"},
		{"bad engine", func(r *Run) { r.Engine = "quantum" }, "quantum"},
		{"bad l2", func(r *Run) { r.L2 = "big" }, "l2"},
		{"l2 geometry", func(r *Run) { r.L2 = "3K" }, "24 sets is not a power of two"},
		{"bad footprint", func(r *Run) { r.Footprint = "-1" }, "footprint"},
		{"bad mode", func(r *Run) { r.Mode = "sideways" }, "sideways"},
		{"bad faults", func(r *Run) { r.Faults = "gremlin@fetch:1" }, "gremlin"},
		{"bad recovery", func(r *Run) { r.Recovery = "pray" }, "pray"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := ok
			tc.edit(&r)
			_, _, err := r.Resolve()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Resolve() = %v, want an error containing %q", err, tc.want)
			}
		})
	}
	if _, _, err := (Run{Bench: "nope", Scheme: "baseline"}).Resolve(); !errors.Is(err, workload.ErrUnknownBenchmark) {
		t.Errorf("unknown bench error %v does not wrap ErrUnknownBenchmark", err)
	}
	if _, _, err := (Run{Bench: "mcf", Scheme: "baseline", Engine: "quantum"}).Resolve(); !errors.Is(err, cryptoengine.ErrUnknownEngine) {
		t.Errorf("unknown engine error %v does not wrap ErrUnknownEngine", err)
	}
}

func TestSweepResolveRejects(t *testing.T) {
	ok := Sweep{ID: "capacity"}
	cases := []struct {
		name string
		edit func(*Sweep)
		want string
	}{
		{"missing id", func(s *Sweep) { s.ID = "" }, `"id"`},
		{"unknown id", func(s *Sweep) { s.ID = "fig99" }, "valid: table1"},
		{"unknown bench", func(s *Sweep) { s.Benchmarks = []string{"mcf", "nope"} }, "nope"},
		{"repeated bench", func(s *Sweep) { s.Benchmarks = []string{"gzip", "mcf", "mcf"} }, `"mcf" listed twice`},
		{"bad footprint", func(s *Sweep) { s.Footprint = "huge" }, "footprint"},
		{"bad engine", func(s *Sweep) { s.Engine = "sealer:warp=9" }, "warp"},
		{"bad sim timeout", func(s *Sweep) { s.SimTimeout = "soon" }, "sim_timeout"},
		{"bad arrival", func(s *Sweep) { s.Arrival = "stampede" }, "stampede"},
		{"negative max tenants", func(s *Sweep) { s.MaxTenants = -1 }, "max_tenants"},
		{"negative slowdown", func(s *Sweep) { s.SLOMaxSlowdown = -1 }, "slowdown"},
		{"negative p99", func(s *Sweep) { s.SLOP99Fetch = -0.5 }, "p99"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := ok
			tc.edit(&s)
			if _, err := s.Resolve(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Resolve() = %v, want an error containing %q", err, tc.want)
			}
			if _, err := s.CacheKey(); err == nil {
				t.Fatal("CacheKey accepted a spec Resolve rejects")
			}
		})
	}
	if _, err := (Sweep{ID: "fig99"}).Resolve(); !errors.Is(err, experiments.ErrUnknownExperiment) {
		t.Errorf("unknown id error %v does not wrap ErrUnknownExperiment", err)
	}
}

func TestSLO(t *testing.T) {
	slo, err := SLO(2, 500)
	if err != nil || slo.MaxSlowdown != 2 || slo.P99FetchLatency != 500 {
		t.Fatalf("SLO(2, 500) = %+v, %v", slo, err)
	}
	if _, err := SLO(0, 0); err != nil {
		t.Fatalf("zero bounds rejected: %v", err)
	}
	for _, bad := range [][2]float64{{-1, 0}, {0, -1}, {math.NaN(), 0}, {0, math.NaN()}} {
		if _, err := SLO(bad[0], bad[1]); err == nil {
			t.Errorf("SLO(%v, %v) accepted", bad[0], bad[1])
		}
	}
}

// flagNames lists the flags a Bind registers.
func flagNames(fs *flag.FlagSet) []string {
	var names []string
	fs.VisitAll(func(f *flag.Flag) { names = append(names, f.Name) })
	return names
}

// TestRunBindCoversTheFingerprint: Run.Bind registers exactly the
// result-determining flags, and setting any one of them away from its
// default moves the run's fingerprint.
func TestRunBindCoversTheFingerprint(t *testing.T) {
	base := Run{Bench: "mcf", Scheme: "baseline", Instructions: 1000, Footprint: "64K", Seed: 1}
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	base.Bind(fs)
	want := []string{"bench", "engine", "faults", "flush", "footprint", "instr", "integrity",
		"l2", "mode", "recovery", "retry-budget", "scheme", "seed"}
	if got := flagNames(fs); !slices.Equal(got, want) {
		t.Fatalf("Bind registered %v, want %v", got, want)
	}
	bench, cfg, err := base.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	baseKey := sim.Fingerprint(bench, cfg)
	moved := map[string]string{
		"bench": "gzip", "engine": "bipbip", "faults": "bitflip@fetch:9", "flush": "5000",
		"footprint": "128K", "instr": "2000", "integrity": "true", "l2": "1M", "mode": "hitrate",
		"recovery": "quarantine", "retry-budget": "5", "scheme": "pred-context", "seed": "2",
	}
	for name, value := range moved {
		r := base
		fs := flag.NewFlagSet("run", flag.ContinueOnError)
		r.Bind(fs)
		if err := fs.Parse([]string{"-" + name, value}); err != nil {
			t.Fatalf("-%s %s: %v", name, value, err)
		}
		bench, cfg, err := r.Resolve()
		if err != nil {
			t.Fatalf("-%s %s: %v", name, value, err)
		}
		if sim.Fingerprint(bench, cfg) == baseKey {
			t.Errorf("-%s %s left the fingerprint unchanged", name, value)
		}
	}
}

// TestSweepBindCoversTheKey is the sweep analogue: Sweep.Bind registers
// exactly the flags the sweep key hashes (for capacity, the experiment
// every tenancy knob steers), and each one moves the key.
func TestSweepBindCoversTheKey(t *testing.T) {
	base := Sweep{ID: "capacity", Benchmarks: []string{"gzip"}, Instructions: 5000}
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	base.Bind(fs)
	want := []string{"arrival", "bench", "engine", "footprint", "instr", "maxtenants",
		"seed", "slo-p99", "slo-slowdown"}
	if got := flagNames(fs); !slices.Equal(got, want) {
		t.Fatalf("Bind registered %v, want %v", got, want)
	}
	baseKey, err := base.CacheKey()
	if err != nil {
		t.Fatal(err)
	}
	moved := map[string]string{
		"arrival": "bursty", "bench": "gzip,mcf", "engine": "sealer", "footprint": "1M",
		"instr": "6000", "maxtenants": "3", "seed": "4", "slo-p99": "800", "slo-slowdown": "2",
	}
	for name, value := range moved {
		s := base
		fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
		s.Bind(fs)
		if err := fs.Parse([]string{"-" + name, value}); err != nil {
			t.Fatalf("-%s %s: %v", name, value, err)
		}
		key, err := s.CacheKey()
		if err != nil {
			t.Fatalf("-%s %s: %v", name, value, err)
		}
		if key == baseKey {
			t.Errorf("-%s %s left the sweep key unchanged", name, value)
		}
	}
}

func TestSweepBenchFlag(t *testing.T) {
	var s Sweep
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	fs.SetOutput(new(strings.Builder))
	s.Bind(fs)
	if err := fs.Parse([]string{"-bench", " mcf, ,gzip "}); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(s.Benchmarks, []string{"mcf", "gzip"}) {
		t.Fatalf("-bench parsed to %q", s.Benchmarks)
	}
	if err := fs.Parse([]string{"-bench", " , "}); err == nil {
		t.Fatal("an empty -bench list was accepted")
	}
}
