package experiments

import (
	"bytes"
	"context"
	"testing"

	"ctrpred/internal/workload"
)

// tenancyOpts keeps the tenancy experiment tests fast: two benchmarks,
// small windows (the footprint is pinned by the experiment itself).
func tenancyOpts() Options {
	return Options{
		Scale:      workload.Scale{Footprint: 1 << 20, Instructions: 20_000},
		Benchmarks: []string{"gzip", "mcf"},
		Seed:       3,
		MaxTenants: 4,
	}
}

// TestTenantsShape checks the interference matrix's internal
// consistency: solo IPC is an upper bound on in-mix IPC, contention
// makes every slowdown exceed 1, and the adversarial co-tenant (burning
// its slices on quarantine recovery) delays the victim at least as much
// as the clean one.
func TestTenantsShape(t *testing.T) {
	res, err := Tenants(context.Background(), tenancyOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range tenantsColumns {
		if _, ok := res.Series[name]; !ok {
			t.Fatalf("series %q missing", name)
		}
		if _, ok := res.Series[name]["Average"]; !ok {
			t.Fatalf("series %q has no Average row", name)
		}
	}
	for _, bench := range tenancyOpts().Benchmarks {
		solo := res.Series["Solo_IPC"][bench]
		mix := res.Series["Mix_IPC"][bench]
		if solo <= 0 || mix <= 0 {
			t.Errorf("%s: non-positive IPC: solo %.4f mix %.4f", bench, solo, mix)
		}
		if mix > solo {
			t.Errorf("%s: in-mix IPC %.4f exceeds solo %.4f", bench, mix, solo)
		}
		if s := res.Series["Mix_Slowdown"][bench]; s <= 1 {
			t.Errorf("%s: mix slowdown %.3f not above 1 despite contention", bench, s)
		}
		if adv, mixS := res.Series["Adv_Slowdown"][bench], res.Series["Mix_Slowdown"][bench]; adv < mixS {
			t.Errorf("%s: adversarial slowdown %.3f below clean-mix slowdown %.3f", bench, adv, mixS)
		}
		if p99 := res.Series["Mix_p99_Fetch"][bench]; p99 <= 0 {
			t.Errorf("%s: p99 fetch latency %.1f not positive", bench, p99)
		}
	}
}

// TestTenantsDeterministicAcrossWorkers: the matrix's snapshot is
// byte-identical between a sequential and a four-worker sweep.
func TestTenantsDeterministicAcrossWorkers(t *testing.T) {
	seq := tenancyOpts()
	seq.Workers = 1
	par := tenancyOpts()
	par.Workers = 4
	a, err := Tenants(context.Background(), seq)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Tenants(context.Background(), par)
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
		t.Errorf("tenants snapshot differs between -j 1 and -j 4:\n%s\nvs\n%s", ja, jb)
	}
}

// TestCapacityDeterministicAcrossWorkers: the capacity search over a
// tiny grid (experiments -exp capacity -bench gzip -instr 5000
// -maxtenants 3) exports a byte-identical snapshot whether its probes
// run sequentially or on four workers.
func TestCapacityDeterministicAcrossWorkers(t *testing.T) {
	opt := DefaultOptions()
	opt.Benchmarks = []string{"gzip"}
	opt.Scale.Instructions = 5_000
	opt.MaxTenants = 3
	var snaps [2][]byte
	for i, workers := range []int{1, 4} {
		opt.Workers = workers
		res, err := ByID(context.Background(), "capacity", opt)
		if err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		if snaps[i], err = res.Snapshot().JSON(); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(snaps[0], snaps[1]) {
		t.Errorf("capacity snapshot differs between 1 and 4 workers:\n%s\nvs\n%s", snaps[0], snaps[1])
	}
}

// TestCapacityConverges pins the capacity search's contract: for a
// fixed seed and SLO the search lands on the same tenant count every
// run, an unmeetably tight slowdown bound caps capacity at a single
// tenant (a lone tenant's slowdown is exactly 1), and a bound looser
// than anything the mix can produce saturates at MaxTenants.
func TestCapacityConverges(t *testing.T) {
	opt := tenancyOpts()
	opt.Scale.Instructions = 5_000
	opt.Benchmarks = []string{"gzip"}

	opt.SLOMaxSlowdown = 1 // only a solo run is exactly 1
	res, err := Capacity(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	again, err := Capacity(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, col := range partitionColumns["capacity"] {
		got := res.Series[col]["gzip"]
		if got != 1 {
			t.Errorf("slowdown-1 SLO: capacity[%s] = %v, want 1", col, got)
		}
		if r := again.Series[col]["gzip"]; r != got {
			t.Errorf("capacity[%s] not reproducible: %v then %v", col, got, r)
		}
	}

	opt.SLOMaxSlowdown = 1e6 // effectively unconstrained
	res, err = Capacity(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, col := range partitionColumns["capacity"] {
		if got := res.Series[col]["gzip"]; got != float64(opt.MaxTenants) {
			t.Errorf("loose SLO: capacity[%s] = %v, want MaxTenants %d", col, got, opt.MaxTenants)
		}
	}
}
