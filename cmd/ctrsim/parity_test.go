package main

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ctrpred/internal/server"
)

// TestRunParity runs each spec through ctrsim (with -metrics -) and
// through POST /v1/sim. Both fronts resolve through spec.Run, so the
// snapshots must be byte-identical, including rows where the flags
// leave flush, seed or the instruction budget at their defaults and the
// body omits them.
func TestRunParity(t *testing.T) {
	s := server.New(server.Config{Workers: 2})
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx)
		ts.Close()
	})
	cases := []struct {
		name string
		args []string
		body string
	}{
		{"swim-omits-flush-and-seed",
			[]string{"-bench", "swim", "-scheme", "pred-context", "-instr", "200000", "-footprint", "256K"},
			`{"bench":"swim","scheme":"pred-context","instructions":200000,"footprint":"256K"}`},
		{"mcf-seed-zero",
			[]string{"-bench", "mcf", "-scheme", "baseline", "-instr", "30000", "-footprint", "64K", "-seed", "0"},
			`{"bench":"mcf","scheme":"baseline","instructions":30000,"footprint":"64K"}`},
		{"gzip-oracle-hitrate-flush",
			[]string{"-bench", "gzip", "-scheme", "oracle", "-mode", "hitrate", "-instr", "50000", "-footprint", "256K", "-flush", "5000"},
			`{"bench":"gzip","scheme":"oracle","mode":"hitrate","instructions":50000,"footprint":"256K","flush_interval":5000}`},
		{"gcc-seqcache-l2-1M",
			[]string{"-bench", "gcc", "-scheme", "seqcache:32K", "-l2", "1M", "-instr", "40000", "-footprint", "128K", "-seed", "5"},
			`{"bench":"gcc","scheme":"seqcache:32K","l2":"1M","instructions":40000,"footprint":"128K","seed":5}`},
		{"bzip2-twolevel-sealer",
			[]string{"-bench", "bzip2", "-scheme", "pred-twolevel", "-engine", "sealer:banks=4", "-instr", "30000", "-footprint", "128K"},
			`{"bench":"bzip2","scheme":"pred-twolevel","engine":"sealer:banks=4","instructions":30000,"footprint":"128K"}`},
		{"twolf-combined-bipbip-hitrate",
			[]string{"-bench", "twolf", "-scheme", "combined:32K", "-engine", "bipbip", "-mode", "hitrate", "-instr", "50000", "-footprint", "128K"},
			`{"bench":"twolf","scheme":"combined:32K","engine":"bipbip","mode":"hitrate","instructions":50000,"footprint":"128K"}`},
		{"swim-direct-integrity",
			[]string{"-bench", "swim", "-scheme", "direct", "-integrity", "-instr", "30000", "-footprint", "128K"},
			`{"bench":"swim","scheme":"direct","integrity":true,"instructions":30000,"footprint":"128K"}`},
		{"gzip-faults-quarantine",
			[]string{"-bench", "gzip", "-scheme", "pred-regular", "-instr", "60000", "-footprint", "64K",
				"-faults", "bitflip@fetch:50", "-recovery", "quarantine", "-retry-budget", "3"},
			`{"bench":"gzip","scheme":"pred-regular","instructions":60000,"footprint":"64K","faults":"bitflip@fetch:50","recovery":"quarantine","retry_budget":3}`},
		{"art-instr-zero-hitrate",
			[]string{"-bench", "art", "-scheme", "pred-context", "-mode", "hitrate", "-instr", "0", "-footprint", "64K"},
			`{"bench":"art","scheme":"pred-context","mode":"hitrate","footprint":"64K"}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr := cli(t, append(tc.args, "-metrics", "-")...)
			if code != 0 {
				t.Fatalf("ctrsim exit %d\nstderr:\n%s", code, stderr)
			}
			// The report lines carry no braces; the snapshot follows them.
			viaCLI := stdout[strings.Index(stdout, "{"):]

			resp, err := http.Post(ts.URL+"/v1/sim", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			viaHTTP, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("/v1/sim status %d: %s", resp.StatusCode, viaHTTP)
			}
			if viaCLI != string(viaHTTP) {
				t.Fatalf("snapshots differ\nctrsim:   %.300s\n/v1/sim:  %.300s", viaCLI, viaHTTP)
			}
		})
	}
}

// TestOmittedFlushIsTable1: with -flush omitted a run flushes every 25M
// cycles, exactly as if the interval were spelled, and -flush still
// overrides it.
func TestOmittedFlushIsTable1(t *testing.T) {
	args := []string{"-bench", "swim", "-scheme", "pred-context", "-instr", "100000", "-footprint", "256K", "-metrics", "-"}
	_, omitted, _ := cli(t, args...)
	_, spelled, _ := cli(t, append(args, "-flush", "25000000")...)
	_, scaled, _ := cli(t, append(args, "-flush", "10000")...)
	if omitted == "" || omitted != spelled {
		t.Fatalf("omitted -flush differs from -flush 25000000:\n%.400s\nvs\n%.400s", omitted, spelled)
	}
	if scaled == omitted {
		t.Fatal("-flush 10000 did not change the run")
	}
}

// TestBadSpecFailsFast: cache geometries the model cannot build and
// negative SLO bounds are usage errors (exit 2) before any simulation
// runs, not panics inside one.
func TestBadSpecFailsFast(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-l2", "3K"}, "24 sets is not a power of two"},
		{[]string{"-l2", "100"}, "l2"},
		{[]string{"-scheme", "seqcache:1"}, "size 1 not a multiple of line size 32"},
		{[]string{"-scheme", "combined:96"}, "not a power of two"},
		{[]string{"-bench", "nope"}, "valid: ammp"},
		{[]string{"-tenants", "gzip,mcf", "-slo-slowdown", "-1"}, "slowdown"},
		{[]string{"-tenants", "gzip,mcf", "-slo-p99", "-5"}, "p99"},
		{[]string{"-tenants", "gzip,nope"}, "nope"},
	}
	for _, tc := range cases {
		code, stdout, stderr := cli(t, tc.args...)
		if code != 2 || !strings.Contains(stderr, tc.want) {
			t.Errorf("%v: exit %d, stderr %q; want exit 2 naming %q", tc.args, code, stderr, tc.want)
		}
		if stdout != "" {
			t.Errorf("%v: a simulation ran despite the usage error:\n%s", tc.args, stdout)
		}
	}
}
