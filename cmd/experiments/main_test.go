package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"ctrpred/internal/experiments"
	"ctrpred/internal/spec"
	"ctrpred/internal/stats"
	"ctrpred/internal/workload"
)

// cli runs experiments in-process and returns its exit code and streams.
func cli(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errOut strings.Builder
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// TestUsageErrorsFailFast: a bad id, a bad benchmark and a negative
// tenant ceiling each exit 2 naming the problem, before any simulation
// runs (no table on stdout, no progress line on stderr).
func TestUsageErrorsFailFast(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-exp", "fig7,fig99"}, "valid: table1"},
		{[]string{"-exp", " , "}, "no experiments given"},
		{[]string{"-exp", "fig7", "-bench", "mcf,nope"}, "valid: ammp"},
		{[]string{"-exp", "fig7", "-bench", ","}, "no benchmarks given"},
		{[]string{"-exp", "fig7", "-bench", "gzip,mcf,mcf"}, "listed twice"},
		{[]string{"-exp", "capacity", "-maxtenants", "-1"}, "max_tenants"},
		{[]string{"-exp", "capacity", "-slo-slowdown", "-1"}, "slowdown"},
		{[]string{"-exp", "fig7", "-engine", "quantum"}, "quantum"},
	}
	for _, tc := range cases {
		code, stdout, stderr := cli(t, append(tc.args, "-instr", "1000", "-footprint", "64K")...)
		if code != 2 || !strings.Contains(stderr, tc.want) {
			t.Errorf("%v: exit %d, stderr %q; want exit 2 naming %q", tc.args, code, stderr, tc.want)
		}
		if stdout != "" || strings.Contains(stderr, "[1/") {
			t.Errorf("%v: a simulation ran despite the usage error\nstdout: %s\nstderr: %s", tc.args, stdout, stderr)
		}
	}
}

// TestMetricsMatchesByID: the -metrics - export for one tiny id is the
// snapshot experiments.ByID produces for the same options.
func TestMetricsMatchesByID(t *testing.T) {
	code, stdout, stderr := cli(t, "-exp", "fig7", "-bench", "mcf,gzip", "-instr", "5000",
		"-footprint", "64K", "-progress=false", "-metrics", "-")
	if code != 0 {
		t.Fatalf("exit %d\nstderr:\n%s", code, stderr)
	}
	res, err := experiments.ByID(context.Background(), "fig7", experiments.Options{
		Scale:      workload.Scale{Footprint: 64 << 10, Instructions: 5_000},
		Benchmarks: []string{"mcf", "gzip"},
		Seed:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	root := stats.Snapshot{Name: "experiments", Children: []*stats.Snapshot{res.Snapshot()}}
	want, err := root.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(stdout, string(want)) {
		t.Fatalf("-metrics - export is not ByID's snapshot\ngot:\n%.600s\nwant suffix:\n%.600s", stdout, want)
	}
	if !strings.HasPrefix(stdout, res.Table.String()) {
		t.Fatalf("stdout does not open with the figure's table:\n%.400s", stdout)
	}
}

// TestStdoutIsByID: stdout carries each experiment's table and notes as
// experiments.ByID returns them, and nothing that varies from run to
// run; the wall-clock time of each experiment goes to stderr with the
// progress lines.
func TestStdoutIsByID(t *testing.T) {
	ids := []string{"table1", "fig7"}
	args := []string{"-exp", strings.Join(ids, ","), "-bench", "mcf,gzip", "-instr", "5000", "-footprint", "64K"}
	code, stdout, stderr := cli(t, append(args, "-progress=false")...)
	if code != 0 {
		t.Fatalf("exit %d\nstderr:\n%s", code, stderr)
	}
	if stderr != "" {
		t.Errorf("-progress=false wrote to stderr:\n%s", stderr)
	}
	var want strings.Builder
	for _, id := range ids {
		res, err := experiments.ByID(context.Background(), id, experiments.Options{
			Scale:      workload.Scale{Footprint: 64 << 10, Instructions: 5_000},
			Benchmarks: []string{"mcf", "gzip"},
			Seed:       1,
		})
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&want, "%s\npaper shape: %s\n\n", res.Table, res.Notes)
	}
	if stdout != want.String() {
		t.Fatalf("stdout is not ByID's tables and notes\ngot:\n%s\nwant:\n%s", stdout, want.String())
	}
	if _, _, stderr := cli(t, args...); !strings.Contains(stderr, "(Figure 7 regenerated in ") {
		t.Errorf("progress stderr lacks Figure 7's timing line:\n%s", stderr)
	}
}

// TestSweepParity: the flags and the job body of the same sweep resolve
// to equal experiments.Options, defaults included: the command's flag
// defaults mean what an omitted body field means.
func TestSweepParity(t *testing.T) {
	cases := []struct {
		name string
		args []string
		body string
	}{
		{"defaults", nil, `{"id":"fig7"}`},
		{"scaled", []string{"-bench", "mcf,gzip", "-instr", "20000", "-footprint", "1M", "-seed", "5"},
			`{"id":"fig7","benchmarks":["mcf","gzip"],"instructions":20000,"footprint":"1M","seed":5}`},
		{"engine", []string{"-engine", "sealer:banks=4"}, `{"id":"fig7","engine":"sealer:banks=4"}`},
		{"spelled-defaults", []string{"-engine", "aes", "-seed", "0", "-arrival", "poisson"},
			`{"id":"fig7","engine":"aes:lat=96","seed":1}`},
		{"capacity", []string{"-bench", "gzip", "-arrival", "bursty", "-maxtenants", "3", "-slo-slowdown", "2", "-slo-p99", "500"},
			`{"id":"capacity","benchmarks":["gzip"],"arrival":"bursty","max_tenants":3,"slo_max_slowdown":2,"slo_p99_fetch":500}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var body spec.Sweep
			if err := json.Unmarshal([]byte(tc.body), &body); err != nil {
				t.Fatal(err)
			}
			fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
			sw := bindSweep(fs)
			if err := fs.Parse(tc.args); err != nil {
				t.Fatal(err)
			}
			sw.ID = body.ID
			viaFlags, err := sw.Resolve()
			if err != nil {
				t.Fatal(err)
			}
			viaBody, err := body.Resolve()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(viaFlags, viaBody) {
				t.Fatalf("options differ\nflags: %+v\nbody:  %+v", viaFlags, viaBody)
			}
		})
	}
}
