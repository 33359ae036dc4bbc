package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/runs.golden")

const runsGolden = "runs.golden"

// runCases are the invocations TestRunsGolden freezes. Every one spells
// -flush, so the digests hold across changes to the flush default; the
// last two run the multi-tenant path.
var runCases = []struct {
	name string
	args []string
}{
	{"mcf-pred-context", []string{"-bench", "mcf", "-scheme", "pred-context", "-instr", "30000", "-footprint", "256K", "-flush", "3000"}},
	{"swim-seqcache-hitrate", []string{"-bench", "swim", "-scheme", "seqcache:32K", "-mode", "hitrate", "-instr", "50000", "-footprint", "256K", "-flush", "5000", "-seed", "7"}},
	{"gzip-sealer-l2-integrity", []string{"-bench", "gzip", "-scheme", "baseline", "-engine", "sealer:banks=4", "-l2", "64K", "-instr", "30000", "-footprint", "128K", "-flush", "3000", "-integrity"}},
	{"gzip-faults-quarantine", []string{"-bench", "gzip", "-scheme", "pred-regular", "-instr", "60000", "-footprint", "64K", "-flush", "6000", "-faults", "bitflip@fetch:50", "-recovery", "quarantine"}},
	{"tenants-combined-slo", []string{"-tenants", "gzip,mcf", "-scheme", "combined:32K", "-instr", "20000", "-footprint", "128K", "-flush", "4000", "-quantum", "5000", "-slo-slowdown", "8"}},
	{"tenants-bursty-faults", []string{"-tenants", "gzip,mcf,mcf", "-instr", "20000", "-footprint", "128K", "-flush", "4000", "-arrival", "bursty", "-faults", "bitflip@fetch:200"}},
}

// TestRunsGolden pins ctrsim's full stdout, report and `-metrics -`
// snapshot, for every runCases invocation by sha256 against
// testdata/runs.golden: one "name digest" line per invocation.
// Regenerate with
//
//	go test ./cmd/ctrsim -run TestRunsGolden -update
//
// only when an intentional modeling change alters the numbers.
func TestRunsGolden(t *testing.T) {
	want := map[string]string{}
	if !*updateGolden {
		want = readRunsGolden(t)
	}
	var out bytes.Buffer
	for _, tc := range runCases {
		var digest string
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr := cli(t, append(tc.args, "-metrics", "-")...)
			if code != 0 {
				t.Fatalf("exit %d\nstderr:\n%s", code, stderr)
			}
			sum := sha256.Sum256([]byte(stdout))
			digest = hex.EncodeToString(sum[:])
			if *updateGolden {
				return
			}
			if w, ok := want[tc.name]; !ok {
				t.Errorf("no digest in %s (run with -update)", runsGolden)
			} else if digest != w {
				t.Errorf("stdout digest %s, golden %s", digest, w)
			}
		})
		fmt.Fprintf(&out, "%s %s\n", tc.name, digest)
	}
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join("testdata", runsGolden), out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if len(want) != len(runCases) {
		t.Errorf("%s holds %d digests, want %d (run with -update)", runsGolden, len(want), len(runCases))
	}
}

func readRunsGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", runsGolden))
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, digest, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("malformed golden line %q", sc.Text())
		}
		want[name] = digest
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}
