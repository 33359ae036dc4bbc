package main

import (
	"errors"
	"strings"
	"testing"

	"ctrpred"
)

// cli runs ctrsim in-process and returns its exit code and streams.
func cli(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errOut strings.Builder
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// TestFaultsImpliesIntegrity pins the CLI contract that -faults arms the
// integrity layer even without -integrity: under the default halt
// policy, an injected bit flip must be *detected* (exit 3, a security
// halt), which can only happen if the hash tree was attached.
func TestFaultsImpliesIntegrity(t *testing.T) {
	code, stdout, stderr := cli(t,
		"-bench", "mcf", "-scheme", "baseline",
		"-instr", "200000", "-footprint", "64K",
		"-faults", "bitflip@fetch:100")
	if code != 3 {
		t.Fatalf("exit = %d, want 3 (security halt)\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	if !strings.Contains(stderr, "halted") {
		t.Fatalf("stderr does not report the halt: %q", stderr)
	}
	if !strings.Contains(stdout, "attacks injected/detected") {
		t.Fatalf("stdout missing the fault report:\n%s", stdout)
	}
}

// TestFaultsWithQuarantineRecovers is the same attack under -recovery
// quarantine: the run must complete (exit 0) and report the recovery
// counters.
func TestFaultsWithQuarantineRecovers(t *testing.T) {
	code, stdout, stderr := cli(t,
		"-bench", "mcf", "-scheme", "baseline",
		"-instr", "200000", "-footprint", "64K",
		"-faults", "bitflip@fetch:100", "-recovery", "quarantine")
	if code != 0 {
		t.Fatalf("exit = %d, want 0\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	if !strings.Contains(stdout, "quarantined/retries/healed") {
		t.Fatalf("stdout missing the recovery report:\n%s", stdout)
	}
}

// TestUnknownRecoveryFailsFast pins that a bad -recovery value is a
// usage error before any simulation runs.
func TestUnknownRecoveryFailsFast(t *testing.T) {
	code, stdout, stderr := cli(t,
		"-bench", "mcf", "-instr", "200000", "-footprint", "64K",
		"-recovery", "pray")
	if code != 2 {
		t.Fatalf("exit = %d, want 2\nstderr:\n%s", code, stderr)
	}
	if !strings.Contains(stderr, "recovery") {
		t.Fatalf("stderr does not name the bad flag: %q", stderr)
	}
	if strings.Contains(stdout, "benchmark") {
		t.Fatalf("a simulation ran despite the usage error:\n%s", stdout)
	}
}

func TestUnknownModeAndSchemeFailFast(t *testing.T) {
	if code, _, stderr := cli(t, "-mode", "sideways"); code != 2 || !strings.Contains(stderr, "mode") {
		t.Fatalf("bad -mode: exit %d, stderr %q", code, stderr)
	}
	if code, _, stderr := cli(t, "-scheme", "frob"); code != 2 || !strings.Contains(stderr, "frob") {
		t.Fatalf("bad -scheme: exit %d, stderr %q", code, stderr)
	}
}

// TestUnknownEngineFailsFast: a bad -engine spec exits 2 before any
// simulation runs, and a valid non-default spec is accepted end to end.
func TestUnknownEngineFailsFast(t *testing.T) {
	code, stdout, stderr := cli(t, "-engine", "quantum")
	if code != 2 || !strings.Contains(stderr, "quantum") {
		t.Fatalf("bad -engine: exit %d, stderr %q", code, stderr)
	}
	if strings.Contains(stdout, "benchmark") {
		t.Fatalf("a simulation ran despite the bad engine:\n%s", stdout)
	}
	if code, _, stderr := cli(t, "-engine", "sealer:warp=9"); code != 2 || !strings.Contains(stderr, "warp") {
		t.Fatalf("bad engine parameter: exit %d, stderr %q", code, stderr)
	}
	code, stdout, stderr = cli(t, "-engine", "bipbip",
		"-bench", "mcf", "-instr", "20000", "-footprint", "64K")
	if code != 0 {
		t.Fatalf("bipbip run: exit %d, stderr %q", code, stderr)
	}
	if !strings.Contains(stdout, "IPC") {
		t.Fatalf("bipbip run produced no report:\n%s", stdout)
	}
}

// TestVerboseTimingLines: -v prints the engine, DRAM, fetch-latency and
// decrypt-exposure lines for a performance run only. A hit-rate run
// books no time, so it prints the rest of the detail without them.
func TestVerboseTimingLines(t *testing.T) {
	timing := []string{"engine issued", "DRAM r/w", "fetch latency", "decrypt exposure"}
	for _, tc := range []struct {
		mode       string
		wantTiming bool
	}{{"performance", true}, {"hitrate", false}} {
		t.Run(tc.mode, func(t *testing.T) {
			code, stdout, stderr := cli(t, "-bench", "mcf", "-scheme", "pred-context", "-mode", tc.mode,
				"-instr", "20000", "-footprint", "64K", "-v")
			if code != 0 {
				t.Fatalf("exit %d, stderr %q", code, stderr)
			}
			if !strings.Contains(stdout, "counter-buffer hits") || !strings.Contains(stdout, "flushes (lines)") {
				t.Fatalf("-v detail missing:\n%s", stdout)
			}
			for _, line := range timing {
				if got := strings.Contains(stdout, line); got != tc.wantTiming {
					t.Errorf("%q printed = %v, want %v:\n%s", line, got, tc.wantTiming, stdout)
				}
			}
		})
	}
}

func TestParseSize(t *testing.T) {
	cases := map[string]int{
		"256":  256,
		"4K":   4 << 10,
		"4k":   4 << 10,
		"1M":   1 << 20,
		"16m":  16 << 20,
		"512K": 512 << 10,
	}
	for in, want := range cases {
		got, err := ctrpred.ParseSize(in)
		if err != nil || got != want {
			t.Errorf("ParseSize(%q) = %d, %v; want %d", in, got, err, want)
		}
	}
	for _, bad := range []string{"", "K", "-4K", "0", "abc", "4G"} {
		if _, err := ctrpred.ParseSize(bad); err == nil {
			t.Errorf("ParseSize(%q) succeeded", bad)
		}
	}
}

func TestParseScheme(t *testing.T) {
	good := map[string]string{
		"baseline":      "baseline",
		"oracle":        "oracle",
		"direct":        "direct",
		"pred-regular":  "pred-regular",
		"pred-twolevel": "pred-two-level",
		"pred-context":  "pred-context",
		"seqcache:128K": "seqcache-128K",
		"combined:32K":  "seqcache-32K+pred-regular",
	}
	for in, wantName := range good {
		s, err := ctrpred.ParseScheme(in)
		if err != nil {
			t.Errorf("ParseScheme(%q): %v", in, err)
			continue
		}
		if s.Name != wantName {
			t.Errorf("ParseScheme(%q).Name = %q, want %q", in, s.Name, wantName)
		}
	}
	for _, bad := range []string{"", "pred", "seqcache:", "seqcache:x", "combined:", "frob"} {
		if _, err := ctrpred.ParseScheme(bad); err == nil {
			t.Errorf("ParseScheme(%q) succeeded", bad)
		}
	}
	// Unparsable specs (other than bad sizes) wrap the sentinel.
	if _, err := ctrpred.ParseScheme("frob"); !errors.Is(err, ctrpred.ErrUnknownScheme) {
		t.Errorf("ParseScheme(\"frob\") = %v, want errors.Is(err, ErrUnknownScheme)", err)
	}
}
