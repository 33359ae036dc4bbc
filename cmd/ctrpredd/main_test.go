package main

import (
	"strings"
	"testing"
)

// TestSmokeMode drives the daemon's -smoke self-test: a real listener,
// one streamed job over HTTP, and a cache-hit repeat. This is the same
// check CI runs as its boot smoke step.
func TestSmokeMode(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-smoke", "-workers", "2"}, &out, &errOut); code != 0 {
		t.Fatalf("run -smoke = %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "PASS") {
		t.Fatalf("smoke output missing PASS:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "served from cache") {
		t.Fatalf("smoke output missing cache confirmation:\n%s", out.String())
	}
}

func TestBadFlags(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-definitely-not-a-flag"}, &out, &errOut); code != 2 {
		t.Fatalf("run with bad flag = %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "flag") {
		t.Fatalf("stderr missing usage: %s", errOut.String())
	}
}

// TestWorkersFlagParsing pins the dual-mode -workers flag: a number for
// a local daemon, URLs only under -coordinator, and a helpful error
// when the two are confused.
func TestWorkersFlagParsing(t *testing.T) {
	if n, err := parseWorkerCount(""); err != nil || n != 0 {
		t.Errorf("parseWorkerCount(\"\") = %d, %v; want 0, nil", n, err)
	}
	if n, err := parseWorkerCount("4"); err != nil || n != 4 {
		t.Errorf("parseWorkerCount(\"4\") = %d, %v; want 4, nil", n, err)
	}
	if _, err := parseWorkerCount("http://a:1,http://b:2"); err == nil || !strings.Contains(err.Error(), "-coordinator") {
		t.Errorf("parseWorkerCount(urls) error = %v; want a hint about -coordinator", err)
	}
	if got := splitURLs(" http://a:1, http://b:2 ,"); len(got) != 2 || got[0] != "http://a:1" || got[1] != "http://b:2" {
		t.Errorf("splitURLs = %v; want the two trimmed URLs", got)
	}
	if got := splitURLs(""); got != nil {
		t.Errorf("splitURLs(\"\") = %v; want nil", got)
	}
}

// TestDaemonRejectsURLWorkers: a daemon invocation handed worker URLs
// must refuse with a pointer at -coordinator, not silently serve.
func TestDaemonRejectsURLWorkers(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-workers", "http://a:1,http://b:2"}, &out, &errOut); code != 2 {
		t.Fatalf("run with URL -workers = %d, want 2\nstderr: %s", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "-coordinator") {
		t.Fatalf("stderr missing -coordinator hint: %s", errOut.String())
	}
}

// TestCoordinatorSmokeRejected: the cluster self-test is an
// internal/cluster test; -coordinator -smoke should name it.
func TestCoordinatorSmokeRejected(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-coordinator", "-smoke"}, &out, &errOut); code != 2 {
		t.Fatalf("run -coordinator -smoke = %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "go test ./internal/cluster -run TestClusterConcurrentStreamingClients") {
		t.Fatalf("stderr missing the cluster self-test pointer: %s", errOut.String())
	}
}

// TestCoordinatorRejectsNodeOnlyFlags: -timeout and -pprof configure a
// single node's server; a coordinator must refuse them rather than
// silently ignore them.
func TestCoordinatorRejectsNodeOnlyFlags(t *testing.T) {
	for _, flag := range [][]string{{"-timeout", "30s"}, {"-pprof"}} {
		var out, errOut strings.Builder
		// An unlistenable -addr: a coordinator that accepted the flag
		// exits 1 at its listener instead of serving.
		args := append([]string{"-coordinator", "-addr", "no-port", "-workers", "http://127.0.0.1:1"}, flag...)
		if code := run(args, &out, &errOut); code != 2 {
			t.Fatalf("run %v = %d, want 2", args, code)
		}
		if !strings.Contains(errOut.String(), flag[0]) {
			t.Fatalf("stderr does not name %s: %s", flag[0], errOut.String())
		}
	}
}
