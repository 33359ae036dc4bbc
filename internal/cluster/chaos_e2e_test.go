package cluster

// The chaos end-to-end suite: every schedule internal/chaos can parse,
// thrown at real clusters of 1/2/4 workers, asserting the three
// invariants the hardening work exists for — responses byte-identical
// to a single-node library run, bounded completion (the tests finish),
// and zero goroutine leaks (the helpers wire testutil.VerifyNoLeaks).

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ctrpred/internal/chaos"
	"ctrpred/internal/experiments"
	"ctrpred/internal/server"
	"ctrpred/internal/testutil"
)

// chaosConfig is the coordinator shape every chaos test starts from:
// probing off (timing-free), fast backoff, a budget deep enough that
// count-bounded schedules always converge, breaker cooldown short
// enough that revival is testable.
func chaosConfig() Config {
	return Config{
		ProbeInterval:     -1,
		MaxRetryWait:      50 * time.Millisecond,
		RetryBudget:       10,
		SaturationRetries: 1000,
		BreakerCooldown:   100 * time.Millisecond,
		CellTimeout:       20 * time.Second,
	}
}

// newChaosCluster boots n workers, each behind chaos middleware driven
// by its own injector (seeded seedBase+i so the workers misbehave
// differently), and a coordinator over them.
func newChaosCluster(t *testing.T, n int, schedule string, seedBase uint64, cfg Config) (*Coordinator, *httptest.Server, []*server.Server) {
	t.Helper()
	testutil.VerifyNoLeaks(t)
	sched, err := chaos.Parse(schedule)
	if err != nil {
		t.Fatalf("chaos.Parse(%q): %v", schedule, err)
	}
	handles := make([]*server.Server, n)
	for i := 0; i < n; i++ {
		s := server.New(server.Config{Workers: 2, DrainTimeout: 2 * time.Second})
		handles[i] = s
		ts := httptest.NewServer(chaos.Middleware(chaos.New(sched, seedBase+uint64(i)), s))
		t.Cleanup(func() {
			ts.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			s.Shutdown(ctx)
		})
		cfg.Workers = append(cfg.Workers, ts.URL)
	}
	c := New(cfg)
	ts := httptest.NewServer(c)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		c.Shutdown(ctx)
	})
	return c, ts, handles
}

// referenceBody memoizes single-node library runs per experiment id so
// the matrix does not recompute the same grid for every schedule.
var refMu sync.Mutex
var refBodies = map[string][]byte{}

func referenceBody(t *testing.T, id string) []byte {
	t.Helper()
	refMu.Lock()
	defer refMu.Unlock()
	if b, ok := refBodies[id]; ok {
		return b
	}
	full, err := experiments.ByID(context.Background(), id, referenceOptions())
	if err != nil {
		t.Fatalf("reference run %s: %v", id, err)
	}
	b, err := full.Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	refBodies[id] = b
	return b
}

// TestChaosMatrix is the acceptance matrix: fault schedules × cluster
// topologies, each run asserting the plain response is byte-identical
// to the single-node library run. Plain POST bodies are protected end
// to end by the snapshot digest, so even the corrupt schedules must
// come out clean.
func TestChaosMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos matrix in -short mode")
	}
	cases := []struct {
		name     string
		schedule string
		id       string
		nodes    []int
	}{
		// Count-bounded schedules converge against the budget of 10 no
		// matter where the faults land.
		{"latency", "latency:ms=150,count=2,match=/v1/experiments", "fig7", []int{2}},
		{"error-bursts", "err:p=0.5,status=503,count=4", "fig7", []int{1, 2, 4}},
		{"resets", "reset:count=4,match=/v1/experiments", "fig7", []int{1, 2}},
		{"corrupt", "corrupt:count=4,match=/v1/experiments", "fig7", []int{2}},
		{"truncate", "truncate:bytes=64,count=4,match=/v1/experiments", "fig7", []int{2}},
		{"flapping", "flap:up=3,down=2", "fig7", []int{2, 4}},
		{"mixed", "latency:p=0.3,ms=40,count=6;err:p=0.3,count=3;corrupt:count=2,match=/v1/experiments", "fig7", []int{4}},
		{"engines-grid", "err:p=0.5,count=3;corrupt:count=2,match=/v1/experiments", "engines", []int{2}},
	}
	for _, tc := range cases {
		for _, n := range tc.nodes {
			t.Run(fmt.Sprintf("%s/%dw", tc.name, n), func(t *testing.T) {
				cfg := chaosConfig()
				if tc.name == "latency" {
					cfg.HedgeAfter = 50 * time.Millisecond
				}
				c, ts, _ := newChaosCluster(t, n, tc.schedule, 1000+uint64(n), cfg)
				resp, body := postJSON(t, ts.URL+"/v1/experiments", expRequest(tc.id))
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("chaos run: status %d: %s", resp.StatusCode, body)
				}
				if !bytes.Equal(body, referenceBody(t, tc.id)) {
					t.Error("response under chaos differs from the single-node run")
				}
				snap := c.Snapshot().Lookup("cells")
				if tc.name == "latency" {
					if hedges, _ := snap.CounterValue("hedges"); hedges == 0 {
						t.Error("150 ms injected latency against a 50 ms trigger produced no hedges")
					}
				}
				if tc.name == "corrupt" {
					if cb, _ := snap.CounterValue("corrupt_bodies"); cb == 0 {
						t.Error("corrupt schedule tripped no digest checks")
					}
				}
			})
		}
	}
}

// TestChaosStreamStallFailsOver pins the mid-NDJSON stall path: a
// worker that goes silent mid-stream trips the coordinator's stream
// idle watchdog, fails over, and the client still ends with a result
// byte-identical to a clean worker's.
func TestChaosStreamStallFailsOver(t *testing.T) {
	if testing.Short() {
		t.Skip("stall timing test in -short mode")
	}
	cfg := chaosConfig()
	cfg.StreamIdleTimeout = 300 * time.Millisecond
	c, ts, _ := newChaosCluster(t, 2, "stall:after=2,ms=5000,count=1,match=/v1/sim", 7, cfg)

	simReq := server.SimRequest{
		Bench: "gzip", Scheme: "pred-context",
		Footprint: "1M", Instructions: testInstr, Seed: testSeed,
	}
	body, _ := json.Marshal(simReq)
	resp, err := http.Post(ts.URL+"/v1/sim?stream=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var final server.Event
	dec := json.NewDecoder(resp.Body)
	for {
		var ev server.Event
		if err := dec.Decode(&ev); err != nil {
			break
		}
		final = ev
	}
	if final.Event != "result" {
		t.Fatalf("stream under stall ended with %+v; want result", final)
	}
	if fo, _ := c.Snapshot().Lookup("cells").CounterValue("failovers"); fo == 0 {
		t.Error("a stalled stream produced no failover")
	}

	// Byte-identity: the coordinator's canonical cached body must match
	// a clean worker's plain response.
	_, cleanWorker := newWorker(t, server.Config{})
	respC, viaCluster := postJSON(t, ts.URL+"/v1/sim", simReq)
	respW, direct := postJSON(t, cleanWorker.URL+"/v1/sim", simReq)
	if respC.StatusCode != http.StatusOK || respW.StatusCode != http.StatusOK {
		t.Fatalf("plain follow-ups: cluster %d, worker %d", respC.StatusCode, respW.StatusCode)
	}
	if !bytes.Equal(viaCluster, direct) {
		t.Error("post-stall cluster response differs from a clean worker run")
	}
}

// TestChaosJournalResume is the resume acceptance test: a sweep run
// through a journaled coordinator, then a brand-new coordinator over
// BRAND-NEW workers and the same journal, must answer the same grid
// byte-identically while the new workers run zero simulations.
func TestChaosJournalResume(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep test in -short mode")
	}
	testutil.VerifyNoLeaks(t)
	path := filepath.Join(t.TempDir(), "sweep.journal")
	j1, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j1.Close()

	cfgA := chaosConfig()
	cfgA.Journal = j1
	cA, tsA, _ := newChaosCluster(t, 2, "err:p=0.3,status=503,count=2", 21, cfgA)
	respA, bodyA := postJSON(t, tsA.URL+"/v1/experiments", expRequest("fig7"))
	if respA.StatusCode != http.StatusOK {
		t.Fatalf("journaled run: status %d: %s", respA.StatusCode, bodyA)
	}
	if j1.Len() != len(testBenches) {
		t.Fatalf("journal holds %d cells after the sweep; want %d", j1.Len(), len(testBenches))
	}
	if app, _ := cA.Snapshot().Lookup("cells").CounterValue("journal_appends"); app != uint64(len(testBenches)) {
		t.Errorf("journal_appends = %d; want %d", app, len(testBenches))
	}

	// "Kill" the coordinator (shutdown) and restart: a fresh coordinator
	// process re-opens the journal from disk. The workers are fresh too —
	// cold caches, zero sims — so any re-run would show up in sims_run.
	tsA.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	cA.Shutdown(ctx)
	cancel()
	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Len() != len(testBenches) {
		t.Fatalf("reopened journal holds %d cells; want %d", j2.Len(), len(testBenches))
	}

	freshWorkers := make([]*server.Server, 2)
	cfgB := chaosConfig()
	cfgB.Journal = j2
	for i := range freshWorkers {
		s, ts := newWorker(t, server.Config{})
		freshWorkers[i] = s
		cfgB.Workers = append(cfgB.Workers, ts.URL)
	}
	cB := New(cfgB)
	tsB := httptest.NewServer(cB)
	t.Cleanup(func() {
		tsB.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		cB.Shutdown(ctx)
	})

	respB, bodyB := postJSON(t, tsB.URL+"/v1/experiments", expRequest("fig7"))
	if respB.StatusCode != http.StatusOK {
		t.Fatalf("resumed run: status %d: %s", respB.StatusCode, bodyB)
	}
	if !bytes.Equal(bodyA, bodyB) {
		t.Error("resumed sweep differs from the original")
	}
	if hits, _ := cB.Snapshot().Lookup("cells").CounterValue("journal_hits"); hits != uint64(len(testBenches)) {
		t.Errorf("journal_hits = %d; want every cell (%d)", hits, len(testBenches))
	}
	for i, s := range freshWorkers {
		if n, _ := s.Snapshot().CounterValue("sims_run"); n != 0 {
			t.Errorf("fresh worker %d ran %d sims on a fully-journaled sweep; want 0", i, n)
		}
	}
}

// benchGate 500s every /v1/experiments request whose body names a
// gated benchmark — a worker that deterministically cannot serve part
// of a grid, for mid-sweep crash simulation.
type benchGate struct {
	inner http.Handler
	gate  atomic.Value // string: substring to refuse ("" allows all)
}

func (g *benchGate) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	gated, _ := g.gate.Load().(string)
	if gated != "" && r.Body != nil {
		var buf bytes.Buffer
		io.Copy(&buf, r.Body)
		r.Body.Close()
		if strings.Contains(buf.String(), gated) {
			http.Error(w, "injected mid-sweep failure", http.StatusInternalServerError)
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(buf.Bytes()))
		r.ContentLength = int64(buf.Len())
	}
	g.inner.ServeHTTP(w, r)
}

// TestChaosJournalMidSweepCrash drives the harder resume path: the
// sweep dies partway (one benchmark's cell is unservable, the fallback
// disabled), the journal keeps the finished cells, and the restarted
// coordinator completes the grid running only the missing cell's
// simulations — asserted through per-worker sims_run deltas.
func TestChaosJournalMidSweepCrash(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep test in -short mode")
	}
	testutil.VerifyNoLeaks(t)
	path := filepath.Join(t.TempDir(), "sweep.journal")
	j1, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j1.Close()

	s := server.New(server.Config{Workers: 2, DrainTimeout: 2 * time.Second})
	gate := &benchGate{inner: s}
	gate.gate.Store("swim")
	tsw := httptest.NewServer(gate)
	t.Cleanup(func() {
		tsw.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})

	cfgA := chaosConfig()
	cfgA.Journal = j1
	cfgA.RetryBudget = 1
	cfgA.DisableLocalFallback = true
	cfgA.Workers = []string{tsw.URL}
	cfgA.Fanout = 1 // input order: gzip and mcf finish before swim fails
	cA := New(cfgA)
	tsA := httptest.NewServer(cA)
	respA, bodyA := postJSON(t, tsA.URL+"/v1/experiments", expRequest("fig7"))
	if respA.StatusCode == http.StatusOK {
		t.Fatalf("gated sweep succeeded; want a failed run (body %s)", bodyA)
	}
	tsA.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	cA.Shutdown(ctx)
	cancel()

	if j1.Len() != 2 {
		t.Fatalf("journal holds %d cells after the crash; want the 2 finished ones", j1.Len())
	}
	simsBefore, _ := s.Snapshot().CounterValue("sims_run")
	if simsBefore == 0 || simsBefore%2 != 0 {
		t.Fatalf("sims_run before resume = %d; want an even split across 2 finished benchmarks", simsBefore)
	}

	// Restart over the same journal with the gate lifted: only swim's
	// cell may run, and each benchmark's cell is the same ladder of
	// schemes, so the delta is exactly half the first run's sims.
	gate.gate.Store("")
	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	cfgB := chaosConfig()
	cfgB.Journal = j2
	cfgB.Workers = []string{tsw.URL}
	cB := New(cfgB)
	tsB := httptest.NewServer(cB)
	t.Cleanup(func() {
		tsB.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		cB.Shutdown(ctx)
	})
	respB, bodyB := postJSON(t, tsB.URL+"/v1/experiments", expRequest("fig7"))
	if respB.StatusCode != http.StatusOK {
		t.Fatalf("resumed run: status %d: %s", respB.StatusCode, bodyB)
	}
	if !bytes.Equal(bodyB, referenceBody(t, "fig7")) {
		t.Error("resumed sweep differs from the single-node run")
	}
	simsAfter, _ := s.Snapshot().CounterValue("sims_run")
	if delta := simsAfter - simsBefore; delta != simsBefore/2 {
		t.Errorf("resume ran %d sims; want exactly the missing cell's %d", delta, simsBefore/2)
	}
	if hits, _ := cB.Snapshot().Lookup("cells").CounterValue("journal_hits"); hits != 2 {
		t.Errorf("journal_hits on resume = %d; want 2", hits)
	}
}

// refuser drops every /v1/ connection while refusing is set — a
// permanently-down worker that can be revived.
type refuser struct {
	inner    http.Handler
	refusing atomic.Bool
}

func (f *refuser) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if f.refusing.Load() && strings.HasPrefix(r.URL.Path, "/v1/") {
		panic(http.ErrAbortHandler)
	}
	f.inner.ServeHTTP(w, r)
}

// TestChaosDownWorkerTypedErrorAndRevival is the bounded-budget
// regression test: a permanently-down worker exhausts the redispatch
// budget and surfaces ErrDispatchExhausted (the typed error, not a
// spin); once the worker returns and the breaker cooldown passes, the
// half-open trial restores its ring keys and traffic.
func TestChaosDownWorkerTypedErrorAndRevival(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep test in -short mode")
	}
	testutil.VerifyNoLeaks(t)
	s := server.New(server.Config{Workers: 2, DrainTimeout: 2 * time.Second})
	f := &refuser{inner: s}
	f.refusing.Store(true)
	tsw := httptest.NewServer(f)
	t.Cleanup(func() {
		tsw.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})

	cfg := chaosConfig()
	cfg.Workers = []string{tsw.URL}
	cfg.RetryBudget = 2
	cfg.DisableLocalFallback = true
	c := New(cfg)
	ts := httptest.NewServer(c)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		c.Shutdown(ctx)
	})

	cell := expRequest("fig7")
	cell.Benchmarks = []string{"gzip"}
	cellKey, err := cell.CacheKey()
	if err != nil {
		t.Fatal(err)
	}

	// Direct runCell: the typed error is the contract.
	_, err = c.runCell(context.Background(), &server.ExperimentJob{Request: cell, Key: cellKey})
	if !errors.Is(err, ErrDispatchExhausted) {
		t.Fatalf("runCell against a dead worker = %v; want ErrDispatchExhausted", err)
	}
	// Over HTTP the same exhaustion is a 502.
	resp, body := postJSON(t, ts.URL+"/v1/experiments", expRequest("fig7"))
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("dead-cluster sweep: status %d (%s); want 502", resp.StatusCode, body)
	}
	if ws := c.Registry().Workers(); !ws[0].Down {
		t.Fatal("dead worker not marked down after budget exhaustion")
	}

	// Revival: the worker comes back, the breaker cooldown passes, and
	// the next dispatch is the half-open trial that closes it.
	f.refusing.Store(false)
	time.Sleep(cfg.BreakerCooldown + 50*time.Millisecond)
	resp, body = postJSON(t, ts.URL+"/v1/experiments", expRequest("fig7"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-revival sweep: status %d: %s", resp.StatusCode, body)
	}
	if !bytes.Equal(body, referenceBody(t, "fig7")) {
		t.Error("post-revival sweep differs from the single-node run")
	}
	ws := c.Registry().Workers()
	if ws[0].Down || ws[0].State != "up" {
		t.Errorf("revived worker state = %+v; want up", ws[0])
	}
	if d, _ := c.Snapshot().CounterValue("degraded"); d != 0 {
		t.Errorf("degraded gauge still %d after revival", d)
	}
}

// TestChaosDegradedModeLocalFallback: with every worker unreachable and
// the fallback enabled (the default), the coordinator answers the job
// itself — byte-identically — and says so in metrics and healthz.
func TestChaosDegradedModeLocalFallback(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep test in -short mode")
	}
	testutil.VerifyNoLeaks(t)
	// Two workers that are already gone: real listeners, closed before
	// the coordinator ever dials them.
	dead1 := httptest.NewServer(http.NotFoundHandler())
	dead2 := httptest.NewServer(http.NotFoundHandler())
	u1, u2 := dead1.URL, dead2.URL
	dead1.Close()
	dead2.Close()

	cfg := chaosConfig()
	cfg.Workers = []string{u1, u2}
	cfg.RetryBudget = 1
	c := New(cfg)
	ts := httptest.NewServer(c)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		c.Shutdown(ctx)
	})

	resp, body := postJSON(t, ts.URL+"/v1/experiments", expRequest("fig7"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded run: status %d: %s", resp.StatusCode, body)
	}
	if !bytes.Equal(body, referenceBody(t, "fig7")) {
		t.Error("degraded local run differs from the single-node run")
	}
	if lr, _ := c.Snapshot().CounterValue("local_runs"); lr == 0 {
		t.Error("degraded run recorded no local_runs")
	}
	if d, _ := c.Snapshot().CounterValue("degraded"); d != 1 {
		t.Error("degraded gauge not set with every worker down")
	}
	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hzBody struct {
		Status string `json:"status"`
	}
	json.NewDecoder(hz.Body).Decode(&hzBody)
	hz.Body.Close()
	if hzBody.Status != "degraded" {
		t.Errorf("healthz status = %q; want degraded", hzBody.Status)
	}

	// The sim relay path degrades the same way.
	simReq := server.SimRequest{
		Bench: "gzip", Scheme: "baseline",
		Footprint: "1M", Instructions: testInstr, Seed: testSeed,
	}
	resp, viaCluster := postJSON(t, ts.URL+"/v1/sim", simReq)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded sim: status %d: %s", resp.StatusCode, viaCluster)
	}
	_, cleanWorker := newWorker(t, server.Config{})
	respW, direct := postJSON(t, cleanWorker.URL+"/v1/sim", simReq)
	if respW.StatusCode != http.StatusOK {
		t.Fatalf("clean worker sim: status %d", respW.StatusCode)
	}
	if !bytes.Equal(viaCluster, direct) {
		t.Error("degraded local sim differs from a clean worker run")
	}
}

// TestProberBoundedByStalledWorker: a worker whose /healthz hangs must
// not wedge the prober — the probe deadline expires, the worker marks
// down, and probing continues.
func TestProberBoundedByStalledWorker(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	stalled := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done() // hang until the prober gives up
	}))
	defer stalled.Close()
	_, healthy := newWorker(t, server.Config{})

	cfg := Config{
		Workers:       []string{stalled.URL, healthy.URL},
		ProbeInterval: 20 * time.Millisecond,
		ProbeTimeout:  50 * time.Millisecond,
		FailThreshold: 2,
	}
	c := New(cfg)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		c.Shutdown(ctx)
	})

	deadline := time.Now().Add(3 * time.Second)
	for {
		var stalledDown, healthyUp bool
		for _, w := range c.Registry().Workers() {
			switch w.URL {
			case normalizeURL(stalled.URL):
				stalledDown = w.Down
			case normalizeURL(healthy.URL):
				healthyUp = !w.Down
			}
		}
		if stalledDown && healthyUp {
			return // prober survived the stall and kept probing the healthy node
		}
		if time.Now().After(deadline) {
			t.Fatalf("prober state after 3 s: %+v; want the stalled worker down, the healthy one up", c.Registry().Workers())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestBackoffBounds pins the jittered-backoff contract: hints are
// respected up to the cap, the default ramp doubles, jitter stays
// within 25%, and gigantic attempt counts (a coordinator set to wait
// out saturation runs with SaturationRetries in the thousands) cannot
// overflow into zero-length waits.
func TestBackoffBounds(t *testing.T) {
	cfg := chaosConfig()
	cfg.MaxRetryWait = 2 * time.Second
	c := New(cfg)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		c.Shutdown(ctx)
	})

	check := func(hint time.Duration, attempt int, lo, hi time.Duration) {
		t.Helper()
		for i := 0; i < 50; i++ {
			got := c.backoff(hint, attempt)
			if got < lo || got > hi {
				t.Fatalf("backoff(%v, %d) = %v; want in [%v, %v]", hint, attempt, got, lo, hi)
			}
		}
	}
	// A worker hint is respected, plus at most 25% jitter.
	check(300*time.Millisecond, 1, 300*time.Millisecond, 375*time.Millisecond)
	// Hints beyond the cap clamp to it.
	check(10*time.Second, 1, 2*time.Second, 2500*time.Millisecond)
	// The hintless ramp doubles: 50, 100, 200 ms (+jitter).
	check(0, 1, 50*time.Millisecond, 63*time.Millisecond)
	check(0, 2, 100*time.Millisecond, 125*time.Millisecond)
	check(0, 3, 200*time.Millisecond, 250*time.Millisecond)
	// Huge attempts saturate at the cap instead of overflowing to zero.
	check(0, 40, 2*time.Second, 2500*time.Millisecond)
	check(0, 10_000, 2*time.Second, 2500*time.Millisecond)
}

// TestRegistryBreakerHalfOpen unit-tests the breaker's state machine:
// open excludes, cooldown expiry admits one trial as a failover
// candidate, a failed trial re-opens, a successful one closes.
func TestRegistryBreakerHalfOpen(t *testing.T) {
	g := NewRegistry(1, 60*time.Millisecond)
	g.Add("http://a:1")
	g.Add("http://b:1")
	boom := errors.New("boom")

	g.ReportFailure("http://a:1", boom, true)
	if ws := g.Workers(); ws[0].State != "open" {
		t.Fatalf("state after mark-down = %q; want open", ws[0].State)
	}
	for _, n := range g.Candidates("k") {
		if n == "http://a:1" {
			t.Fatal("open worker offered as a candidate")
		}
	}

	time.Sleep(80 * time.Millisecond)
	if ws := g.Workers(); ws[0].State != "half-open" {
		t.Fatalf("state after cooldown = %q; want half-open", ws[0].State)
	}
	cands := g.Candidates("k")
	if len(cands) != 2 || cands[len(cands)-1] != "http://a:1" {
		t.Fatalf("candidates with a half-open worker = %v; want it last", cands)
	}
	// The trial dispatch claims the slot: no second candidate offer.
	g.NoteDispatch("http://a:1")
	for _, n := range g.Candidates("k") {
		if n == "http://a:1" {
			t.Fatal("half-open worker offered again while its trial is in flight")
		}
	}
	// Failed trial: re-open for another cooldown.
	g.ReportFailure("http://a:1", boom, false)
	if ws := g.Workers(); ws[0].State != "open" {
		t.Fatalf("state after failed trial = %q; want open", ws[0].State)
	}
	// Passed trial (after another cooldown): closed.
	time.Sleep(80 * time.Millisecond)
	g.NoteDispatch("http://a:1")
	g.ReportSuccess("http://a:1")
	if ws := g.Workers(); ws[0].State != "up" || ws[0].Down {
		t.Fatalf("state after successful trial = %+v; want up", ws[0])
	}
}

// TestJournal unit-tests durability details: round-trip, reopen,
// duplicate puts, and corrupt-tail tolerance (torn writes and bodies
// that fail their own digest are skipped, not fatal).
func TestJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	bodyA := []byte("{\n  \"a\": 1\n}") // multi-line: the format must preserve bytes exactly
	if err := j.Put("ka", bodyA); err != nil {
		t.Fatal(err)
	}
	if err := j.Put("kb", []byte(`{"b":2}`)); err != nil {
		t.Fatal(err)
	}
	if err := j.Put("ka", []byte("ignored duplicate")); err != nil {
		t.Fatal(err)
	}
	if got, ok := j.Get("ka"); !ok || !bytes.Equal(got, bodyA) {
		t.Fatalf("Get(ka) = %q, %v; want the original bytes", got, ok)
	}
	if j.Len() != 2 {
		t.Fatalf("Len=%d; want 2", j.Len())
	}
	j.Close()

	// Corrupt the tail: a torn line and a digest-mismatched entry.
	appendFile(t, path, "{\"key\":\"torn\",\"sha256\":\"beef\",\"bo")
	appendFile(t, path, "\n{\"key\":\"lying\",\"sha256\":\"0000000000000000000000000000000000000000000000000000000000000000\",\"body\":\"{}\"}\n")

	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Len() != 2 {
		t.Fatalf("reopened journal Len = %d; want 2 (corrupt tail skipped)", j2.Len())
	}
	if got, ok := j2.Get("ka"); !ok || !bytes.Equal(got, bodyA) {
		t.Fatalf("reopened Get(ka) = %q, %v; want the original bytes", got, ok)
	}
	if _, ok := j2.Get("lying"); ok {
		t.Fatal("digest-mismatched entry survived the reload")
	}
	// And appending still works after a tolerant load.
	if err := j2.Put("kc", []byte(`{"c":3}`)); err != nil {
		t.Fatal(err)
	}
	j3, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	if j3.Len() != 3 {
		t.Fatalf("journal Len after post-corruption append = %d; want 3", j3.Len())
	}
}

// TestJournalAppendAfterTornTail restarts over a tail torn without a
// newline: the next cell must land on a line of its own, not be glued
// onto the fragment and lost with it on the following load.
func TestJournalAppendAfterTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Put("a", []byte(`{"a":1}`)); err != nil {
		t.Fatal(err)
	}
	j.Close()
	appendFile(t, path, `{"key":"b","sha2`)

	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j2.Put("c", []byte(`{"c":3}`)); err != nil {
		t.Fatal(err)
	}
	j2.Close()

	j3, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	if got, ok := j3.Get("c"); !ok || string(got) != `{"c":3}` {
		t.Fatalf("Get(c) = %q, %v after a restart over a torn tail", got, ok)
	}
	if j3.Len() != 2 {
		t.Fatalf("Len = %d; want 2 (a and c)", j3.Len())
	}
}

// appendFile tacks raw bytes onto a journal file, simulating torn or
// tampered tails.
func appendFile(t *testing.T, path, s string) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(s); err != nil {
		t.Fatal(err)
	}
	f.Close()
}
