package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ctrpred/internal/runpool"
	"ctrpred/internal/sim"
	"ctrpred/internal/testutil"
)

// newTestServer boots a Server behind httptest and tears both down in
// order: drain the job pool first so in-flight handlers unwind, then
// close the listener.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	// Registered before the cleanups below: cleanups run LIFO, so the
	// leak check fires after shutdown has reaped stream writers, drain
	// watchers, and pool workers.
	testutil.VerifyNoLeaks(t)
	s := New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
		ts.Close()
	})
	return s, ts
}

// smallReq is a simulation that finishes in well under a second.
func smallReq() SimRequest {
	return SimRequest{
		Bench: "mcf", Scheme: "pred-context",
		Footprint: "64K", Instructions: 30_000, Seed: 7,
	}
}

// longReq is a simulation big enough to still be running while the test
// pokes the server from outside; a tight check interval keeps it
// responsive to cancellation.
func longReq() SimRequest {
	return SimRequest{
		Bench: "mcf", Scheme: "pred-context",
		Footprint: "64K", Instructions: 2_000_000_000, Seed: 11,
		CheckInterval: 1_000, NoCache: true,
	}
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal request: %v", err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	return resp
}

func readBody(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return b
}

// TestSimMatchesDirectRunAndCaches covers two acceptance criteria at
// once: an HTTP-submitted job returns a snapshot byte-identical to a
// direct RunContext call with the same config, and a repeated identical
// request is served from the cache without re-simulating.
func TestSimMatchesDirectRunAndCaches(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	req := smallReq()

	resp := postJSON(t, ts.URL+"/v1/sim", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, readBody(t, resp))
	}
	if got := resp.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("first request X-Cache = %q, want miss", got)
	}
	key := resp.Header.Get("X-Result-Key")
	if len(key) != 64 {
		t.Fatalf("X-Result-Key = %q, want a sha256 hex digest", key)
	}
	body := readBody(t, resp)

	// The same run, driven directly through the library.
	bench, cfg, err := req.Resolve()
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	m, err := sim.NewMachine(bench, cfg)
	if err != nil {
		t.Fatalf("NewMachine: %v", err)
	}
	res, err := m.RunContext(context.Background())
	if err != nil {
		t.Fatalf("RunContext: %v", err)
	}
	want, err := res.Snapshot().JSON()
	if err != nil {
		t.Fatalf("Snapshot JSON: %v", err)
	}
	if !bytes.Equal(body, want) {
		t.Fatalf("served snapshot differs from direct RunContext:\nhttp:   %.200s\ndirect: %.200s", body, want)
	}

	// Second identical request: cache hit, no new simulation.
	simsBefore, _ := s.Snapshot().CounterValue("sims_run")
	resp2 := postJSON(t, ts.URL+"/v1/sim", req)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("repeat status = %d", resp2.StatusCode)
	}
	if got := resp2.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("repeat X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(readBody(t, resp2), body) {
		t.Fatal("cached body differs from original")
	}
	if simsAfter, _ := s.Snapshot().CounterValue("sims_run"); simsAfter != simsBefore {
		t.Fatalf("repeat request re-simulated: sims_run %d -> %d", simsBefore, simsAfter)
	}

	// The content-addressed fetch path serves the same bytes.
	get, err := http.Get(ts.URL + "/v1/results/" + key)
	if err != nil {
		t.Fatalf("GET result: %v", err)
	}
	if get.StatusCode != http.StatusOK || !bytes.Equal(readBody(t, get), body) {
		t.Fatalf("GET /v1/results/%s: status %d or body mismatch", key, get.StatusCode)
	}
	miss, err := http.Get(ts.URL + "/v1/results/deadbeef")
	if err != nil {
		t.Fatalf("GET missing result: %v", err)
	}
	readBody(t, miss)
	if miss.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown key status = %d, want 404", miss.StatusCode)
	}
}

// canonicalJSON re-marshals a JSON document into Go's deterministic
// encoding (sorted map keys, no insignificant whitespace) so documents
// that differ only in formatting compare equal.
func canonicalJSON(t *testing.T, b []byte) string {
	t.Helper()
	var v any
	if err := json.Unmarshal(b, &v); err != nil {
		t.Fatalf("canonicalJSON: %v (input %.200s)", err, b)
	}
	out, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("canonicalJSON re-marshal: %v", err)
	}
	return string(out)
}

// streamEvents POSTs a request in streaming mode and decodes every
// NDJSON line.
func streamEvents(t *testing.T, url string, req SimRequest) []Event {
	t.Helper()
	b, _ := json.Marshal(req)
	resp, err := http.Post(url+"/v1/sim?stream=1", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatalf("POST stream: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q, want application/x-ndjson", ct)
	}
	var evs []Event
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		evs = append(evs, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream read: %v", err)
	}
	return evs
}

func TestSimStreamingProtocol(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	req := smallReq()
	evs := streamEvents(t, ts.URL, req)
	if len(evs) < 3 {
		t.Fatalf("stream produced %d events, want at least accepted+update+result", len(evs))
	}
	if evs[0].Event != "accepted" || len(evs[0].Key) != 64 {
		t.Fatalf("first event = %+v, want accepted with a result key", evs[0])
	}
	sawUpdate := false
	for _, ev := range evs[1 : len(evs)-1] {
		switch ev.Event {
		case "update":
			sawUpdate = true
			if ev.Update == nil || ev.Update.Label == "" || ev.Update.Error != "" {
				t.Fatalf("update event = %+v", ev)
			}
		case "progress":
		default:
			t.Fatalf("unexpected mid-stream event %q", ev.Event)
		}
	}
	if !sawUpdate {
		t.Fatal("stream carried no update event")
	}
	last := evs[len(evs)-1]
	if last.Event != "result" || last.Key != evs[0].Key || len(last.Snapshot) == 0 {
		t.Fatalf("terminal event = %+v, want result with snapshot", last)
	}

	// The streamed snapshot and the cached plain response are the same
	// result: one content address, one value (NDJSON compacts the
	// embedded document, so compare canonicalized).
	plain := postJSON(t, ts.URL+"/v1/sim", req)
	if plain.Header.Get("X-Cache") != "hit" {
		t.Fatal("plain request after streamed run should hit the cache")
	}
	if canonicalJSON(t, readBody(t, plain)) != canonicalJSON(t, last.Snapshot) {
		t.Fatal("streamed snapshot differs from cached plain response")
	}
}

// TestQueueSaturationReturns429 covers the backpressure acceptance
// criterion: with one worker occupied and no backlog, the next
// submission is rejected with 429 and a Retry-After hint.
func TestQueueSaturationReturns429(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, Backlog: -1, DrainTimeout: 100 * time.Millisecond})

	b, _ := json.Marshal(longReq())
	resp, err := http.Post(ts.URL+"/v1/sim?stream=1", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatalf("POST long job: %v", err)
	}
	defer resp.Body.Close()
	// The accepted line proves the job holds the only capacity slot
	// (backlog is zero), so the next submission must be shed.
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		t.Fatalf("no accepted event: %v", sc.Err())
	}
	var first Event
	if err := json.Unmarshal(sc.Bytes(), &first); err != nil || first.Event != "accepted" {
		t.Fatalf("first event %q (err %v), want accepted", sc.Text(), err)
	}

	over := smallReq()
	over.NoCache = true
	resp2 := postJSON(t, ts.URL+"/v1/sim", over)
	body := readBody(t, resp2)
	if resp2.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-capacity status = %d (body %s), want 429", resp2.StatusCode, body)
	}
	// No job has finished yet, so there is no latency signal and the
	// hint falls back to its 1 s floor.
	if ra := resp2.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("Retry-After = %q, want 1", ra)
	}
	if got, _ := s.Snapshot().CounterValue("rejected"); got != 1 {
		t.Fatalf("rejected counter = %d, want 1", got)
	}
	// Cleanup's Shutdown cancels the long job within one CheckInterval.
}

// TestRetryAfterComputation pins the saturated-pool Retry-After hint:
// occupancy and mean job latency in, whole seconds out, with the 1 s
// floor and 60 s cap. Before any job has completed there is no latency
// signal; the cold-start cases pin that the waves model still runs on
// the 1 s-per-wave default instead of collapsing to a constant hint.
func TestRetryAfterComputation(t *testing.T) {
	cases := []struct {
		name    string
		workers int
		pending int
		mean    time.Duration
		want    int
	}{
		{"cold start, empty queue", 4, 0, 0, 1},
		{"cold start scales with backlog", 4, 8, 0, 3}, // (1 + 8/4) waves × 1 s default
		{"cold start deep backlog capped", 1, 1000, 0, 60},
		{"no workers", 0, 0, time.Second, 1},
		{"fast jobs floor at 1s", 4, 0, 50 * time.Millisecond, 1},
		{"one wave rounds up", 4, 0, 1500 * time.Millisecond, 2},
		{"backlog adds waves", 2, 4, 2 * time.Second, 6}, // (1 + 4/2) waves × 2 s
		{"partial wave truncates", 4, 3, 2 * time.Second, 2},
		{"deep backlog capped", 1, 1000, time.Second, 60},
	}
	for _, tc := range cases {
		ps := runpool.PoolStats{Workers: tc.workers, Pending: tc.pending}
		if got := retryAfterSeconds(ps, tc.mean); got != tc.want {
			t.Errorf("%s: retryAfterSeconds(workers=%d pending=%d mean=%v) = %d, want %d",
				tc.name, tc.workers, tc.pending, tc.mean, got, tc.want)
		}
	}
}

// TestMeanJobLatencyFeedsRetryAfter covers the wiring end to end: after
// a job finishes, the server has a latency estimate and a saturated 429
// derives its hint from it rather than the fallback.
func TestMeanJobLatencyFeedsRetryAfter(t *testing.T) {
	s := New(Config{Workers: 1, Backlog: -1})
	t.Cleanup(func() { s.Shutdown(context.Background()) })
	if got := s.meanJobLatency(); got != 0 {
		t.Fatalf("mean latency before any job = %v, want 0", got)
	}
	s.jobDurNS.Add(int64(3 * time.Second))
	s.jobDurNS.Add(int64(5 * time.Second))
	s.jobsDone.Add(2)
	if got, want := s.meanJobLatency(), 4*time.Second; got != want {
		t.Fatalf("mean latency = %v, want %v", got, want)
	}
	ps := runpool.PoolStats{Workers: 1, Pending: 0}
	if got := retryAfterSeconds(ps, s.meanJobLatency()); got != 4 {
		t.Fatalf("Retry-After from observed latency = %d, want 4", got)
	}
}

// TestShutdownDrainsRunningJob covers the graceful half of the shutdown
// criterion: Shutdown waits for a running job and its result is still
// delivered to the client.
func TestShutdownDrainsRunningJob(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, DrainTimeout: 30 * time.Second})

	req := smallReq()
	req.Instructions = 1_000_000 // long enough to overlap Shutdown, short enough to drain
	b, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/v1/sim?stream=1", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	if !sc.Scan() {
		t.Fatalf("no accepted event: %v", sc.Err())
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown during running job: %v", err)
	}

	var last Event
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("bad line %q: %v", sc.Text(), err)
		}
	}
	if last.Event != "result" || len(last.Snapshot) == 0 {
		t.Fatalf("terminal event after drain = %+v, want result", last)
	}

	// Draining servers advertise it and refuse new work.
	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET healthz: %v", err)
	}
	readBody(t, hz)
	if hz.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining = %d, want 503", hz.StatusCode)
	}
	late := postJSON(t, ts.URL+"/v1/sim", smallReq())
	readBody(t, late)
	if late.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submission while draining = %d, want 503", late.StatusCode)
	}
}

// TestShutdownCancelsStuckJob covers the hard half of the shutdown
// criterion: when the drain window expires, job contexts are cancelled
// and the simulation stops within one CheckInterval instead of holding
// Shutdown hostage.
func TestShutdownCancelsStuckJob(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, DrainTimeout: 50 * time.Millisecond})

	b, _ := json.Marshal(longReq())
	resp, err := http.Post(ts.URL+"/v1/sim?stream=1", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatalf("POST long job: %v", err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	if !sc.Scan() {
		t.Fatalf("no accepted event: %v", sc.Err())
	}

	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown with stuck job: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 20*time.Second {
		t.Fatalf("Shutdown took %v; the hard stop did not bite", elapsed)
	}

	var last Event
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("bad line %q: %v", sc.Text(), err)
		}
	}
	if last.Event != "error" || last.Code != "canceled" {
		t.Fatalf("terminal event after hard stop = %+v, want error/canceled", last)
	}
}

func TestExperimentEndpointRunsAndCaches(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	req := ExperimentRequest{
		ID: "fig7", Benchmarks: []string{"mcf"},
		Instructions: 20_000, Footprint: "64K", Seed: 3,
	}
	resp := postJSON(t, ts.URL+"/v1/experiments", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, readBody(t, resp))
	}
	body := readBody(t, resp)
	if !strings.Contains(string(body), `"experiment"`) {
		t.Fatalf("experiment snapshot has unexpected shape: %.200s", body)
	}

	expsBefore, _ := s.Snapshot().CounterValue("experiments_run")
	resp2 := postJSON(t, ts.URL+"/v1/experiments", req)
	if got := resp2.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("repeat experiment X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(readBody(t, resp2), body) {
		t.Fatal("cached experiment body differs")
	}
	if expsAfter, _ := s.Snapshot().CounterValue("experiments_run"); expsAfter != expsBefore {
		t.Fatal("repeat experiment request re-ran the sweep")
	}

	// Workers and timeouts are result-neutral and must share the cache
	// entry with the original request.
	alt := req
	alt.Workers = 2
	alt.Timeout = "5m"
	resp3 := postJSON(t, ts.URL+"/v1/experiments", alt)
	if got := resp3.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("worker-count variant X-Cache = %q, want hit", got)
	}
	readBody(t, resp3)
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	cases := []struct {
		name string
		url  string
		body any
	}{
		{"unknown bench", "/v1/sim", SimRequest{Bench: "nope", Scheme: "baseline"}},
		{"missing scheme", "/v1/sim", SimRequest{Bench: "mcf"}},
		{"bad scheme", "/v1/sim", SimRequest{Bench: "mcf", Scheme: "warp-drive"}},
		{"bad mode", "/v1/sim", SimRequest{Bench: "mcf", Scheme: "baseline", Mode: "sideways"}},
		{"bad recovery", "/v1/sim", SimRequest{Bench: "mcf", Scheme: "baseline", Recovery: "pray"}},
		{"bad timeout", "/v1/sim", SimRequest{Bench: "mcf", Scheme: "baseline", Timeout: "soon"}},
		{"l2 geometry", "/v1/sim", SimRequest{Bench: "mcf", Scheme: "baseline", L2: "3K"}},
		{"seqcache geometry", "/v1/sim", SimRequest{Bench: "mcf", Scheme: "seqcache:1"}},
		{"unknown experiment", "/v1/experiments", ExperimentRequest{ID: "fig99"}},
		{"repeated benchmark", "/v1/experiments", ExperimentRequest{ID: "fig7", Benchmarks: []string{"gzip", "mcf", "mcf"}}},
		{"negative max tenants", "/v1/experiments", ExperimentRequest{ID: "capacity", MaxTenants: -1}},
		{"negative slo slowdown", "/v1/experiments", ExperimentRequest{ID: "capacity", SLOMaxSlowdown: -1}},
		{"negative slo p99", "/v1/experiments", ExperimentRequest{ID: "fig7", SLOP99Fetch: -1}},
		{"unknown field", "/v1/sim", map[string]any{"bench": "mcf", "scheme": "baseline", "warp": 9}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := postJSON(t, ts.URL+tc.url, tc.body)
			body := readBody(t, resp)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status = %d (body %s), want 400", resp.StatusCode, body)
			}
			var e map[string]string
			if err := json.Unmarshal(body, &e); err != nil || e["error"] == "" {
				t.Fatalf("error body %q not a JSON error object", body)
			}
		})
	}
}

func TestListingAndMetricsEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	resp, err := http.Get(ts.URL + "/v1/benchmarks")
	if err != nil {
		t.Fatalf("GET benchmarks: %v", err)
	}
	var benches []struct {
		Name string `json:"name"`
	}
	if err := json.Unmarshal(readBody(t, resp), &benches); err != nil {
		t.Fatalf("decode benchmarks: %v", err)
	}
	if len(benches) != 14 {
		t.Fatalf("got %d benchmarks, want 14", len(benches))
	}

	resp, err = http.Get(ts.URL + "/v1/experiments")
	if err != nil {
		t.Fatalf("GET experiments: %v", err)
	}
	var ids []string
	if err := json.Unmarshal(readBody(t, resp), &ids); err != nil {
		t.Fatalf("decode experiment ids: %v", err)
	}
	if len(ids) == 0 {
		t.Fatal("no experiment ids listed")
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET healthz: %v", err)
	}
	var hz map[string]any
	if err := json.Unmarshal(readBody(t, resp), &hz); err != nil {
		t.Fatalf("decode healthz: %v", err)
	}
	if resp.StatusCode != http.StatusOK || hz["status"] != "ok" {
		t.Fatalf("healthz = %d %v", resp.StatusCode, hz)
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET metrics: %v", err)
	}
	metrics := readBody(t, resp)
	for _, want := range []string{"sims_run", "pool", "cache", "occupancy", "backlog_depth", "endpoints"} {
		if !strings.Contains(string(metrics), fmt.Sprintf("%q", want)) {
			t.Fatalf("metrics payload missing %q: %.300s", want, metrics)
		}
	}
}

// TestEndpointCountersInMetrics pins the per-endpoint request counts:
// every handled route shows up under the "endpoints" child with the
// number of requests it served, and the tree stays deterministic JSON.
func TestEndpointCountersInMetrics(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})

	for i := 0; i < 3; i++ {
		resp, err := http.Get(ts.URL + "/v1/benchmarks")
		if err != nil {
			t.Fatalf("GET benchmarks: %v", err)
		}
		readBody(t, resp)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET healthz: %v", err)
	}
	readBody(t, resp)

	ep := s.Snapshot().Lookup("endpoints")
	if ep == nil {
		t.Fatal("metrics tree has no endpoints child")
	}
	if got, ok := ep.CounterValue("benchmarks"); !ok || got != 3 {
		t.Fatalf("endpoints.benchmarks = %d (present=%v), want 3", got, ok)
	}
	if got, ok := ep.CounterValue("healthz"); !ok || got != 1 {
		t.Fatalf("endpoints.healthz = %d (present=%v), want 1", got, ok)
	}

	// Two exports of the endpoints subtree must agree byte for byte:
	// the counters come out of a map, so serialization-time sorting is
	// what keeps the JSON deterministic.
	a, err := s.Snapshot().Lookup("endpoints").JSON()
	if err != nil {
		t.Fatalf("endpoints JSON: %v", err)
	}
	b, err := s.Snapshot().Lookup("endpoints").JSON()
	if err != nil {
		t.Fatalf("endpoints JSON: %v", err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("endpoints metrics JSON not deterministic across exports")
	}
}

func TestJobTimeoutMapsTo504(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, DrainTimeout: 100 * time.Millisecond})
	req := longReq()
	req.Timeout = "150ms"
	resp := postJSON(t, ts.URL+"/v1/sim", req)
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d (body %s), want 504", resp.StatusCode, body)
	}
	var ev Event
	if err := json.Unmarshal(body, &ev); err != nil || ev.Code != "timeout" {
		t.Fatalf("timeout body = %s, want error event with code timeout", body)
	}
}

// TestEngineSpecSeparatesCache is the PR's cache-collision regression
// test: two requests differing only in their engine spec must produce
// distinct result keys and distinct cached bodies — before the engine
// spec entered sim.Fingerprint, the second request would have been
// served the first engine's bytes as a cache hit.
func TestEngineSpecSeparatesCache(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})

	aes := smallReq() // engine "" = default pipelined AES
	bip := smallReq()
	bip.Engine = "bipbip"

	respA := postJSON(t, ts.URL+"/v1/sim", aes)
	if respA.StatusCode != http.StatusOK {
		t.Fatalf("aes status = %d, body %s", respA.StatusCode, readBody(t, respA))
	}
	keyA := respA.Header.Get("X-Result-Key")
	bodyA := readBody(t, respA)

	simsBefore, _ := s.Snapshot().CounterValue("sims_run")
	respB := postJSON(t, ts.URL+"/v1/sim", bip)
	if respB.StatusCode != http.StatusOK {
		t.Fatalf("bipbip status = %d, body %s", respB.StatusCode, readBody(t, respB))
	}
	if got := respB.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("bipbip request X-Cache = %q, want miss (engine spec must separate cache keys)", got)
	}
	keyB := respB.Header.Get("X-Result-Key")
	bodyB := readBody(t, respB)
	if keyA == keyB {
		t.Fatalf("engine specs share result key %s", keyA)
	}
	if bytes.Equal(bodyA, bodyB) {
		t.Fatal("aes and bipbip runs returned identical snapshots")
	}
	if simsAfter, _ := s.Snapshot().CounterValue("sims_run"); simsAfter != simsBefore+1 {
		t.Fatalf("bipbip request did not simulate: sims_run %d -> %d", simsBefore, simsAfter)
	}

	// Both results stay fetchable by key, each serving its own bytes.
	for _, c := range []struct {
		key  string
		want []byte
	}{{keyA, bodyA}, {keyB, bodyB}} {
		get, err := http.Get(ts.URL + "/v1/results/" + c.key)
		if err != nil {
			t.Fatalf("GET result: %v", err)
		}
		if get.StatusCode != http.StatusOK || !bytes.Equal(readBody(t, get), c.want) {
			t.Fatalf("GET /v1/results/%s: status %d or body mismatch", c.key, get.StatusCode)
		}
	}

	// An explicit default-AES spec is the same run as the omitted field:
	// cache hit, no new simulation.
	explicit := smallReq()
	explicit.Engine = "aes"
	respC := postJSON(t, ts.URL+"/v1/sim", explicit)
	readBody(t, respC)
	if got := respC.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("explicit aes X-Cache = %q, want hit (default spec must normalize)", got)
	}
}

// TestUnknownEngine422: a well-formed request naming an unknown engine
// model is rejected as unprocessable (422) before any simulation runs,
// on both job endpoints.
func TestUnknownEngine422(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	cases := []struct {
		name string
		url  string
		body any
	}{
		{"sim", "/v1/sim", SimRequest{Bench: "mcf", Scheme: "baseline", Engine: "quantum"}},
		{"experiment", "/v1/experiments", ExperimentRequest{ID: "fig7", Engine: "quantum"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := postJSON(t, ts.URL+tc.url, tc.body)
			body := readBody(t, resp)
			if resp.StatusCode != http.StatusUnprocessableEntity {
				t.Fatalf("status = %d (body %s), want 422", resp.StatusCode, body)
			}
		})
	}
	// A malformed parameter on a known engine stays a plain 400.
	resp := postJSON(t, ts.URL+"/v1/sim", SimRequest{Bench: "mcf", Scheme: "baseline", Engine: "aes:banks=4"})
	if body := readBody(t, resp); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad-parameter status = %d (body %s), want 400", resp.StatusCode, body)
	}
}
