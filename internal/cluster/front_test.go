package cluster

// The shared front: a coordinator answers exactly as a single node does,
// and the one failover loop behind it tells a worker's failure from the
// job's own context ending.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"ctrpred/internal/server"
)

// reply is one HTTP exchange as the parity test compares it.
type reply struct {
	status int
	header http.Header
	body   []byte
}

func send(t *testing.T, method, url string, v any) reply {
	t.Helper()
	var body io.Reader
	if v != nil {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return reply{status: resp.StatusCode, header: resp.Header, body: out}
}

func simRequest(seed uint64) server.SimRequest {
	return server.SimRequest{
		Bench: "gzip", Scheme: "pred-context",
		Footprint: "1M", Instructions: testInstr, Seed: seed,
	}
}

// TestFrontParity sends the same requests to a single node and to a
// one-worker coordinator: every answer must match in status,
// Content-Type, X-Cache and body, and every plain 200 must carry the
// digest of its body.
func TestFrontParity(t *testing.T) {
	node, nodeTS := newWorker(t, server.Config{})
	coord, coordTS, _ := newCluster(t, 1, Config{})
	type target struct {
		url      string
		shutdown func(context.Context) error
	}
	targets := [2]target{{nodeTS.URL, node.Shutdown}, {coordTS.URL, coord.Shutdown}}

	var simKey string
	post := func(path string, v any) func(target) reply {
		return func(tg target) reply { return send(t, http.MethodPost, tg.url+path, v) }
	}
	get := func(path func() string) func(target) reply {
		return func(tg target) reply { return send(t, http.MethodGet, tg.url+path(), nil) }
	}
	steps := []struct {
		name string
		want int
		// stream marks an NDJSON answer: only its terminal line is
		// compared, and it carries no digest (a stream commits its headers
		// before the result exists).
		stream bool
		do     func(target) reply
	}{
		{name: "cold sim", want: http.StatusOK, do: func(tg target) reply {
			r := post("/v1/sim", simRequest(testSeed))(tg)
			simKey = r.header.Get("X-Result-Key")
			return r
		}},
		{name: "cached sim", want: http.StatusOK, do: post("/v1/sim", simRequest(testSeed))},
		{name: "cold grid", want: http.StatusOK, do: post("/v1/experiments", expRequest("fig7"))},
		{name: "result by key", want: http.StatusOK, do: get(func() string { return "/v1/results/" + simKey })},
		{name: "streamed sim", want: http.StatusOK, stream: true, do: post("/v1/sim?stream=1", simRequest(testSeed+1))},
		{name: "missing bench", want: http.StatusBadRequest, do: post("/v1/sim", map[string]any{"scheme": "baseline"})},
		{name: "unknown field", want: http.StatusBadRequest, do: post("/v1/sim", map[string]any{"bench": "gzip", "scheme": "baseline", "bogus": 1})},
		{name: "unknown experiment", want: http.StatusBadRequest, do: post("/v1/experiments", map[string]any{"id": "nope"})},
		{name: "unknown engine", want: http.StatusUnprocessableEntity, do: post("/v1/sim", map[string]any{"bench": "gzip", "scheme": "baseline", "engine": "quantum"})},
		{name: "unknown key", want: http.StatusNotFound, do: get(func() string { return "/v1/results/" + strings.Repeat("0", 64) })},
		{name: "draining", want: http.StatusServiceUnavailable, do: func(tg target) reply {
			if err := tg.shutdown(context.Background()); err != nil {
				t.Fatalf("shutdown: %v", err)
			}
			return post("/v1/sim", simRequest(testSeed+2))(tg)
		}},
	}
	for _, st := range steps {
		var got [2]reply
		for i, tg := range targets {
			got[i] = st.do(tg)
			if st.stream {
				lines := bytes.Split(bytes.TrimSpace(got[i].body), []byte("\n"))
				got[i].body = lines[len(lines)-1]
			}
		}
		single, cluster := got[0], got[1]
		if single.status != st.want || cluster.status != st.want {
			t.Errorf("%s: status single %d, coordinator %d; want %d (%s)", st.name, single.status, cluster.status, st.want, cluster.body)
		}
		for _, h := range []string{"Content-Type", "X-Cache"} {
			if a, b := single.header.Get(h), cluster.header.Get(h); a != b {
				t.Errorf("%s: %s single %q, coordinator %q", st.name, h, a, b)
			}
		}
		if !bytes.Equal(single.body, cluster.body) {
			t.Errorf("%s: bodies differ:\n--- single ---\n%.300s\n--- coordinator ---\n%.300s", st.name, single.body, cluster.body)
		}
		for i, r := range got {
			if r.status == http.StatusOK && !st.stream {
				if d := server.SnapshotDigest(r.header); d != server.BodyDigest(r.body) {
					t.Errorf("%s: %s X-Snapshot-Digest %q; want the body's digest", st.name, [2]string{"single", "coordinator"}[i], d)
				}
			}
		}
	}
}

// TestFailoverOn503 pins the failover policy for whole jobs: a worker's
// 503 fails over whether the client reads the job plain or streamed, and
// the answer is the bytes a clean worker computes.
func TestFailoverOn503(t *testing.T) {
	_, clean := newWorker(t, server.Config{})
	resp, want := postJSON(t, clean.URL+"/v1/sim", simRequest(testSeed))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("clean worker: status %d", resp.StatusCode)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, want); err != nil {
		t.Fatal(err)
	}

	for _, mode := range []string{"plain", "stream"} {
		t.Run(mode, func(t *testing.T) {
			// Each worker refuses its first sim, so the job meets two 503s
			// before it lands.
			c, ts, _ := newChaosCluster(t, 2, "err:count=1,status=503,match=/v1/sim", 1, chaosConfig())
			if mode == "plain" {
				resp, body := postJSON(t, ts.URL+"/v1/sim", simRequest(testSeed))
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("status %d (%s); want 200", resp.StatusCode, body)
				}
				if !bytes.Equal(body, want) {
					t.Error("failed-over sim differs from a clean worker run")
				}
			} else {
				r := send(t, http.MethodPost, ts.URL+"/v1/sim?stream=1", simRequest(testSeed))
				lines := bytes.Split(bytes.TrimSpace(r.body), []byte("\n"))
				var final server.Event
				if err := json.Unmarshal(lines[len(lines)-1], &final); err != nil || final.Event != "result" {
					t.Fatalf("terminal event %s (%v); want a result", lines[len(lines)-1], err)
				}
				if !bytes.Equal(final.Snapshot, compact.Bytes()) {
					t.Error("failed-over stream differs from a clean worker run")
				}
			}
			if fo, _ := c.Snapshot().Lookup("cells").CounterValue("failovers"); fo == 0 {
				t.Error("two 503s produced no failover")
			}
		})
	}
}

// waitCounter polls a coordinator root counter until it reaches want.
func waitCounter(t *testing.T, c *Coordinator, name string, want uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		got, _ := c.Snapshot().CounterValue(name)
		if got >= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s = %d after 5 s; want %d", name, got, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// checkWorkerUntouched asserts the cluster counted no worker failure.
func checkWorkerUntouched(t *testing.T, c *Coordinator, after string) {
	t.Helper()
	w := c.Registry().Workers()[0]
	if w.Down || w.Failures != 0 {
		t.Errorf("after %s: worker down=%v with %d failures; want up with none", after, w.Down, w.Failures)
	}
	if fo, _ := c.Snapshot().Lookup("cells").CounterValue("failovers"); fo != 0 {
		t.Errorf("after %s: %d failovers; want 0", after, fo)
	}
}

// TestClientDisconnectIsNotWorkerFailure: a client that gives up on a
// job ends the job, not the worker. The worker stays up with no failure
// counted, and nothing fails over.
func TestClientDisconnectIsNotWorkerFailure(t *testing.T) {
	c, ts, _ := newChaosCluster(t, 1, "latency:ms=1500,match=/v1/", 1, chaosConfig())
	jobs := []struct {
		path string
		body any
	}{
		{"/v1/sim", simRequest(testSeed)},
		{"/v1/experiments", expRequest("fig7")},
	}
	for i, job := range jobs {
		b, _ := json.Marshal(job.body)
		ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+job.path, bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		cancel()
		if err == nil {
			resp.Body.Close()
			t.Fatalf("%s answered %d before the client gave up", job.path, resp.StatusCode)
		}
		// The abandoned job winds down as a failed job.
		waitCounter(t, c, "failed", uint64(i+1))
		checkWorkerUntouched(t, c, job.path)
	}
}

// TestJobTimeoutBoundsClusterJob: a job's own timeout bounds the whole
// cluster job, as it does on a single node, and a job that runs out of
// time is not the worker's failure.
func TestJobTimeoutBoundsClusterJob(t *testing.T) {
	c, ts, _ := newChaosCluster(t, 1, "latency:ms=3000,match=/v1/", 1, chaosConfig())
	sim := simRequest(testSeed)
	sim.Timeout = "300ms"
	grid := expRequest("fig7")
	grid.Timeout = "300ms"
	for _, job := range []struct {
		path string
		body any
	}{{"/v1/experiments", grid}, {"/v1/sim", sim}} {
		start := time.Now()
		resp, body := postJSON(t, ts.URL+job.path, job.body)
		elapsed := time.Since(start)
		var ev server.Event
		if resp.StatusCode != http.StatusGatewayTimeout || json.Unmarshal(body, &ev) != nil || ev.Code != "timeout" {
			t.Errorf("%s: status %d, body %s; want 504 with code timeout", job.path, resp.StatusCode, body)
		}
		if elapsed >= 2*time.Second {
			t.Errorf("%s: answered after %v; want under 2 s", job.path, elapsed)
		}
		checkWorkerUntouched(t, c, fmt.Sprintf("a timed-out %s", job.path))
	}
}
