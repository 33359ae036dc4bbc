package chaos

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func mustParse(t *testing.T, s string) Schedule {
	t.Helper()
	sched, err := Parse(s)
	if err != nil {
		t.Fatalf("Parse(%q): %v", s, err)
	}
	return sched
}

func TestParseGrammar(t *testing.T) {
	sched := mustParse(t, "latency:p=0.2,ms=500;stall:after=3")
	if len(sched.Rules) != 2 {
		t.Fatalf("rules = %d, want 2", len(sched.Rules))
	}
	r := sched.Rules[0]
	if r.Kind != KindLatency || r.P != 0.2 || r.MS != 500 {
		t.Fatalf("latency rule = %+v", r)
	}
	s := sched.Rules[1]
	if s.Kind != KindStall || s.After != 3 || s.MS != 30_000 {
		t.Fatalf("stall rule = %+v (want after=3 and default ms=30000)", s)
	}
}

func TestParseDefaults(t *testing.T) {
	sched := mustParse(t, "err;truncate;stall")
	if got := sched.Rules[0].Status; got != 503 {
		t.Errorf("err default status = %d, want 503", got)
	}
	if got := sched.Rules[1].Bytes; got != 128 {
		t.Errorf("truncate default bytes = %d, want 128", got)
	}
	if got := sched.Rules[2].After; got != 1 {
		t.Errorf("stall default after = %d, want 1", got)
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{
		"",
		"teleport",
		"latency:ms",
		"latency:ms=abc",
		"latency:ms=-5",
		"latency:p=1.5,ms=9",
		"latency",
		"err:status=200",
		"partition:from=5,to=5",
		"flap:up=2",
		"latency:warp=9,ms=1",
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q): want error, got nil", bad)
		}
	}
}

func TestParseRoundTrip(t *testing.T) {
	in := "latency:p=0.25,ms=500,jitter=50;err:status=502,count=3;flap:up=2,down=4"
	sched := mustParse(t, in)
	again := mustParse(t, sched.String())
	if len(again.Rules) != len(sched.Rules) {
		t.Fatalf("round-trip rule count %d != %d", len(again.Rules), len(sched.Rules))
	}
	for i := range sched.Rules {
		if again.Rules[i] != sched.Rules[i] {
			t.Errorf("rule %d: %+v != %+v after round-trip", i, again.Rules[i], sched.Rules[i])
		}
	}
}

// TestParseProbabilityRendering pins the probability's round trip:
// small and close probabilities keep their value through String (and so
// their own Stats key), NaN is rejected, and the schedules the repo uses
// render exactly as written.
func TestParseProbabilityRendering(t *testing.T) {
	for _, in := range []string{
		"latency:p=0.0004,ms=5",
		"err:p=0.1231,status=503;err:p=0.1234,status=503",
		"latency:p=0.1,ms=50;err:p=0.1,status=503;corrupt:p=0.05",
		"latency:p=0.2,ms=500;err:p=0.3,status=503;err:p=0.5,status=503",
	} {
		if got := mustParse(t, in).String(); got != in {
			t.Errorf("Parse(%q).String() = %q", in, got)
		}
	}
	in := New(mustParse(t, "err:p=0.1231;err:p=0.1234"), 1)
	in.Decide("/v1/sim")
	if _, _, perRule := in.Stats(); len(perRule) != 2 {
		t.Errorf("two distinct rules share Stats keys: %v", perRule)
	}
	if _, err := Parse("err:p=NaN"); err == nil {
		t.Error("Parse accepted p=NaN")
	}
}

func TestDeterministicDecisions(t *testing.T) {
	sched := mustParse(t, "latency:p=0.3,ms=10,jitter=5;err:p=0.2")
	a := New(sched, 42)
	b := New(sched, 42)
	for i := 0; i < 200; i++ {
		da, db := a.Decide("/v1/sim"), b.Decide("/v1/sim")
		if da != db {
			t.Fatalf("request %d: decisions diverge: %+v vs %+v", i, da, db)
		}
	}
	// A different seed must produce a different decision stream.
	c := New(sched, 43)
	same := 0
	for i := 0; i < 200; i++ {
		if c.Decide("/v1/sim") == a.Decide("/v1/sim") {
			same++
		}
	}
	if same == 200 {
		t.Fatal("seed 43 reproduced seed 42's whole decision stream")
	}
}

func TestProbabilityRoughlyHonored(t *testing.T) {
	in := New(mustParse(t, "err:p=0.25"), 7)
	fired := 0
	for i := 0; i < 2000; i++ {
		if in.Decide("/x").Status != 0 {
			fired++
		}
	}
	if fired < 350 || fired > 650 {
		t.Fatalf("p=0.25 fired %d/2000 times, want ~500", fired)
	}
}

func TestCountFromEveryMatch(t *testing.T) {
	in := New(mustParse(t, "err:from=2,count=3"), 1)
	var fires []int
	for i := 0; i < 10; i++ {
		if in.Decide("/x").Status != 0 {
			fires = append(fires, i)
		}
	}
	if len(fires) != 3 || fires[0] != 2 || fires[2] != 4 {
		t.Fatalf("from=2,count=3 fired at %v, want [2 3 4]", fires)
	}

	in = New(mustParse(t, "err:every=3"), 1)
	for i := 0; i < 9; i++ {
		fired := in.Decide("/x").Status != 0
		if want := i%3 == 0; fired != want {
			t.Fatalf("every=3 request %d fired=%v", i, fired)
		}
	}

	in = New(mustParse(t, "err:match=/v1/sim"), 1)
	if in.Decide("/healthz").Status != 0 {
		t.Fatal("match=/v1/sim fired on /healthz")
	}
	if in.Decide("/v1/sim").Status == 0 {
		t.Fatal("match=/v1/sim did not fire on /v1/sim")
	}
}

func TestPartitionWindow(t *testing.T) {
	in := New(mustParse(t, "partition:from=2,to=5"), 1)
	for i := 0; i < 8; i++ {
		d := in.Decide("/x")
		if want := i >= 2 && i < 5; d.Drop != want {
			t.Fatalf("request %d: Drop=%v, want %v", i, d.Drop, want)
		}
	}
}

func TestFlapCycle(t *testing.T) {
	in := New(mustParse(t, "flap:up=2,down=3"), 1)
	want := []bool{false, false, true, true, true, false, false, true}
	for i, w := range want {
		if d := in.Decide("/x"); d.Drop != w {
			t.Fatalf("request %d: Drop=%v, want %v", i, d.Drop, w)
		}
	}
}

func TestStats(t *testing.T) {
	in := New(mustParse(t, "err:count=2;latency:ms=1,count=1"), 1)
	for i := 0; i < 5; i++ {
		in.Decide("/x")
	}
	reqs, faulted, perRule := in.Stats()
	if reqs != 5 {
		t.Errorf("requests = %d, want 5", reqs)
	}
	if faulted != 2 {
		t.Errorf("faulted = %d, want 2 (err and latency overlap on request 0-1)", faulted)
	}
	if perRule["err:status=503,count=2"] != 2 || perRule["latency:ms=1,count=1"] != 1 {
		t.Errorf("perRule = %v", perRule)
	}
}

func get(t *testing.T, c *http.Client, url string) (*http.Response, []byte, error) {
	t.Helper()
	resp, err := c.Get(url)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp, b, err
}

func TestMiddlewareFaults(t *testing.T) {
	payload := strings.Repeat("b", 64)
	inj := New(mustParse(t, "err:status=500,count=1;reset:from=1,count=1;truncate:bytes=8,from=2,count=1;corrupt:from=3,count=1"), 3)
	srv := httptest.NewServer(Middleware(inj, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, payload)
	})))
	defer srv.Close()
	// Fresh connection per request: http.Transport silently retries a
	// GET whose reused keep-alive connection dies before the first
	// response byte, which would shift the injector's request indices.
	tr := &http.Transport{DisableKeepAlives: true}
	defer tr.CloseIdleConnections()
	c := &http.Client{Transport: tr}

	resp, _, err := get(t, c, srv.URL)
	if err != nil || resp.StatusCode != 500 {
		t.Fatalf("request 0: resp=%v err=%v, want injected 500", resp, err)
	}
	if _, body, err := get(t, c, srv.URL); err == nil && len(body) == len(payload) {
		t.Fatal("request 1 (reset): response survived intact")
	}
	_, body, err := get(t, c, srv.URL)
	if err == nil {
		t.Fatal("request 2 (truncate): want error, got clean response")
	}
	if len(body) > 8 {
		t.Fatalf("request 2 (truncate): got %d bytes, want <= 8", len(body))
	}
	_, body, err = get(t, c, srv.URL)
	if err != nil {
		t.Fatalf("request 3 (corrupt): %v", err)
	}
	if len(body) != len(payload) {
		t.Fatalf("request 3 (corrupt): got %d bytes, want %d", len(body), len(payload))
	}
	if diff := len(body) - strings.Count(string(body), "b"); diff != 1 {
		t.Fatalf("request 3 (corrupt): %d bytes differ, want exactly 1", diff)
	}
	resp, body, err = get(t, c, srv.URL)
	if err != nil || resp.StatusCode != 200 || string(body) != payload {
		t.Fatalf("request 4: resp=%v body=%q err=%v, want clean pass-through", resp, body, err)
	}
}

// TestMiddlewareDropAndReset: a dropped request (a partition window or
// a flap down window) never reaches the handler, and the client gets an
// error; a reset request runs the handler exactly once, and the client
// gets no intact body — the work happened, the answer was lost.
func TestMiddlewareDropAndReset(t *testing.T) {
	const payload = "payload"
	for _, tc := range []struct {
		name, sched string
		before      int   // clean requests served ahead of the faulted one
		runs        int64 // handler runs the faulted request makes
	}{
		{"partition", "partition:from=0,to=1", 0, 0},
		{"flap-down", "flap:up=1,down=1", 1, 0},
		{"reset", "reset:count=1", 0, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// The handler runs on the server's goroutine.
			var runs atomic.Int64
			srv := httptest.NewServer(Middleware(New(mustParse(t, tc.sched), 1), http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				runs.Add(1)
				io.WriteString(w, payload)
			})))
			defer srv.Close()
			// Fresh connection per request, as in TestMiddlewareFaults: a
			// retried request would both shift the injector's indices and
			// run the handler twice.
			tr := &http.Transport{DisableKeepAlives: true}
			defer tr.CloseIdleConnections()
			c := &http.Client{Transport: tr}

			for i := range tc.before {
				if _, body, err := get(t, c, srv.URL); err != nil || string(body) != payload {
					t.Fatalf("request %d: body=%q err=%v, want clean pass-through", i, body, err)
				}
			}
			served := runs.Load()
			_, body, err := get(t, c, srv.URL)
			if got := runs.Load() - served; got != tc.runs {
				t.Errorf("%s: handler ran %d times, want %d", tc.sched, got, tc.runs)
			}
			if tc.runs == 0 && err == nil {
				t.Errorf("%s: want an error for the dropped request, got body %q", tc.sched, body)
			}
			if err == nil && string(body) == payload {
				t.Errorf("%s: response survived intact", tc.sched)
			}
		})
	}
}

func TestMiddlewareCorruptDoesNotMutateHandlerBuffer(t *testing.T) {
	shared := []byte(strings.Repeat("c", 32))
	inj := New(mustParse(t, "corrupt:count=1"), 5)
	srv := httptest.NewServer(Middleware(inj, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write(shared)
	})))
	defer srv.Close()
	if _, _, err := get(t, srv.Client(), srv.URL); err != nil {
		t.Fatal(err)
	}
	if string(shared) != strings.Repeat("c", 32) {
		t.Fatalf("middleware mutated the handler's shared buffer: %q", shared)
	}
}

func TestMiddlewareStallSeversAfterHold(t *testing.T) {
	inj := New(mustParse(t, "stall:after=2,ms=50"), 1)
	srv := httptest.NewServer(Middleware(inj, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fl := http.NewResponseController(w)
		for i := 0; i < 5; i++ {
			io.WriteString(w, "line\n")
			fl.Flush()
		}
	})))
	defer srv.Close()
	start := time.Now()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil {
		t.Fatal("stall: stream completed cleanly, want severed connection")
	}
	if got := strings.Count(string(body), "\n"); got != 2 {
		t.Fatalf("stall:after=2 delivered %d lines, want 2", got)
	}
	if el := time.Since(start); el < 50*time.Millisecond {
		t.Fatalf("stall severed after %v, want >= 50ms hold", el)
	}
}

func TestMiddlewareLatencyRespectsClientCancel(t *testing.T) {
	inj := New(mustParse(t, "latency:ms=5000"), 1)
	handled := make(chan struct{}, 1)
	srv := httptest.NewServer(Middleware(inj, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		handled <- struct{}{}
	})))
	defer srv.Close()
	c := &http.Client{Timeout: 100 * time.Millisecond}
	start := time.Now()
	_, err := c.Get(srv.URL)
	if err == nil {
		t.Fatal("want client timeout error")
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("latency injection ignored client cancellation")
	}
	select {
	case <-handled:
		t.Fatal("handler ran despite cancelled delayed request")
	case <-time.After(50 * time.Millisecond):
	}
}
