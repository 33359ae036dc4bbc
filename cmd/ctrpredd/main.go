// Command ctrpredd serves the simulator as a long-lived HTTP/JSON job
// service: POST a simulation or experiment request, stream its progress
// as NDJSON, and fetch completed results from a content-addressed
// cache. See internal/server for the API surface.
//
// Usage:
//
//	ctrpredd -addr localhost:8844 -workers 4 -queue 8
//	ctrpredd -smoke            # boot, self-test one job over HTTP, exit
//
// Cluster mode (see internal/cluster): a coordinator fronts any number
// of plain ctrpredd workers behind the identical API, splitting
// experiment grids across them and routing every job to the worker
// whose cache owns its content address:
//
//	ctrpredd -addr :8845                        # worker A
//	ctrpredd -addr :8846                        # worker B
//	ctrpredd -coordinator -addr :8844 \
//	         -workers http://localhost:8845,http://localhost:8846
//
// Workers can also announce themselves to a running coordinator:
//
//	ctrpredd -addr :8847 -join http://localhost:8844
//
// A first session:
//
//	curl -s localhost:8844/v1/benchmarks | jq '.[].name'
//	curl -s -X POST localhost:8844/v1/sim?stream=1 \
//	     -d '{"bench":"mcf","scheme":"pred-context","instructions":1000000}'
//	curl -s localhost:8844/metrics | jq .
//
// SIGINT/SIGTERM drain gracefully: admission stops, running jobs get
// the -drain window to finish, then their contexts are cancelled and
// the simulator stops within one checkpoint interval.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ctrpred/internal/chaos"
	"ctrpred/internal/cluster"
	"ctrpred/internal/server"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ctrpredd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr    = fs.String("addr", "localhost:8844", "listen address")
		workers = fs.String("workers", "", "concurrent jobs (number, empty/0 = one per CPU); with -coordinator: comma-separated worker base URLs")
		queue   = fs.Int("queue", 0, "jobs queued beyond the running ones (0 = 2x workers, -1 = none); a full queue answers 429")
		cache   = fs.Int("cache", 256, "result-cache entries (-1 disables caching)")
		timeout = fs.Duration("timeout", 0, "default per-job deadline for requests that carry none (0 = unbounded; not with -coordinator)")
		drain   = fs.Duration("drain", 5*time.Second, "graceful-shutdown window before running jobs are cancelled")
		pprofF  = fs.Bool("pprof", false, "expose /debug/pprof (not with -coordinator)")
		smoke   = fs.Bool("smoke", false, "boot on an ephemeral port, push one job through the full HTTP path, verify the result and the cache, then exit")

		coord     = fs.Bool("coordinator", false, "serve as a cluster coordinator over the -workers URLs instead of simulating locally")
		join      = fs.String("join", "", "coordinator base URL to register this worker with at startup")
		advertise = fs.String("advertise", "", "base URL this worker is reachable at, for -join (default http://<listen addr>)")
		fanout    = fs.Int("fanout", 0, "coordinator: max in-flight experiment cells (0 = 2 per worker)")
		journal   = fs.String("journal", "", "coordinator: sweep-journal file; completed experiment cells persist here and survive restarts")
		localFB   = fs.Bool("local-fallback", true, "coordinator: run jobs in-process when every worker is down instead of failing")
		chaosStr  = fs.String("chaos", "", `fault-injection schedule (see internal/chaos), e.g. "latency:p=0.2,ms=500;err:p=0.1"; a coordinator injects on its worker connections, a worker on its served requests`)
		chaosSeed = fs.Uint64("chaos-seed", 1, "seed for the -chaos schedule's deterministic draws")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	var inj *chaos.Injector
	if *chaosStr != "" {
		sched, err := chaos.Parse(*chaosStr)
		if err != nil {
			fmt.Fprintf(stderr, "ctrpredd: -chaos: %v\n", err)
			return 2
		}
		inj = chaos.New(sched, *chaosSeed)
	}

	if *coord {
		if *smoke {
			fmt.Fprintln(stderr, "ctrpredd: -coordinator has no -smoke; the cluster self-test is go test ./internal/cluster -run TestClusterConcurrentStreamingClients")
			return 2
		}
		if *timeout != 0 || *pprofF {
			fmt.Fprintln(stderr, `ctrpredd: -coordinator takes no -timeout or -pprof; bound a job with its own "timeout" field`)
			return 2
		}
		urls := splitURLs(*workers)
		ccfg := cluster.Config{
			Workers:              urls,
			Fanout:               *fanout,
			Backlog:              *queue,
			CacheEntries:         *cache,
			DrainTimeout:         *drain,
			DisableLocalFallback: !*localFB,
		}
		if *journal != "" {
			j, err := cluster.OpenJournal(*journal)
			if err != nil {
				fmt.Fprintf(stderr, "ctrpredd: -journal: %v\n", err)
				return 1
			}
			defer j.Close()
			ccfg.Journal = j
			fmt.Fprintf(stdout, "ctrpredd: sweep journal %s holds %d cell(s)\n", *journal, j.Len())
		}
		if inj != nil {
			// The coordinator's side of chaos: every connection it makes to
			// a worker runs through the fault-injecting transport.
			ccfg.HTTPClient = &http.Client{Transport: chaos.NewTransport(nil, inj)}
			fmt.Fprintf(stdout, "ctrpredd: injecting faults on worker connections: %s (seed %d)\n", *chaosStr, *chaosSeed)
		}
		c := cluster.New(ccfg)
		fmt.Fprintf(stdout, "ctrpredd coordinator over %d worker(s)\n", len(urls))
		return serveLoop(c.ServeHTTP, c.Shutdown, *addr, *drain, stdout, stderr)
	}

	nWorkers, err := parseWorkerCount(*workers)
	if err != nil {
		fmt.Fprintf(stderr, "ctrpredd: -workers: %v\n", err)
		return 2
	}
	cfg := server.Config{
		Workers: nWorkers, Backlog: *queue, CacheEntries: *cache,
		DefaultTimeout: *timeout, DrainTimeout: *drain, EnablePprof: *pprofF,
	}
	if *smoke {
		return runSmoke(cfg, stdout, stderr)
	}

	s := server.New(cfg)
	handler := http.Handler(s)
	if inj != nil {
		// The worker's side of chaos: served requests fault before,
		// during, or after the real handler runs.
		handler = chaos.Middleware(inj, s)
		fmt.Fprintf(stdout, "ctrpredd: injecting faults on served requests: %s (seed %d)\n", *chaosStr, *chaosSeed)
	}
	onUp := func(base string) {
		if *join == "" {
			return
		}
		self := *advertise
		if self == "" {
			self = base
		}
		if err := joinCluster(*join, self); err != nil {
			fmt.Fprintf(stderr, "ctrpredd: join %s: %v (serving anyway)\n", *join, err)
			return
		}
		fmt.Fprintf(stdout, "ctrpredd: joined cluster at %s as %s\n", *join, self)
	}
	return serveLoopWith(handler.ServeHTTP, s.Shutdown, *addr, *drain, stdout, stderr, onUp)
}

// splitURLs parses the coordinator form of -workers.
func splitURLs(s string) []string {
	var out []string
	for _, u := range strings.Split(s, ",") {
		if u = strings.TrimSpace(u); u != "" {
			out = append(out, u)
		}
	}
	return out
}

// parseWorkerCount parses the daemon form of -workers. A URL here is
// almost certainly a forgotten -coordinator flag; say so.
func parseWorkerCount(s string) (int, error) {
	if s == "" {
		return 0, nil
	}
	if strings.Contains(s, "://") || strings.Contains(s, ",") {
		return 0, fmt.Errorf("%q looks like worker URLs; did you mean -coordinator?", s)
	}
	n, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("want a number (or URLs with -coordinator), got %q", s)
	}
	return n, nil
}

// joinCluster announces this worker to a coordinator, retrying briefly
// so worker and coordinator can boot in either order.
func joinCluster(coordinator, self string) error {
	body, err := json.Marshal(map[string]string{"url": self})
	if err != nil {
		return err
	}
	// Explicit per-request timeout: a hung coordinator must not wedge a
	// worker's startup indefinitely.
	hc := &http.Client{Timeout: 5 * time.Second}
	var lastErr error
	for attempt := 0; attempt < 10; attempt++ {
		if attempt > 0 {
			time.Sleep(500 * time.Millisecond)
		}
		resp, err := hc.Post(strings.TrimRight(coordinator, "/")+"/v1/cluster/join",
			"application/json", bytes.NewReader(body))
		if err != nil {
			lastErr = err
			continue
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			return nil
		}
		lastErr = fmt.Errorf("coordinator answered %d", resp.StatusCode)
		if resp.StatusCode == http.StatusBadRequest {
			return lastErr // malformed advertise URL will not improve with retries
		}
	}
	return lastErr
}

// serveLoop runs an http.Handler with graceful signal-driven shutdown.
func serveLoop(handler http.HandlerFunc, shutdown func(context.Context) error, addr string, drain time.Duration, stdout, stderr io.Writer) int {
	return serveLoopWith(handler, shutdown, addr, drain, stdout, stderr, nil)
}

// serveLoopWith is serveLoop plus an onUp hook invoked with the base
// URL once the listener is accepting (worker self-registration).
func serveLoopWith(handler http.HandlerFunc, shutdown func(context.Context) error, addr string, drain time.Duration, stdout, stderr io.Writer, onUp func(base string)) int {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fmt.Fprintf(stderr, "ctrpredd: %v\n", err)
		return 1
	}
	hs := &http.Server{Handler: handler, ReadHeaderTimeout: 10 * time.Second}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	fmt.Fprintf(stdout, "ctrpredd listening on http://%s\n", ln.Addr())
	if onUp != nil {
		onUp("http://" + ln.Addr().String())
	}

	select {
	case err := <-serveErr:
		fmt.Fprintf(stderr, "ctrpredd: serve: %v\n", err)
		return 1
	case <-ctx.Done():
	}
	stop() // a second signal now kills the process the default way

	fmt.Fprintf(stdout, "ctrpredd: draining (up to %s before jobs are cancelled)\n", drain)
	// Jobs first — Shutdown drains or cancels them, which lets in-flight
	// request handlers finish — then the HTTP listener.
	sdCtx, cancel := context.WithTimeout(context.Background(), drain+30*time.Second)
	defer cancel()
	if err := shutdown(sdCtx); err != nil {
		fmt.Fprintf(stderr, "ctrpredd: drain: %v\n", err)
		return 1
	}
	if err := hs.Shutdown(sdCtx); err != nil {
		fmt.Fprintf(stderr, "ctrpredd: http shutdown: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, "ctrpredd: bye")
	return 0
}

// runSmoke is the self-test behind -smoke: a real listener, a real
// streamed job, a real cache hit — the CI boot check without curl.
func runSmoke(cfg server.Config, stdout, stderr io.Writer) int {
	fail := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "ctrpredd smoke: FAIL: "+format+"\n", args...)
		return 1
	}
	s := server.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fail("listen: %v", err)
	}
	hs := &http.Server{Handler: s}
	go hs.Serve(ln)
	base := "http://" + ln.Addr().String()
	fmt.Fprintf(stdout, "ctrpredd smoke: listening on %s\n", base)

	const body = `{"bench":"mcf","scheme":"pred-context","footprint":"64K","instructions":30000,"seed":7}`

	// A streamed job must open with admission and close with a result.
	resp, err := http.Post(base+"/v1/sim?stream=1", "application/json", strings.NewReader(body))
	if err != nil {
		return fail("POST stream: %v", err)
	}
	var first, last server.Event
	events := 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev server.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			resp.Body.Close()
			return fail("bad stream line %q: %v", sc.Text(), err)
		}
		if events == 0 {
			first = ev
		}
		last = ev
		events++
	}
	resp.Body.Close()
	if err := sc.Err(); err != nil {
		return fail("stream read: %v", err)
	}
	if first.Event != "accepted" || first.Key == "" {
		return fail("first event = %+v, want accepted with key", first)
	}
	if last.Event != "result" || len(last.Snapshot) == 0 {
		return fail("terminal event = %+v, want result with snapshot", last)
	}
	fmt.Fprintf(stdout, "ctrpredd smoke: streamed %d events, result key %s\n", events, last.Key)

	// The identical request again must be answered from the cache.
	resp, err = http.Post(base+"/v1/sim", "application/json", strings.NewReader(body))
	if err != nil {
		return fail("POST repeat: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "hit" {
		return fail("repeat request: status %d, X-Cache %q, want 200/hit", resp.StatusCode, resp.Header.Get("X-Cache"))
	}
	fmt.Fprintln(stdout, "ctrpredd smoke: repeat request served from cache")

	hz, err := http.Get(base + "/healthz")
	if err != nil {
		return fail("GET healthz: %v", err)
	}
	io.Copy(io.Discard, hz.Body)
	hz.Body.Close()
	if hz.StatusCode != http.StatusOK {
		return fail("healthz = %d, want 200", hz.StatusCode)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		return fail("shutdown: %v", err)
	}
	if err := hs.Shutdown(ctx); err != nil {
		return fail("http shutdown: %v", err)
	}
	fmt.Fprintln(stdout, "ctrpredd smoke: PASS")
	return 0
}
