// Command loadtest drives in-process ctrpredd clusters with swarms of
// concurrent streaming clients and reports what the cluster actually
// delivers: request throughput, p50/p99 latency, cache-hit ratio, and
// — the part that matters most — byte-identity of every response
// against a direct single-node library run.
//
// For each requested cluster size it boots that many real workers plus
// a coordinator on loopback listeners (no processes, no ports to
// clean up), then runs three phases:
//
//	cold    every request's first arrival; all simulation
//	warm    the identical request set again; should be ~all cache
//	verify  every unique request re-POSTed plain and compared byte for
//	        byte against experiments.ByID run in this process
//
// Usage:
//
//	go run ./cmd/loadtest                      # nodes 1,2,4 report
//	go run ./cmd/loadtest -smoke               # 2-worker self-test, seconds
//	go run ./cmd/loadtest -bench | go run ./cmd/benchjson -label pr8-cluster
//
// Scaling note: cells parallelize across workers, so sweep throughput
// approaches linear only when each worker has real CPU cores behind its
// pool. On a single-core host the workers time-share one CPU and the
// cluster's win is bounded to cache cooperation and overlap of I/O with
// compute; the harness reports whatever the host truly delivers.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"ctrpred/internal/chaos"
	"ctrpred/internal/cluster"
	"ctrpred/internal/experiments"
	"ctrpred/internal/server"
	"ctrpred/internal/stats"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	nodes       []int
	clients     int
	requests    int
	seeds       int
	id          string
	benches     []string
	instr       uint64
	footprint   string
	workerSlots int
	bench       bool
	smoke       bool
	chaosSched  chaos.Schedule
	chaosOn     bool
	chaosSeed   uint64
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("loadtest", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		nodesF    = fs.String("nodes", "1,2,4", "comma-separated cluster sizes to drive")
		clients   = fs.Int("clients", 32, "concurrent streaming clients")
		requests  = fs.Int("requests", 48, "requests per phase (cycled over -seeds distinct configs)")
		seeds     = fs.Int("seeds", 4, "distinct request configurations (seed-varied)")
		id        = fs.String("id", "fig7", "experiment id the clients request")
		benchesF  = fs.String("benches", "gzip,mcf,swim", "benchmark grid per request")
		instr     = fs.Uint64("instr", 2_000, "instructions per simulation")
		footprint = fs.String("footprint", "1M", "working-set footprint per simulation")
		slots     = fs.Int("worker-slots", 2, "concurrent jobs per worker node")
		benchOut  = fs.Bool("bench", false, "emit go test -bench result lines (pipe into cmd/benchjson)")
		smoke     = fs.Bool("smoke", false, "quick 2-worker self-test: assert byte-identity and a >=95% warm-cache ratio, then exit")
		chaosStr  = fs.String("chaos", "", `fault schedule injected on the coordinator's worker connections (see internal/chaos), e.g. "latency:p=0.1,ms=100;err:p=0.05"`)
		chaosSeed = fs.Uint64("chaos-seed", 1, "seed for the -chaos schedule's deterministic draws")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	opt := options{
		clients: *clients, requests: *requests, seeds: *seeds,
		id: *id, instr: *instr, footprint: *footprint,
		workerSlots: *slots, bench: *benchOut, smoke: *smoke,
		chaosSeed: *chaosSeed,
	}
	if *chaosStr != "" {
		sched, err := chaos.Parse(*chaosStr)
		if err != nil {
			fmt.Fprintf(stderr, "loadtest: -chaos: %v\n", err)
			return 2
		}
		opt.chaosSched, opt.chaosOn = sched, true
	}
	for _, b := range strings.Split(*benchesF, ",") {
		if b = strings.TrimSpace(b); b != "" {
			opt.benches = append(opt.benches, b)
		}
	}
	for _, n := range strings.Split(*nodesF, ",") {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		v, err := strconv.Atoi(n)
		if err != nil || v < 1 {
			fmt.Fprintf(stderr, "loadtest: bad -nodes entry %q\n", n)
			return 2
		}
		opt.nodes = append(opt.nodes, v)
	}
	if opt.smoke {
		opt.nodes = []int{2}
		if opt.requests > 16 {
			opt.requests = 16
		}
		if opt.clients > 8 {
			opt.clients = 8
		}
	}
	if len(opt.nodes) == 0 || opt.seeds < 1 || opt.requests < 1 || opt.clients < 1 {
		fmt.Fprintln(stderr, "loadtest: need at least one node count, seed, request and client")
		return 2
	}

	var baseline float64
	failed := false
	for i, n := range opt.nodes {
		res, err := driveCluster(opt, n, stdout)
		if err != nil {
			fmt.Fprintf(stderr, "loadtest: %d-worker cluster: %v\n", n, err)
			failed = true
			continue
		}
		if i == 0 {
			baseline = res.coldThroughput
		}
		report(stdout, opt, n, res, baseline)
		if opt.bench {
			emitBench(stdout, opt, n, res)
		}
		if opt.smoke {
			if res.verifyMismatches > 0 {
				fmt.Fprintf(stderr, "loadtest smoke: FAIL: %d response(s) not byte-identical to single-node\n", res.verifyMismatches)
				failed = true
			}
			if res.warmHitRatio < 0.95 {
				fmt.Fprintf(stderr, "loadtest smoke: FAIL: warm cache-hit ratio %.1f%% < 95%%\n", 100*res.warmHitRatio)
				failed = true
			}
			if res.errors > 0 {
				fmt.Fprintf(stderr, "loadtest smoke: FAIL: %d request error(s)\n", res.errors)
				failed = true
			}
		}
	}
	if failed {
		return 1
	}
	if opt.smoke {
		fmt.Fprintln(stdout, "loadtest smoke: PASS")
	}
	return 0
}

// result is one cluster size's measurements.
type result struct {
	requests       int
	coldThroughput float64 // req/s
	coldP50, coldP99,
	warmP50, warmP99 float64 // ms
	warmThroughput   float64
	warmHitRatio     float64
	errors           int
	verifyMismatches int
	verified         int
	coldWall         time.Duration
}

// request builds the i-th client request: the same grid under a
// distinct seed, so each config is its own content address.
func (o options) request(i int) server.ExperimentRequest {
	return server.ExperimentRequest{
		ID:           o.id,
		Benchmarks:   o.benches,
		Instructions: o.instr,
		Footprint:    o.footprint,
		Seed:         uint64(1 + i%o.seeds),
		Workers:      o.workerSlots,
	}
}

// driveCluster boots an n-worker cluster and runs the three phases.
func driveCluster(opt options, n int, stdout io.Writer) (result, error) {
	var res result

	workers := make([]*httptest.Server, n)
	urls := make([]string, n)
	servers := make([]*server.Server, n)
	for i := range workers {
		servers[i] = server.New(server.Config{Workers: opt.workerSlots, DrainTimeout: 2 * time.Second})
		workers[i] = httptest.NewServer(servers[i])
		urls[i] = workers[i].URL
	}
	ccfg := cluster.Config{
		Workers:           urls,
		MaxRetryWait:      200 * time.Millisecond,
		SaturationRetries: 10_000, // saturation is expected under load; wait it out
		Jobs:              2 * opt.clients,
	}
	if opt.chaosOn {
		// Faults ride the coordinator's worker connections; a deeper
		// redispatch budget absorbs the injected failures so the clients
		// still see only clean answers.
		ccfg.HTTPClient = &http.Client{Transport: chaos.NewTransport(nil, chaos.New(opt.chaosSched, opt.chaosSeed))}
		ccfg.RetryBudget = 12
		ccfg.BreakerCooldown = 250 * time.Millisecond
	}
	coord := cluster.New(ccfg)
	front := httptest.NewServer(coord)
	defer func() {
		front.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		coord.Shutdown(ctx)
		for i := range workers {
			workers[i].Close()
			servers[i].Shutdown(ctx)
		}
	}()

	hc := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        4 * opt.clients,
		MaxIdleConnsPerHost: 2 * opt.clients,
	}}

	cold, err := runPhase(opt, front.URL, hc)
	if err != nil {
		return res, fmt.Errorf("cold phase: %w", err)
	}
	warm, err := runPhase(opt, front.URL, hc)
	if err != nil {
		return res, fmt.Errorf("warm phase: %w", err)
	}

	res.requests = opt.requests
	res.coldWall = cold.wall
	res.coldThroughput = float64(opt.requests) / cold.wall.Seconds()
	res.warmThroughput = float64(opt.requests) / warm.wall.Seconds()
	res.coldP50 = stats.Percentile(cold.latencies, 0.50)
	res.coldP99 = stats.Percentile(cold.latencies, 0.99)
	res.warmP50 = stats.Percentile(warm.latencies, 0.50)
	res.warmP99 = stats.Percentile(warm.latencies, 0.99)
	res.warmHitRatio = stats.Rate(uint64(warm.hits), uint64(opt.requests))
	res.errors = cold.errors + warm.errors

	// Verify: every unique config plain-POSTed and compared byte for
	// byte with the in-process single-node run.
	for s := 0; s < opt.seeds; s++ {
		req := opt.request(s)
		refOpt, err := req.Resolve()
		if err != nil {
			return res, err
		}
		ref, err := experiments.ByID(context.Background(), opt.id, refOpt)
		if err != nil {
			return res, fmt.Errorf("reference run seed %d: %w", req.Seed, err)
		}
		want, err := ref.Snapshot().JSON()
		if err != nil {
			return res, err
		}
		body, err := json.Marshal(req)
		if err != nil {
			return res, err
		}
		resp, err := hc.Post(front.URL+"/v1/experiments", "application/json", bytes.NewReader(body))
		if err != nil {
			return res, fmt.Errorf("verify POST seed %d: %w", req.Seed, err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return res, err
		}
		res.verified++
		if resp.StatusCode != http.StatusOK || !bytes.Equal(got, want) {
			res.verifyMismatches++
		}
	}
	return res, nil
}

// phaseStats is one phase's raw measurements.
type phaseStats struct {
	wall      time.Duration
	latencies []float64 // ms
	hits      int
	errors    int
}

// runPhase fires opt.requests streaming requests through opt.clients
// concurrent clients and collects per-request latency and cache
// disposition.
func runPhase(opt options, base string, hc *http.Client) (phaseStats, error) {
	var (
		ps   phaseStats
		mu   sync.Mutex
		wg   sync.WaitGroup
		work = make(chan int)
	)
	start := time.Now()
	for c := 0; c < opt.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				t0 := time.Now()
				cached, err := streamOnce(hc, base, opt.request(i))
				lat := float64(time.Since(t0)) / float64(time.Millisecond)
				mu.Lock()
				ps.latencies = append(ps.latencies, lat)
				if err != nil {
					ps.errors++
				} else if cached {
					ps.hits++
				}
				mu.Unlock()
			}
		}()
	}
	for i := 0; i < opt.requests; i++ {
		work <- i
	}
	close(work)
	wg.Wait()
	ps.wall = time.Since(start)
	if ps.errors > 0 {
		return ps, fmt.Errorf("%d of %d requests failed", ps.errors, opt.requests)
	}
	return ps, nil
}

// streamOnce runs one streaming request to completion, reporting
// whether it was answered from cache (the accepted or terminal event
// says so).
func streamOnce(hc *http.Client, base string, req server.ExperimentRequest) (cached bool, err error) {
	body, err := json.Marshal(req)
	if err != nil {
		return false, err
	}
	resp, err := hc.Post(base+"/v1/experiments?stream=1", "application/json", bytes.NewReader(body))
	if err != nil {
		return false, err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		return false, fmt.Errorf("status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	var last server.Event
	for sc.Scan() {
		var ev server.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return false, fmt.Errorf("bad stream line: %w", err)
		}
		if ev.Cached {
			cached = true
		}
		last = ev
	}
	if err := sc.Err(); err != nil {
		return false, err
	}
	if last.Event != "result" {
		return false, fmt.Errorf("terminal event %q: %s", last.Event, last.Error)
	}
	return cached, nil
}

func report(w io.Writer, opt options, n int, res result, baseline float64) {
	speedup := 0.0
	if baseline > 0 {
		speedup = res.coldThroughput / baseline
	}
	fmt.Fprintf(w, "cluster nodes=%d clients=%d requests=%d id=%s seeds=%d\n",
		n, opt.clients, opt.requests, opt.id, opt.seeds)
	fmt.Fprintf(w, "  cold: %6.2f req/s  p50 %8.1f ms  p99 %8.1f ms  (%.2fx vs %d-node baseline)\n",
		res.coldThroughput, res.coldP50, res.coldP99, speedup, opt.nodes[0])
	fmt.Fprintf(w, "  warm: %6.2f req/s  p50 %8.1f ms  p99 %8.1f ms  cache-hit %5.1f%%\n",
		res.warmThroughput, res.warmP50, res.warmP99, 100*res.warmHitRatio)
	fmt.Fprintf(w, "  verify: %d/%d byte-identical to single-node\n",
		res.verified-res.verifyMismatches, res.verified)
}

// emitBench prints the run in `go test -bench` line format so
// cmd/benchjson can append it to the ledger. Chaos runs get their own
// benchmark family: their latencies measure resilience overhead, not
// clean-path throughput, and must not be compared against it.
func emitBench(w io.Writer, opt options, n int, res result) {
	name := "BenchmarkClusterSweepNodes"
	if opt.chaosOn {
		name = "BenchmarkClusterChaosNodes"
	}
	nsPerReq := int64(res.coldWall) / int64(res.requests)
	fmt.Fprintf(w, "%s%d \t%d\t%d ns/op\t%.2f req/s\t%.1f cold_p99_ms\t%.1f warm_p50_ms\t%.1f warm_hit_pct\n",
		name, n, res.requests, nsPerReq, res.coldThroughput, res.coldP99, res.warmP50, 100*res.warmHitRatio)
}
