package server

import (
	"bufio"
	"bytes"
	"context"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ctrpred/internal/runpool"
	"ctrpred/internal/stats"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/keys.golden")

const keysGolden = "keys.golden"

// keyCases are the job bodies whose X-Result-Key TestResultKeysGolden
// freezes. Bodies are raw JSON, so the table does not depend on how the
// request types are declared. Each row names what it covers; several
// rows spell a default another row omits and must share its key.
var keyCases = []struct{ name, url, body string }{
	{"sim-baseline-omitted", "/v1/sim", `{"bench":"mcf","scheme":"baseline"}`},
	{"sim-baseline-spelled", "/v1/sim", `{"bench":"mcf","scheme":"baseline","engine":"aes","l2":"256K","footprint":"2M","instructions":2000000,"mode":"performance","seed":1,"flush_interval":25000000,"recovery":"halt"}`},
	{"sim-result-neutral", "/v1/sim", `{"bench":"mcf","scheme":"baseline","check_interval":1000,"timeout":"30s"}`},
	{"sim-oracle-hitrate", "/v1/sim", `{"bench":"gzip","scheme":"oracle","mode":"hitrate","instructions":50000,"footprint":"256K"}`},
	{"sim-direct-integrity", "/v1/sim", `{"bench":"swim","scheme":"direct","integrity":true,"instructions":40000,"footprint":"128K","seed":3}`},
	{"sim-seqcache-hitrate-1M", "/v1/sim", `{"bench":"twolf","scheme":"seqcache:128K","mode":"hitrate","l2":"1M"}`},
	{"sim-pred-regular-seed", "/v1/sim", `{"bench":"gcc","scheme":"pred-regular","instructions":100000,"seed":9}`},
	{"sim-pred-twolevel-flush", "/v1/sim", `{"bench":"bzip2","scheme":"pred-twolevel","instructions":100000,"flush_interval":10000}`},
	{"sim-pred-context-swim", "/v1/sim", `{"bench":"swim","scheme":"pred-context","instructions":200000,"footprint":"256K"}`},
	{"sim-combined-sealer", "/v1/sim", `{"bench":"art","scheme":"combined:32K","engine":"sealer:banks=4,lat=100"}`},
	{"sim-aes-params", "/v1/sim", `{"bench":"mcf","scheme":"pred-context","engine":"aes:lat=48,issue=2"}`},
	{"sim-bipbip-seed0", "/v1/sim", `{"bench":"mcf","scheme":"pred-context","engine":"bipbip:lat=6","seed":0}`},
	{"sim-faults-quarantine", "/v1/sim", `{"bench":"gzip","scheme":"pred-regular","faults":"bitflip@fetch:100,replay@instr:5000","recovery":"quarantine","retry_budget":3,"instructions":100000,"footprint":"256K"}`},
	{"sim-service-mix", "/v1/sim", `{"bench":"swim","scheme":"seqcache:32K","engine":"sealer","seed":17,"instructions":20000,"footprint":"512K"}`},
	{"exp-fig7-omitted-benchmarks", "/v1/experiments", `{"id":"fig7"}`},
	{"exp-fig7-explicit-benchmarks", "/v1/experiments", `{"id":"fig7","benchmarks":["ammp","applu","art","bzip2","gcc","gzip","mcf","mgrid","parser","swim","twolf","vortex","vpr","wupwise"]}`},
	{"exp-fig7-tenancy-fields-ignored", "/v1/experiments", `{"id":"fig7","benchmarks":["mcf"],"arrival":"bursty","slo_max_slowdown":3}`},
	{"exp-fig10-scaled-bipbip", "/v1/experiments", `{"id":"fig10","benchmarks":["mcf","gzip"],"instructions":20000,"footprint":"1M","seed":5,"engine":"bipbip"}`},
	{"exp-engines-executor-fields", "/v1/experiments", `{"id":"engines","benchmarks":["mcf"],"workers":4,"sim_timeout":"10s","timeout":"1m","engine":"sealer"}`},
	{"exp-tenants-bursty", "/v1/experiments", `{"id":"tenants","benchmarks":["gzip","mcf"],"arrival":"bursty","max_tenants":3,"slo_max_slowdown":2}`},
	{"exp-capacity-slo", "/v1/experiments", `{"id":"capacity","benchmarks":["gzip"],"instructions":5000,"arrival":"bursty","max_tenants":3,"slo_max_slowdown":2,"slo_p99_fetch":500}`},
	{"exp-capacity-defaults-omitted", "/v1/experiments", `{"id":"capacity","benchmarks":["gzip"],"instructions":5000}`},
	{"exp-capacity-defaults-spelled", "/v1/experiments", `{"id":"capacity","benchmarks":["gzip"],"instructions":5000,"arrival":"poisson","max_tenants":8,"slo_max_slowdown":8}`},
	{"exp-service-mix", "/v1/experiments", `{"id":"fig7","benchmarks":["mcf","swim","gzip"],"instructions":2000,"footprint":"1M","seed":1001,"workers":1}`},
}

// stubExecutor answers every job at once without simulating, so the
// front's admission path (decode, resolve, content address) is all a
// request exercises.
type stubExecutor struct{}

func (stubExecutor) Sim(context.Context, *SimJob, func(Event)) (Result, error) {
	return Result{Body: []byte("{}\n")}, nil
}
func (stubExecutor) Experiment(context.Context, *ExperimentJob, func(Event)) (Result, error) {
	return Result{Body: []byte("{}\n")}, nil
}
func (stubExecutor) Lookup(context.Context, string) ([]byte, bool) { return nil, false }
func (stubExecutor) Health(runpool.PoolStats) (map[string]any, bool) {
	return map[string]any{}, false
}
func (stubExecutor) Metrics(*stats.Snapshot) {}

// TestResultKeysGolden pins the X-Result-Key of every keyCases body
// against testdata/keys.golden: one "name key" line per body. A key is
// the content address the result cache, the coordinator's grid cells
// and the sweep journal file results under, so it must not move when
// the request grammar is refactored. Regenerate with
//
//	go test ./internal/server -run TestResultKeysGolden -update
//
// only when an intentional change to what a body means alters a key.
func TestResultKeysGolden(t *testing.T) {
	want := map[string]string{}
	if !*updateGolden {
		want = readKeysGolden(t)
	}
	s := NewFront("keys", Config{Workers: 1}, stubExecutor{})
	t.Cleanup(func() { s.Shutdown(context.Background()) })
	var out bytes.Buffer
	for _, tc := range keyCases {
		var key string
		t.Run(tc.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, tc.url, strings.NewReader(tc.body)))
			if rec.Code != http.StatusOK {
				t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
			}
			key = rec.Header().Get("X-Result-Key")
			if len(key) != 64 {
				t.Fatalf("X-Result-Key = %q, want a sha256 hex digest", key)
			}
			if *updateGolden {
				return
			}
			if w, ok := want[tc.name]; !ok {
				t.Errorf("no key in %s (run with -update)", keysGolden)
			} else if key != w {
				t.Errorf("key %s, golden %s", key, w)
			}
		})
		fmt.Fprintf(&out, "%s %s\n", tc.name, key)
	}
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join("testdata", keysGolden), out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if len(want) != len(keyCases) {
		t.Errorf("%s holds %d keys, want %d (run with -update)", keysGolden, len(want), len(keyCases))
	}
}

func readKeysGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", keysGolden))
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, key, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("malformed golden line %q", sc.Text())
		}
		want[name] = key
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}
