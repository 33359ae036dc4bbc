package spec

import (
	"encoding/json"
	"testing"

	"ctrpred/internal/sim"
)

// FuzzResolve decodes arbitrary bytes as a JSON job body into both spec
// types, the way the daemon does, and resolves them. Through Resolve it
// reaches every text grammar a body carries: ParseScheme, ParseEngine,
// ParsePlan, ParseRecovery, ParseArrival and ParseSize. Resolve must
// never panic, and an accepted body must survive a re-marshal: the
// re-encoded spec resolves to the same fingerprint (a run) or sweep key
// (a sweep). The committed corpus under testdata/fuzz holds the test
// bodies and the documented examples, and runs in plain `go test`.
//
//	go test ./internal/spec -run '^$' -fuzz FuzzResolve -fuzztime 30s
func FuzzResolve(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		var r Run
		if json.Unmarshal(body, &r) == nil {
			if bench, cfg, err := r.Resolve(); err == nil {
				var again Run
				roundTrip(t, r, &again)
				bench2, cfg2, err := again.Resolve()
				if err != nil {
					t.Fatalf("re-marshalled run %+v rejected: %v", again, err)
				}
				if sim.Fingerprint(bench, cfg) != sim.Fingerprint(bench2, cfg2) {
					t.Fatalf("re-marshalled run %+v moved its fingerprint", again)
				}
			}
		}
		var s Sweep
		if json.Unmarshal(body, &s) == nil {
			if key, err := s.CacheKey(); err == nil {
				var again Sweep
				roundTrip(t, s, &again)
				key2, err := again.CacheKey()
				if err != nil {
					t.Fatalf("re-marshalled sweep %+v rejected: %v", again, err)
				}
				if key != key2 {
					t.Fatalf("re-marshalled sweep %+v moved its key", again)
				}
			}
		}
	})
}

func roundTrip(t *testing.T, v, dst any) {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal %+v: %v", v, err)
	}
	if err := json.Unmarshal(b, dst); err != nil {
		t.Fatalf("unmarshal %s: %v", b, err)
	}
}
