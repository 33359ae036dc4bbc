package experiments

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ctrpred/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/experiments.golden")

const experimentsGolden = "experiments.golden"

// goldenOpts is the tiny scale every experiment id is frozen at.
func goldenOpts() Options {
	return Options{
		Scale:      workload.Scale{Footprint: 64 << 10, Instructions: 5_000},
		Benchmarks: []string{"gzip", "mcf", "swim"},
		Seed:       1,
		Workers:    2,
	}
}

// TestExperimentsGolden pins every experiment id's rendered table and
// metrics-snapshot JSON by sha256 against testdata/experiments.golden:
// one "id table-digest snapshot-digest" line per id. Any change to the
// grids, the configurations they assemble or the models they run shows
// up as a digest mismatch. Regenerate with
//
//	go test ./internal/experiments -run TestExperimentsGolden -update
//
// only when an intentional modeling change alters the numbers.
func TestExperimentsGolden(t *testing.T) {
	want := map[string][2]string{}
	if !*updateGolden {
		want = readExperimentsGolden(t)
	}
	var out bytes.Buffer
	for _, id := range IDs() {
		var table, snap string
		t.Run(id, func(t *testing.T) {
			res, err := ByID(context.Background(), id, goldenOpts())
			if err != nil {
				t.Fatalf("ByID: %v", err)
			}
			js, err := res.Snapshot().JSON()
			if err != nil {
				t.Fatal(err)
			}
			table, snap = digest([]byte(res.Table.String())), digest(js)
			if *updateGolden {
				return
			}
			if w, ok := want[id]; !ok {
				t.Errorf("no digests in %s (run with -update)", experimentsGolden)
			} else if table != w[0] || snap != w[1] {
				t.Errorf("digests table %s snapshot %s, golden %s %s", table, snap, w[0], w[1])
			}
		})
		fmt.Fprintf(&out, "%s %s %s\n", id, table, snap)
	}
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join("testdata", experimentsGolden), out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if len(want) != len(IDs()) {
		t.Errorf("%s holds %d ids, want %d (run with -update)", experimentsGolden, len(want), len(IDs()))
	}
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func readExperimentsGolden(t *testing.T) map[string][2]string {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", experimentsGolden))
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	defer f.Close()
	want := map[string][2]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) != 3 {
			t.Fatalf("malformed golden line %q", sc.Text())
		}
		want[fields[0]] = [2]string{fields[1], fields[2]}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}
