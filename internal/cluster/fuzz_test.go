package cluster

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"ctrpred/internal/server"
)

// FuzzJournalReload writes arbitrary bytes as a journal file and checks
// the reload contract: OpenJournal never fails or panics on them; it
// loads exactly the newline-terminated lines that parse with a matching
// digest (a later line wins a repeated key, as on load); and a Put after
// the open survives a reopen, whatever tail the file had. The committed
// corpus under testdata/fuzz holds intact, torn, corrupt, duplicate and
// empty files, and runs in plain `go test`.
//
//	go test ./internal/cluster -run '^$' -fuzz FuzzJournalReload -fuzztime 30s
func FuzzJournalReload(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "journal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		want := map[string]string{}
		for _, line := range bytes.SplitAfter(data, []byte("\n")) {
			if !bytes.HasSuffix(line, []byte("\n")) {
				continue // a torn tail
			}
			var e journalEntry
			if json.Unmarshal(line, &e) == nil && e.Key != "" &&
				server.BodyDigest([]byte(e.Body)) == e.SHA256 {
				want[e.Key] = e.Body
			}
		}

		j, err := OpenJournal(path)
		if err != nil {
			t.Fatalf("OpenJournal(%q): %v", data, err)
		}
		checkJournal(t, "open", j, want)
		const key, body = "fuzz-put", `{"put":1}`
		if _, ok := want[key]; !ok {
			want[key] = body
		}
		if err := j.Put(key, []byte(body)); err != nil {
			t.Fatal(err)
		}
		j.Close()

		j2, err := OpenJournal(path)
		if err != nil {
			t.Fatalf("reopen after Put: %v", err)
		}
		defer j2.Close()
		checkJournal(t, "reopen", j2, want)
	})
}

// checkJournal asserts j holds exactly the entries of want.
func checkJournal(t *testing.T, when string, j *Journal, want map[string]string) {
	t.Helper()
	if j.Len() != len(want) {
		t.Fatalf("%s: Len = %d; want %d", when, j.Len(), len(want))
	}
	for k, v := range want {
		if got, ok := j.Get(k); !ok || string(got) != v {
			t.Fatalf("%s: Get(%q) = %q, %v; want %q", when, k, got, ok, v)
		}
	}
}
