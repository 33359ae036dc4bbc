package cluster

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"

	"ctrpred/internal/server"
)

// Journal is a durable record of completed sweep cells: one JSONL line
// per finished cell, keyed by the cell's content address and carrying
// the canonical snapshot body plus its digest. A coordinator given a
// journal consults it before dispatching a cell and appends every cell
// it completes, so a coordinator killed mid-sweep and restarted over
// the same journal re-runs zero finished cells — the service-tier
// analogue of the paper's precomputation: work done ahead of (or
// before) the crash is never done again.
//
// The file is append-only and tolerant of a torn tail: a line that
// fails to parse or whose body does not match its recorded digest is
// skipped on load, and bytes after the last newline (an append cut short)
// are cut off before the next one, so a crash mid-append loses at most
// that one cell. Cell bodies are deterministic functions of their key, so
// replaying an entry is always safe and duplicate appends are harmless.
type Journal struct {
	mu      sync.Mutex
	f       *os.File
	entries map[string][]byte
}

// journalEntry is one JSONL line. Body is the canonical snapshot kept
// as a JSON string, not an embedded object: string escaping preserves
// the body's exact bytes (it is indented, multi-line JSON), where
// embedding would re-compact it and break both the digest and the
// byte-identity guarantee.
type journalEntry struct {
	Key    string `json:"key"`
	SHA256 string `json:"sha256"`
	Body   string `json:"body"`
}

// OpenJournal opens (creating if needed) the journal at path, loads
// every intact entry, and truncates a torn tail.
func OpenJournal(path string) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	j := &Journal{f: f, entries: make(map[string][]byte)}
	r := bufio.NewReader(f)
	var end int64 // offset just past the last complete line
	torn := false
	for {
		line, err := r.ReadBytes('\n')
		if err == io.EOF {
			// Every append ends in a newline, so bytes after the last
			// one are an append the crash cut short.
			torn = len(line) > 0
			break
		}
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("journal: %w", err)
		}
		end += int64(len(line))
		var e journalEntry
		if json.Unmarshal(line, &e) == nil && e.Key != "" &&
			server.BodyDigest([]byte(e.Body)) == e.SHA256 {
			j.entries[e.Key] = []byte(e.Body)
		}
		// Anything else is a corrupted line; skip it.
	}
	if torn {
		// Cut the fragment, or the next append would be glued onto it
		// and lost with it on the following load.
		if err := f.Truncate(end); err != nil {
			f.Close()
			return nil, fmt.Errorf("journal: %w", err)
		}
	}
	if _, err := f.Seek(end, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("journal: %w", err)
	}
	return j, nil
}

// Get returns the journaled body for key, if any.
func (j *Journal) Get(key string) ([]byte, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	b, ok := j.entries[key]
	return b, ok
}

// Put records a completed cell, appending it durably. Re-putting a key
// already journaled is a no-op (the body is deterministic).
func (j *Journal) Put(key string, body []byte) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, ok := j.entries[key]; ok {
		return nil
	}
	line, err := json.Marshal(journalEntry{Key: key, SHA256: server.BodyDigest(body), Body: string(body)})
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	line = append(line, '\n')
	if _, err := j.f.Write(line); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	j.entries[key] = body
	return nil
}

// Len is the number of completed cells on record.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.entries)
}

// Close closes the underlying file. The journal must not be used after.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Close()
}
