package cluster

import (
	"errors"
	"fmt"
	"testing"
)

func TestRingDeterministicPlacement(t *testing.T) {
	build := func() *Ring {
		r := NewRing()
		r.Add("http://a:1")
		r.Add("http://b:1")
		r.Add("http://c:1")
		return r
	}
	r1, r2 := build(), build()
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("key-%d", i)
		h1, h2 := home(t, r1, key), home(t, r2, key)
		if h1 != h2 {
			t.Fatalf("placement of %q not deterministic: %q vs %q", key, h1, h2)
		}
	}
	// Insertion order must not matter either: the ring is a pure
	// function of its membership.
	r3 := NewRing()
	r3.Add("http://c:1")
	r3.Add("http://a:1")
	r3.Add("http://b:1")
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("key-%d", i)
		if h1, h3 := home(t, r1, key), home(t, r3, key); h1 != h3 {
			t.Fatalf("placement of %q depends on insertion order: %q vs %q", key, h1, h3)
		}
	}
}

func TestRingSpreadsKeys(t *testing.T) {
	r := NewRing()
	nodes := []string{"http://a:1", "http://b:1", "http://c:1", "http://d:1"}
	for _, n := range nodes {
		r.Add(n)
	}
	counts := make(map[string]int)
	const n = 4000
	for i := 0; i < n; i++ {
		counts[home(t, r, fmt.Sprintf("key-%d", i))]++
	}
	for _, node := range nodes {
		got := counts[node]
		// With 64 vnodes the arcs are smooth enough that no node should
		// stray past double or below half of the fair share.
		if got < n/len(nodes)/2 || got > n/len(nodes)*2 {
			t.Errorf("node %s owns %d of %d keys; want near %d", node, got, n, n/len(nodes))
		}
	}
}

// TestRingAddMovesOnlyToTheNewNode: a worker joining the ring (POST
// /v1/cluster/join) takes over keys, and every other key keeps its
// home, so the joined worker costs no other worker its warm cache.
func TestRingAddMovesOnlyToTheNewNode(t *testing.T) {
	r := NewRing()
	for _, n := range []string{"http://a:1", "http://b:1", "http://c:1"} {
		r.Add(n)
	}
	before := make(map[string]string)
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("key-%d", i)
		before[key] = home(t, r, key)
	}
	const joined = "http://d:1"
	r.Add(joined)
	moved := 0
	for key, prev := range before {
		switch now := home(t, r, key); now {
		case prev:
		case joined:
			moved++
		default:
			t.Fatalf("key %q moved from %s to %s, which is not the joined node", key, prev, now)
		}
	}
	if moved == 0 {
		t.Fatal("the joined node took over no key")
	}
}

func TestRingSequenceDistinctAndHomeFirst(t *testing.T) {
	r := NewRing()
	nodes := []string{"http://a:1", "http://b:1", "http://c:1"}
	for _, n := range nodes {
		r.Add(n)
	}
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("key-%d", i)
		seq := r.Sequence(key, 10)
		if len(seq) != len(nodes) {
			t.Fatalf("Sequence(%q) = %v; want all %d nodes", key, seq, len(nodes))
		}
		if h := home(t, r, key); seq[0] != h {
			t.Fatalf("Sequence(%q)[0] = %s; want home %s", key, seq[0], h)
		}
		seen := make(map[string]bool)
		for _, n := range seq {
			if seen[n] {
				t.Fatalf("Sequence(%q) repeats %s", key, n)
			}
			seen[n] = true
		}
	}
	if got := NewRing().Sequence("k", 3); got != nil {
		t.Errorf("Sequence on an empty ring = %v; want nil", got)
	}
}

// home is key's home node: the head of its ring sequence.
func home(t *testing.T, r *Ring, key string) string {
	t.Helper()
	seq := r.Sequence(key, 1)
	if len(seq) != 1 {
		t.Fatalf("Sequence(%q, 1) on a populated ring = %v", key, seq)
	}
	return seq[0]
}

func TestRegistryMarkDownAndRevive(t *testing.T) {
	g := NewRegistry(2, 0)
	g.Add("http://a:1")
	g.Add("http://b:1")
	errBoom := errors.New("boom")

	if down := g.ReportFailure("http://a:1", errBoom, false); down {
		t.Fatal("one failure below the threshold marked the worker down")
	}
	if down := g.ReportFailure("http://a:1", errBoom, false); !down {
		t.Fatal("two consecutive failures did not mark the worker down")
	}
	for _, url := range g.Up() {
		if url == "http://a:1" {
			t.Fatal("down worker listed as up")
		}
	}
	// Candidates route around the down worker…
	for i := 0; i < 50; i++ {
		for _, n := range g.Candidates(fmt.Sprintf("key-%d", i)) {
			if n == "http://a:1" {
				t.Fatal("down worker offered as a candidate while a live one exists")
			}
		}
	}
	// …and a probe success revives it.
	g.ReportSuccess("http://a:1")
	if len(g.Up()) != 2 {
		t.Fatalf("Up after revive = %v; want both workers", g.Up())
	}

	// With every worker down, candidates fall back to the full sequence
	// rather than refusing all work.
	g.ReportFailure("http://a:1", errBoom, true)
	g.ReportFailure("http://b:1", errBoom, true)
	if got := g.Candidates("key"); len(got) != 2 {
		t.Fatalf("Candidates with all workers down = %v; want the full sequence", got)
	}
}

func TestRegistryImmediateMarkDown(t *testing.T) {
	g := NewRegistry(3, 0)
	g.Add("http://a:1/")
	// Trailing slash normalizes away: same worker.
	if g.Add("http://a:1") {
		t.Fatal("re-adding a worker under a spelling variant created a second entry")
	}
	if down := g.ReportFailure("http://a:1", errors.New("connection refused"), true); !down {
		t.Fatal("an immediate failure did not mark the worker down")
	}
	ws := g.Workers()
	if len(ws) != 1 || !ws[0].Down || ws[0].MarkDowns != 1 {
		t.Fatalf("Workers = %+v; want one down worker with one mark-down", ws)
	}
	// A re-join (worker restarted) revives it.
	g.Add("http://a:1")
	if len(g.Up()) != 1 {
		t.Fatal("re-join did not revive the worker")
	}
}
