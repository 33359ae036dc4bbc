package stats

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// buildTree assembles the same logical tree with metrics and children
// inserted in the given order; export must not care.
func buildTree(order []int) *Snapshot {
	root := NewSnapshot("run")
	type entry struct{ add func() }
	entries := []entry{
		{func() { root.Label("benchmark", "mcf") }},
		{func() { root.Counter("fetches", 100) }},
		{func() { root.Counter("evictions", 7) }},
		{func() { root.Value("ipc", 0.5) }},
		{func() {
			h := NewHistogram(1, 10, 100)
			h.Observe(5)
			h.Observe(50)
			h.Observe(500)
			root.Child("ctrl").Histogram("latency", h)
		}},
		{func() { root.Child("cpu").Counter("cycles", 2000) }},
		{func() { root.Child("cpu").Counter("instructions", 1000) }},
	}
	for _, i := range order {
		entries[i].add()
	}
	return root
}

func TestJSONDeterministicAcrossInsertionOrder(t *testing.T) {
	a, err := buildTree([]int{0, 1, 2, 3, 4, 5, 6}).JSON()
	if err != nil {
		t.Fatal(err)
	}
	b, err := buildTree([]int{6, 5, 4, 3, 2, 1, 0}).JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("JSON depends on insertion order:\n--- forward ---\n%s\n--- reverse ---\n%s", a, b)
	}
	if a[len(a)-1] != '\n' {
		t.Fatal("JSON missing trailing newline")
	}
	for _, want := range []string{`"benchmark"`, `"fetches"`, `"ipc"`, `"latency"`} {
		if !bytes.Contains(a, []byte(want)) {
			t.Fatalf("JSON missing %s:\n%s", want, a)
		}
	}
}

func TestWriteCSVShape(t *testing.T) {
	var buf bytes.Buffer
	if err := buildTree([]int{3, 0, 6, 4, 1, 5, 2}).WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if lines[0] != "path,metric,value" {
		t.Fatalf("header = %q", lines[0])
	}
	got := make(map[string]string)
	for _, l := range lines[1:] {
		parts := strings.SplitN(l, ",", 3)
		if len(parts) != 3 {
			t.Fatalf("malformed row %q", l)
		}
		got[parts[0]+","+parts[1]] = parts[2]
	}
	for key, want := range map[string]string{
		"run,benchmark":             "mcf",
		"run,fetches":               "100",
		"run,ipc":                   "0.5",
		"run/cpu,cycles":            "2000",
		"run/ctrl,latency.total":    "3",
		"run/ctrl,latency.sum":      "555",
		"run/ctrl,latency.max":      "500",
		"run/ctrl,latency.mean":     "185",
		"run/ctrl,latency.le_10":    "1",
		"run/ctrl,latency.overflow": "1",
	} {
		if got[key] != want {
			t.Errorf("CSV row %q = %q, want %q", key, got[key], want)
		}
	}
}

func TestChildGetOrCreate(t *testing.T) {
	root := NewSnapshot("r")
	a := root.Child("x")
	b := root.Child("x")
	if a != b {
		t.Fatal("Child created a duplicate node")
	}
	if len(root.Children) != 1 {
		t.Fatalf("%d children, want 1", len(root.Children))
	}
}

func TestLookupAndCounterValue(t *testing.T) {
	root := buildTree([]int{0, 1, 2, 3, 4, 5, 6})
	cpu := root.Lookup("cpu")
	if cpu == nil {
		t.Fatal("Lookup(cpu) = nil")
	}
	if v, ok := cpu.CounterValue("cycles"); !ok || v != 2000 {
		t.Fatalf("cycles = %d, %v", v, ok)
	}
	if _, ok := cpu.CounterValue("nonesuch"); ok {
		t.Fatal("absent counter reported present")
	}
	if root.Lookup("cpu", "nothere") != nil {
		t.Fatal("Lookup invented a node")
	}
	if root.Lookup() != root {
		t.Fatal("empty Lookup must return the receiver")
	}
}

func TestNilHistogramSkipped(t *testing.T) {
	n := NewSnapshot("x")
	n.Histogram("h", nil)
	if len(n.Histograms) != 0 {
		t.Fatal("nil histogram recorded")
	}
}

// TestExport: a path writes JSON, a .csv path writes CSV rows, and "-"
// writes JSON to the given stdout.
func TestExport(t *testing.T) {
	snap := buildTree([]int{0, 1, 2, 3, 4, 5, 6})
	js, err := snap.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var csv bytes.Buffer
	if err := snap.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for path, want := range map[string][]byte{
		filepath.Join(dir, "run.json"): js,
		filepath.Join(dir, "run.csv"):  csv.Bytes(),
	} {
		var stdout bytes.Buffer
		if err := snap.Export(path, &stdout); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) || stdout.Len() != 0 {
			t.Errorf("Export(%s) wrote %q (stdout %q), want %q", path, got, stdout.String(), want)
		}
	}
	var stdout bytes.Buffer
	if err := snap.Export("-", &stdout); err != nil || !bytes.Equal(stdout.Bytes(), js) {
		t.Errorf("Export(-) wrote %q, %v; want the JSON", stdout.String(), err)
	}
	if err := snap.Export(filepath.Join(dir, "missing", "run.json"), &stdout); err == nil {
		t.Error("Export into a missing directory succeeded")
	}
}
