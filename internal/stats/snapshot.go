package stats

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// Snapshot is one node of a metrics tree: a named bag of counters, float
// values, histograms and labels, plus child nodes. Every simulator
// component exports its statistics into a Snapshot, and the assembled
// tree serializes deterministically — nodes and metrics are sorted by
// name on export, so the JSON/CSV bytes for a given simulation are
// identical regardless of insertion order or worker count.
//
// Snapshots are plain data: build one per run/experiment, serialize it,
// throw it away. They are not safe for concurrent mutation.
type Snapshot struct {
	Name       string           `json:"name"`
	Labels     []NamedString    `json:"labels,omitempty"`
	Counters   []NamedCounter   `json:"counters,omitempty"`
	Values     []NamedValue     `json:"values,omitempty"`
	Histograms []NamedHistogram `json:"histograms,omitempty"`
	Children   []*Snapshot      `json:"children,omitempty"`
}

// NamedString is a string-valued annotation (benchmark name, scheme, …).
type NamedString struct {
	Name  string `json:"name"`
	Value string `json:"value"`
}

// NamedCounter is an integer event count.
type NamedCounter struct {
	Name  string `json:"name"`
	Value uint64 `json:"value"`
}

// NamedValue is a derived float metric (rates, ratios, IPC).
type NamedValue struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// NamedHistogram is the exported form of a Histogram.
type NamedHistogram struct {
	Name    string   `json:"name"`
	Total   uint64   `json:"total"`
	Sum     uint64   `json:"sum"`
	Max     uint64   `json:"max"`
	Mean    float64  `json:"mean"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Bucket is one histogram bucket. The final bucket of a histogram is
// open-ended and has Open set instead of an upper bound.
type Bucket struct {
	UpperBound uint64 `json:"le"`
	Open       bool   `json:"open,omitempty"`
	Count      uint64 `json:"count"`
}

// NewSnapshot creates an empty snapshot node.
func NewSnapshot(name string) *Snapshot { return &Snapshot{Name: name} }

// Child returns the child node with the given name, creating it if
// needed.
func (s *Snapshot) Child(name string) *Snapshot {
	for _, c := range s.Children {
		if c.Name == name {
			return c
		}
	}
	c := NewSnapshot(name)
	s.Children = append(s.Children, c)
	return c
}

// Label records a string annotation on the node.
func (s *Snapshot) Label(name, value string) {
	s.Labels = append(s.Labels, NamedString{Name: name, Value: value})
}

// Counter records an integer event count.
func (s *Snapshot) Counter(name string, v uint64) {
	s.Counters = append(s.Counters, NamedCounter{Name: name, Value: v})
}

// Value records a derived float metric.
func (s *Snapshot) Value(name string, v float64) {
	s.Values = append(s.Values, NamedValue{Name: name, Value: v})
}

// Histogram records a histogram's buckets and moments; nil histograms
// are skipped, so components can register optional histograms
// unconditionally.
func (s *Snapshot) Histogram(name string, h *Histogram) {
	if h == nil {
		return
	}
	nh := NamedHistogram{
		Name:  name,
		Total: h.Total,
		Sum:   h.Sum,
		Max:   h.Max,
		Mean:  h.Mean(),
	}
	for i, c := range h.Counts {
		b := Bucket{Count: c}
		if i < len(h.Bounds) {
			b.UpperBound = h.Bounds[i]
		} else {
			b.Open = true
		}
		nh.Buckets = append(nh.Buckets, b)
	}
	s.Histograms = append(s.Histograms, nh)
}

// sortTree orders every slice in the tree by name, in place, so that
// serialization does not depend on insertion order.
func (s *Snapshot) sortTree() {
	sort.Slice(s.Labels, func(i, j int) bool { return s.Labels[i].Name < s.Labels[j].Name })
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Values, func(i, j int) bool { return s.Values[i].Name < s.Values[j].Name })
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	sort.Slice(s.Children, func(i, j int) bool { return s.Children[i].Name < s.Children[j].Name })
	for _, c := range s.Children {
		c.sortTree()
	}
}

// JSON serializes the tree as indented JSON with all nodes and metrics
// sorted by name, in the layout Canonical fixes.
func (s *Snapshot) JSON() ([]byte, error) {
	s.sortTree()
	b, err := json.Marshal(s)
	if err != nil {
		return nil, err
	}
	return Canonical(b)
}

// Canonical lays out JSON text b the way JSON writes a snapshot:
// indented by two spaces, with a trailing newline. A snapshot carried
// compacted, as an NDJSON result event embeds it, so regains the bytes
// its JSON wrote.
func Canonical(b []byte) ([]byte, error) {
	var buf bytes.Buffer
	if err := json.Indent(&buf, b, "", "  "); err != nil {
		return nil, err
	}
	buf.WriteByte('\n')
	return buf.Bytes(), nil
}

// Export writes the snapshot to path: JSON by default, CSV when the
// path ends in .csv, and to stdout instead of a file when path is "-".
func (s *Snapshot) Export(path string, stdout io.Writer) error {
	if path == "-" {
		return s.export(stdout, false)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := s.export(f, strings.HasSuffix(path, ".csv")); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (s *Snapshot) export(w io.Writer, csv bool) error {
	if csv {
		return s.WriteCSV(w)
	}
	b, err := s.JSON()
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// WriteCSV flattens the tree to "path,metric,value" rows (header
// included), depth-first with all names sorted. Histograms emit one row
// per moment (total, sum, max, mean) and one per bucket (le_<bound> /
// overflow).
func (s *Snapshot) WriteCSV(w io.Writer) error {
	s.sortTree()
	if _, err := fmt.Fprintln(w, "path,metric,value"); err != nil {
		return err
	}
	return s.writeCSV(w, s.Name)
}

func (s *Snapshot) writeCSV(w io.Writer, path string) error {
	row := func(metric, value string) error {
		_, err := fmt.Fprintf(w, "%s,%s,%s\n", path, metric, value)
		return err
	}
	for _, l := range s.Labels {
		if err := row(l.Name, l.Value); err != nil {
			return err
		}
	}
	for _, c := range s.Counters {
		if err := row(c.Name, fmt.Sprintf("%d", c.Value)); err != nil {
			return err
		}
	}
	for _, v := range s.Values {
		if err := row(v.Name, fmt.Sprintf("%g", v.Value)); err != nil {
			return err
		}
	}
	for _, h := range s.Histograms {
		if err := row(h.Name+".total", fmt.Sprintf("%d", h.Total)); err != nil {
			return err
		}
		if err := row(h.Name+".sum", fmt.Sprintf("%d", h.Sum)); err != nil {
			return err
		}
		if err := row(h.Name+".max", fmt.Sprintf("%d", h.Max)); err != nil {
			return err
		}
		if err := row(h.Name+".mean", fmt.Sprintf("%g", h.Mean)); err != nil {
			return err
		}
		for _, b := range h.Buckets {
			name := fmt.Sprintf("%s.le_%d", h.Name, b.UpperBound)
			if b.Open {
				name = h.Name + ".overflow"
			}
			if err := row(name, fmt.Sprintf("%d", b.Count)); err != nil {
				return err
			}
		}
	}
	for _, c := range s.Children {
		if err := c.writeCSV(w, path+"/"+c.Name); err != nil {
			return err
		}
	}
	return nil
}

// Lookup walks the tree by child names and returns the node, or nil if
// any segment is missing (tests and tools).
func (s *Snapshot) Lookup(path ...string) *Snapshot {
	cur := s
	for _, name := range path {
		var next *Snapshot
		for _, c := range cur.Children {
			if c.Name == name {
				next = c
				break
			}
		}
		if next == nil {
			return nil
		}
		cur = next
	}
	return cur
}

// CounterValue returns the named counter's value on this node (0, false
// when absent).
func (s *Snapshot) CounterValue(name string) (uint64, bool) {
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value, true
		}
	}
	return 0, false
}
