package experiments

import (
	"encoding/json"
	"fmt"
	"slices"

	"ctrpred/internal/stats"
)

// This file is the reassembly half of distributed experiments. A
// cluster coordinator splits a grid into per-benchmark cells — each cell
// is the same experiment run with Benchmarks restricted to one name —
// dispatches the cells to worker nodes, and calls MergeParts to
// reassemble the full Result. Every simulation inside a cell is an
// isolated seeded machine, so a cell computes exactly the values the
// full run would have computed for that benchmark; the merge then hands
// the union to the grid's assemble, the code a single-node run builds
// its table with. The assembled Result — table string and Snapshot JSON
// — is byte-identical to a single-node RunExperimentContext of the full
// grid.

// Partitionable reports whether the experiment is a grid whose table
// decomposes into independent per-benchmark cells that MergeParts can
// reassemble. The averaged studies (ablation, ctxswitch, integrity,
// hybrid, seqsweep, valuepred) are grids too, but their results hold
// only averages, which cannot be split back into benchmarks; they, like
// the experiments whose rows are not benchmarks (attack classes, the
// static tables), run as a single cell on one node.
func Partitionable(id string) bool {
	e := find(id)
	return e != nil && e.grid != nil
}

// DecodeResultSnapshot parses a Result.Snapshot JSON body — the wire
// form a worker node returns — back into a Result. The table is not
// reconstructed (snapshots do not carry column order); MergeParts
// rebuilds it for the assembled whole.
func DecodeResultSnapshot(body []byte) (Result, error) {
	var snap stats.Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		return Result{}, fmt.Errorf("experiments: decoding result snapshot: %w", err)
	}
	res := Result{Series: make(map[string]map[string]float64)}
	for _, l := range snap.Labels {
		switch l.Name {
		case "id":
			res.ID = l.Value
		case "title":
			res.Title = l.Value
		case "notes":
			res.Notes = l.Value
		}
	}
	for _, c := range snap.Children {
		pts := make(map[string]float64, len(c.Values))
		for _, v := range c.Values {
			pts[v.Name] = v.Value
		}
		res.Series[c.Name] = pts
	}
	return res, nil
}

// MergeParts reassembles the full Result of a grid from per-benchmark
// parts (each a Result holding one or more benchmarks' rows, as decoded
// from a cell's snapshot). The parts' Average rows are artifacts of the
// split and are discarded; the grid's assemble lays out the union's rows
// in sorted benchmark order and re-accumulates the Average row, so the
// merged table and Snapshot are byte-identical to running the whole grid
// in one process. JSON round-trips are exact for float64, so parts that
// crossed the network merge without drift.
func MergeParts(id string, parts []Result) (Result, error) {
	e := find(id)
	if e == nil || e.grid == nil {
		return Result{}, fmt.Errorf("experiments: %q does not partition by benchmark", id)
	}
	g := e.grid
	if len(parts) == 0 {
		return Result{}, fmt.Errorf("experiments: no parts to merge for %q", id)
	}
	series := make(map[string]map[string]float64, len(g.cols))
	for _, name := range g.cols {
		series[name] = make(map[string]float64)
	}
	var benchmarks []string
	for _, p := range parts {
		if p.ID != g.id {
			return Result{}, fmt.Errorf("experiments: merging a %q part into %s (%q)", p.ID, id, g.id)
		}
		for _, name := range g.cols {
			for bench, v := range p.Series[name] {
				if bench == "Average" {
					continue
				}
				if prev, ok := series[name][bench]; ok && prev != v {
					return Result{}, fmt.Errorf("experiments: %s: parts disagree on %s/%s: %g vs %g", id, name, bench, prev, v)
				}
				series[name][bench] = v
				benchmarks = append(benchmarks, bench)
			}
		}
	}
	slices.Sort(benchmarks)
	return g.assemble(parts[0].Title, parts[0].Notes, slices.Compact(benchmarks), series)
}
