package experiments

import (
	"context"
	"fmt"

	"ctrpred/internal/faults"
	"ctrpred/internal/predictor"
	"ctrpred/internal/runpool"
	"ctrpred/internal/secmem"
	"ctrpred/internal/sim"
	"ctrpred/internal/stats"
	"ctrpred/internal/workload"
)

// campaignAttacks is the number of scheduled attacks per campaign cell:
// enough firings for a meaningful latency mean without dominating the
// run with recovery traffic.
const campaignAttacks = 8

// campaignMinInstructions is the floor on the campaign's instruction
// budget. Replay attacks only become applicable once a line has been
// written back and later refetched, so a stale captured pair differs
// from the current off-chip state; below this window the trace may
// contain no such refetch and the campaign would report vacuous
// coverage. Like the hit-rate studies' ×20 window, this deliberately
// overrides very small Options.Scale values.
const campaignMinInstructions = 200_000

// campaignL2 keeps the campaign capacity-constrained: the footprint is
// pinned at four times this, so lines continually cycle through
// fetch → dirty → writeback → refetch. Periodic flushes alone leave
// lines resident-but-clean, a working set that fits in L2 is fetched
// exactly once, and a paper-scale working set is cold-miss dominated
// with evicted-dirty lines rarely refetched — in either regime replay
// attacks (which strike the line being fetched) could never apply.
const campaignL2 = 64 << 10

// campaignConfig builds the per-cell config: performance mode with the
// integrity tree armed and the quarantine policy, so every cell runs to
// completion and reports degradation counters instead of halting at the
// first detection.
func campaignConfig(opt Options, scheme sim.Scheme, plan *faults.Plan) sim.Config {
	cfg := perfConfig(opt, scheme, campaignL2).WithIntegrity()
	if cfg.Scale.Instructions < campaignMinInstructions {
		cfg.Scale.Instructions = campaignMinInstructions
		cfg.Mem.FlushInterval = campaignMinInstructions / 10
	}
	// Pinned, not floored: the campaign measures detection coverage, not
	// performance, and only this footprint:L2 ratio guarantees the
	// writeback→refetch traffic every attack class needs to apply.
	cfg.Scale.Footprint = 4 * campaignL2
	cfg.Recovery = secmem.RecoveryQuarantine
	cfg.Faults = plan
	return cfg
}

// campaignCell is one attack-class × scheme measurement.
type campaignCell struct {
	injected, detected uint64
	meanLatency        float64
	healed             uint64
	tamper, selfcheck  uint64
	padViolations      uint64
}

// campaignBench picks the workload the campaign corrupts. Replay
// attacks need a line to be written back and then refetched inside the
// campaign window before a captured stale pair differs from the current
// off-chip state, so the choice prefers write-heavy kernels with tight
// reuse (not memory-bound streamers, which touch each line once per
// pass and may not complete two passes in the window); any benchmark
// works for the other classes. names is sorted (Options.normalized), so
// the pick does not depend on the order the caller listed them in.
func campaignBench(names []string) string {
	pick := names[0]
	found := false
	for _, n := range names {
		s, ok := workload.Lookup(n)
		if !ok || !s.WriteHeavy {
			continue
		}
		if !s.MemoryBound {
			return n
		}
		if !found {
			pick, found = n, true
		}
	}
	return pick
}

// campaignPlan schedules n attacks of one class at spread fetch
// ordinals. An attack stays armed past its ordinal until it applies
// (e.g. replay waits for stale writeback history), so the schedule is a
// lower bound, not an exact firing list.
func campaignPlan(k faults.Kind, n int) *faults.Plan {
	p := &faults.Plan{}
	for i := 0; i < n; i++ {
		p.Attacks = append(p.Attacks, faults.Attack{
			Kind:    k,
			Trigger: faults.Trigger{Fetch: uint64(50 + 40*i)},
		})
	}
	return p
}

// AttackCampaign runs the adversarial detection-coverage matrix: every
// attack class of the threat model (plus a clean control row) against
// every scheme family, with the integrity tree enabled and the
// quarantine recovery policy so runs complete and report degradation
// counters. It asserts the security invariants rather than just
// reporting them: an injected-but-undetected attack, any tamper/
// self-check/pad event on a clean run, or any pad-reuse/self-check
// event during recovery on an attack run fails the experiment with an
// error.
func AttackCampaign(ctx context.Context, opt Options) (Result, error) {
	opt = opt.normalized()
	schemes := []sim.Scheme{
		sim.SchemeBaseline(),
		sim.SchemeSeqCache(32 << 10),
		sim.SchemePred(predictor.SchemeRegular),
		sim.SchemeCombined(32<<10, predictor.SchemeRegular),
		sim.SchemeDirect(),
	}
	kinds := faults.Kinds()
	rows := []string{"clean"}
	for _, k := range kinds {
		rows = append(rows, k.String())
	}
	bench := campaignBench(opt.Benchmarks)

	res := Result{
		ID:    "Attack campaign",
		Title: fmt.Sprintf("Detection coverage per attack class × scheme (benchmark %s, quarantine recovery)", bench),
		Notes: "Detection rate = detected/injected per class (clean row: security events, must be 0). " +
			"Rollback under direct encryption is vacuous (no counters exist to roll back). " +
			"Mean detection latency and heal counts are in the latency:/healed: series.",
		Series: map[string]map[string]float64{},
	}
	cols := append([]string{"attack"}, schemeNames(schemes)...)
	res.Table = stats.NewTable("Attack campaign — detection rate per attack class × scheme", cols...)
	for _, s := range schemes {
		res.Series[s.Name] = map[string]float64{}
		res.Series["latency:"+s.Name] = map[string]float64{}
		res.Series["healed:"+s.Name] = map[string]float64{}
	}

	var jobs []runpool.Job[campaignCell]
	for _, row := range rows {
		for _, sch := range schemes {
			var plan *faults.Plan
			if row != "clean" {
				k, err := faults.ParseKind(row)
				if err != nil {
					return Result{}, err
				}
				plan = campaignPlan(k, campaignAttacks)
			}
			jobs = append(jobs, runpool.Job[campaignCell]{
				Label: fmt.Sprintf("attack %s/%s", row, sch.Name),
				Fn: func(ctx context.Context) (campaignCell, error) {
					r, err := opt.runSim(ctx, bench, campaignConfig(opt, sch, plan))
					if err != nil {
						return campaignCell{}, fmt.Errorf("attack %s/%s: %w", row, sch.Name, err)
					}
					cell := campaignCell{
						tamper:        r.Ctrl.TamperDetected,
						selfcheck:     r.Ctrl.SelfCheckFails,
						padViolations: r.PadViolations,
					}
					if r.Security != nil {
						cell.healed = r.Security.Healed
					}
					if r.Faults != nil {
						cell.injected = r.Faults.TotalInjected()
						cell.detected = r.Faults.TotalDetected()
						var lat float64
						for _, k := range faults.Kinds() {
							if r.Faults.Detected[k] > 0 {
								lat = r.Faults.MeanLatency(k)
							}
						}
						cell.meanLatency = lat
					}
					return cell, nil
				},
			})
		}
	}
	cells, err := runpool.RunContext(ctx, opt.pool(), jobs)
	if err != nil {
		return Result{}, err
	}

	idx := 0
	for _, row := range rows {
		vals := make([]float64, len(schemes))
		for i, sch := range schemes {
			c := cells[idx]
			idx++
			if row == "clean" {
				events := c.tamper + c.selfcheck + c.padViolations
				if events != 0 {
					return Result{}, fmt.Errorf("attack campaign: clean run under %s raised %d security events (false positives)", sch.Name, events)
				}
				vals[i] = float64(events)
				res.Series[sch.Name][row] = vals[i]
				continue
			}
			if c.detected != c.injected {
				return Result{}, fmt.Errorf("attack campaign: %s under %s: %d injected but only %d detected",
					row, sch.Name, c.injected, c.detected)
			}
			// Recovery must never reuse a pad or corrupt architectural
			// state, regardless of which attack class triggered it.
			if c.padViolations != 0 || c.selfcheck != 0 {
				return Result{}, fmt.Errorf("attack campaign: %s under %s: recovery raised %d pad violations, %d self-check failures",
					row, sch.Name, c.padViolations, c.selfcheck)
			}
			vacuousOK := row == faults.Rollback.String() && sch.Direct
			if c.injected == 0 && !vacuousOK {
				return Result{}, fmt.Errorf("attack campaign: %s under %s: no attack became applicable (0 injected)", row, sch.Name)
			}
			rate := 1.0
			if c.injected > 0 {
				rate = float64(c.detected) / float64(c.injected)
			}
			vals[i] = rate
			res.Series[sch.Name][row] = rate
			res.Series["latency:"+sch.Name][row] = c.meanLatency
			res.Series["healed:"+sch.Name][row] = float64(c.healed)
		}
		res.Table.AddFloats(row, 3, vals...)
	}
	return res, nil
}

func schemeNames(schemes []sim.Scheme) []string {
	names := make([]string, len(schemes))
	for i, s := range schemes {
		names[i] = s.Name
	}
	return names
}
