package sim

import (
	"context"
	"errors"
	"fmt"
)

// RunGroupContext runs the named benchmark once under several configs
// that differ only in Scheme, and returns one Result per config, in
// order. Each Result's snapshot is byte-identical to that config's solo
// run.
//
// The group shares one front end — the image view, the functional core,
// the caches, the TLBs and memsys — and gives each config its own counter
// side, which memsys drives with the one fetch and writeback stream
// (see package memsys). That is sound because the functional core
// ignores every latency the hierarchy returns, so the stream reaching a
// controller is the same whichever scheme sits below it: a hit-rate row
// simulates its shared work once instead of once per scheme.
//
// Every config must be a counters-only HitRate run (no SelfCheck,
// Integrity, Faults or Direct scheme), and the configs must agree in
// everything but Scheme, as Fingerprint sees them; anything else is an
// error, never a fallback to solo runs. The first config's
// CheckInterval spaces the shared run's checkpoints, so a cancel or
// deadline on ctx stops every config of the group within one interval;
// the partial Results are returned alongside the error.
func RunGroupContext(ctx context.Context, bench string, cfgs []Config) ([]Result, error) {
	if err := checkGroup(bench, cfgs); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	m, err := build(bench, cfgs)
	if err != nil {
		return nil, err
	}
	defer m.Close()
	cs := m.run(ctx)
	res := []Result{m.collect(cs, m.side)}
	for _, s := range m.mirrors {
		res = append(res, m.collect(cs, s))
	}
	return res, m.runErr()
}

// checkGroup reports why cfgs cannot share one front end, if they
// cannot.
func checkGroup(bench string, cfgs []Config) error {
	if len(cfgs) == 0 {
		return errors.New("sim: empty group")
	}
	front := frontEnd(bench, cfgs[0])
	for i, cfg := range cfgs {
		if !countersOnly(cfg) {
			return fmt.Errorf("sim: group config %d (%s) is not a counters-only hit-rate run", i, cfg.Scheme.Name)
		}
		if frontEnd(bench, cfg) != front {
			return fmt.Errorf("sim: group config %d (%s) differs from config 0 in more than its scheme", i, cfg.Scheme.Name)
		}
	}
	return nil
}

// frontEnd fingerprints everything in a run but its scheme.
func frontEnd(bench string, cfg Config) string {
	cfg.Scheme = Scheme{}
	return Fingerprint(bench, cfg)
}
