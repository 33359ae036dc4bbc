package sim

import "ctrpred/internal/stats"

// Snapshot exports the run's statistics as a structured metrics tree:
// one child per component, every counter registered by name. The tree is
// deterministic — same config and seed produce byte-identical JSON/CSV
// regardless of how the run was scheduled.
func (r Result) Snapshot() *stats.Snapshot {
	n := stats.NewSnapshot("run")
	n.Label("benchmark", r.Benchmark)
	n.Label("scheme", r.Scheme)
	n.Label("mode", r.Mode.String())
	n.Counter("pad_violations", r.PadViolations)
	n.Value("ipc", r.IPC())
	n.Value("pred_rate", r.PredRate())
	n.Value("seq_hit_rate", r.SeqHitRate())

	r.CPU.AddTo(n.Child("cpu"))
	r.Ctrl.AddTo(n.Child("controller"))
	r.Pred.AddTo(n.Child("predictor"))
	if r.Mode == Performance {
		// A HitRate run books no time: it has no engine and no DRAM.
		r.Engine.AddTo(n.Child("engine"))
		r.DRAM.AddTo(n.Child("dram"))
	}
	r.Hierarchy.AddTo(n.Child("hierarchy"))
	r.L1D.AddTo(n.Child("l1d"))
	r.L2.AddTo(n.Child("l2"))
	if r.SeqCache != nil {
		r.SeqCache.AddTo(n.Child("seqcache"))
	}
	if r.Integrity != nil {
		r.Integrity.AddTo(n.Child("integrity"))
	}
	if r.Security != nil {
		r.Security.AddTo(n.Child("security"))
	}
	if r.Faults != nil {
		r.Faults.AddTo(n.Child("faults"))
	}
	return n
}
