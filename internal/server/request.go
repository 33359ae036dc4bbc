package server

import (
	"fmt"
	"time"

	"ctrpred/internal/spec"
)

// SimRequest is the JSON body of POST /v1/sim: one simulation run, in
// the grammar ctrsim's flags share (see spec.Run).
type SimRequest = spec.Run

// ExperimentRequest is the JSON body of POST /v1/experiments: one
// figure or table regeneration over a benchmark × scheme grid, in the
// grammar the experiments command's flags share (see spec.Sweep).
type ExperimentRequest = spec.Sweep

// parseTimeout resolves a request's job deadline against the server
// default; empty means the default, "0" or "0s" disables it.
func parseTimeout(s string, def time.Duration) (time.Duration, error) {
	if s == "" {
		return def, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, fmt.Errorf("timeout: %w", err)
	}
	if d < 0 {
		return 0, fmt.Errorf("timeout: negative duration %s", d)
	}
	return d, nil
}
