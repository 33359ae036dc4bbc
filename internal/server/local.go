package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"ctrpred/internal/experiments"
	"ctrpred/internal/runpool"
	"ctrpred/internal/secmem"
	"ctrpred/internal/sha256"
	"ctrpred/internal/sim"
	"ctrpred/internal/stats"
)

// Local is the in-process executor: it runs each job on this node's
// simulator. New puts one behind every single-node front; the cluster
// coordinator keeps one for degraded mode. The zero value is ready.
type Local struct {
	simsRun atomic.Uint64
	expsRun atomic.Uint64
}

// Sim runs one simulation, heartbeating at its instruction checkpoints.
func (l *Local) Sim(ctx context.Context, job *SimJob, progress func(Event)) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	m, err := sim.NewMachine(job.Bench, job.Config)
	if err != nil {
		return Result{}, &JobError{Code: "bad_request", Err: err}
	}
	var lastBeat time.Time
	m.OnProgress(func(committed uint64) {
		if time.Since(lastBeat) >= heartbeatEvery {
			lastBeat = time.Now()
			progress(Event{Event: "progress", Instructions: committed})
		}
	})
	start := time.Now()
	res, runErr := m.RunContext(ctx)
	l.simsRun.Add(1)
	progress(UpdateEvent(runpool.Update{Label: job.Bench + "/" + job.Config.Scheme.Name, Err: runErr, Elapsed: time.Since(start), Done: 1, Total: 1}))
	if runErr != nil {
		var serr *secmem.SecurityError
		if errors.As(runErr, &serr) {
			// The partial result up to the halt is still evidence; ship it
			// with the error.
			if body, jerr := res.Snapshot().JSON(); jerr == nil {
				return Result{}, &JobError{Err: runErr, Snapshot: body}
			}
		}
		return Result{}, runErr
	}
	body, err := res.Snapshot().JSON()
	return Result{Body: body}, err
}

// Experiment regenerates one figure/table, forwarding every finished
// grid cell as an update.
func (l *Local) Experiment(ctx context.Context, job *ExperimentJob, progress func(Event)) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	opt := job.Options
	opt.Progress = func(u runpool.Update) {
		progress(UpdateEvent(u))
		if u.Err == nil {
			l.simsRun.Add(1)
		}
	}
	res, err := experiments.ByID(ctx, job.Request.ID, opt)
	l.expsRun.Add(1)
	if err != nil {
		return Result{}, err
	}
	body, err := res.Snapshot().JSON()
	return Result{Body: body}, err
}

// Lookup finds nothing: a single node's results live in its front's
// cache alone.
func (l *Local) Lookup(context.Context, string) ([]byte, bool) { return nil, false }

// Health reports the job pool's occupancy.
func (l *Local) Health(ps runpool.PoolStats) (map[string]any, bool) {
	return map[string]any{"workers": ps.Workers, "running": ps.Running, "pending": ps.Pending}, false
}

// Metrics counts the simulations and experiments run here.
func (l *Local) Metrics(n *stats.Snapshot) {
	n.Counter("sims_run", l.simsRun.Load())
	n.Counter("experiments_run", l.expsRun.Load())
}

// snapshotDigestHeader carries the hex SHA-256 of a canonical snapshot
// body on every plain JSON result, so relays (the cluster coordinator)
// can verify the bytes they received are the bytes the origin computed
// and treat a corrupted body as a transport failure instead of an
// answer.
const snapshotDigestHeader = "X-Snapshot-Digest"

// BodyDigest returns the hex SHA-256 of a response body: the value of
// the X-Snapshot-Digest header a server attaches to plain results and
// a relay verifies before trusting them.
func BodyDigest(b []byte) string {
	return fmt.Sprintf("%x", sha256.Sum256(b))
}

// SetSnapshotDigest stamps the integrity digest of a canonical
// snapshot body onto a response's headers.
func SetSnapshotDigest(h http.Header, body []byte) {
	h.Set(snapshotDigestHeader, BodyDigest(body))
}

// SnapshotDigest reads the integrity digest from response headers
// ("" when the origin attached none).
func SnapshotDigest(h http.Header) string { return h.Get(snapshotDigestHeader) }
