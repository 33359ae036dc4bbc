package chaos

import (
	"context"
	"net/http"
	"sync"
	"time"
)

// Middleware wraps an http.Handler with fault injection driven by inj:
// a worker mounts it in front of its server, so every request it serves
// crosses the fault schedule. Terminal faults sever the connection via
// panic(http.ErrAbortHandler), which net/http turns into an abrupt
// close — exactly what a crashed or partitioned worker looks like from
// the coordinator.
func Middleware(inj *Injector, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		d := inj.Decide(r.URL.Path)
		if d.Delay > 0 {
			if err := sleepCtx(r.Context(), d.Delay); err != nil {
				return
			}
		}
		if d.Drop {
			panic(http.ErrAbortHandler)
		}
		if d.Status != 0 {
			http.Error(w, "chaos: injected error", d.Status)
			return
		}
		if d.Reset || d.Corrupt || d.TruncateAfter > 0 || d.StallAfter > 0 {
			w = &chaosWriter{ResponseWriter: w, d: d, ctx: r.Context()}
		}
		next.ServeHTTP(w, r)
	})
}

// chaosWriter perturbs the response body as the handler writes it.
type chaosWriter struct {
	http.ResponseWriter
	d       Decision
	ctx     context.Context
	mu      sync.Mutex
	written int // body bytes passed through
	writes  int // Write calls (~NDJSON lines for the streaming path)
}

// Unwrap keeps http.ResponseController (Flush, SetWriteDeadline)
// working through the wrapper.
func (cw *chaosWriter) Unwrap() http.ResponseWriter { return cw.ResponseWriter }

func (cw *chaosWriter) Write(p []byte) (int, error) {
	cw.mu.Lock()
	defer cw.mu.Unlock()
	if cw.d.Reset {
		// Sever at the first body write: headers may have left, the
		// payload will not.
		panic(http.ErrAbortHandler)
	}
	if cw.d.StallAfter > 0 && cw.writes >= cw.d.StallAfter {
		// Hold the stream silent, then sever: after the stall hold, or
		// sooner if the client hangs up (the connection goes either way).
		sleepCtx(cw.ctx, cw.d.StallHold)
		panic(http.ErrAbortHandler)
	}
	if cw.d.TruncateAfter > 0 && cw.written+len(p) > cw.d.TruncateAfter {
		keep := cw.d.TruncateAfter - cw.written
		if keep > 0 {
			// Push the surviving prefix, then sever mid-body.
			cw.ResponseWriter.Write(p[:keep])
		}
		panic(http.ErrAbortHandler)
	}
	if cw.d.Corrupt && len(p) > 0 {
		// Flip one byte of the first chunk. Handlers pass slices of
		// cached snapshots here, so corrupt a copy — mutating p would
		// poison the worker's result cache for every later request.
		c := make([]byte, len(p))
		copy(c, p)
		c[cw.d.CorruptPos%len(c)] ^= 0x01
		cw.d.Corrupt = false
		p = c
	}
	n, err := cw.ResponseWriter.Write(p)
	cw.written += n
	cw.writes++
	return n, err
}

// sleepCtx waits d, or until ctx is done, whichever is first; it
// returns ctx's error when cut short.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
