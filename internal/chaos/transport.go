package chaos

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"
)

// errInjected is the transport-level failure surfaced for drops and
// resets. It unwraps to nothing HTTP-specific on purpose: callers must
// treat it exactly like a real severed connection.
type errInjected struct {
	kind Kind
	url  string
}

func (e *errInjected) Error() string {
	return fmt.Sprintf("chaos: injected %s: %s", e.kind, e.url)
}

// Transport is an http.RoundTripper that perturbs outbound requests
// per an Injector's decisions. It mounts on the coordinator's HTTP
// client so every worker dispatch crosses the fault schedule.
type Transport struct {
	base http.RoundTripper
	inj  *Injector
}

// NewTransport wraps base (nil: http.DefaultTransport) with fault
// injection driven by inj.
func NewTransport(base http.RoundTripper, inj *Injector) *Transport {
	if base == nil {
		base = http.DefaultTransport
	}
	return &Transport{base: base, inj: inj}
}

// RoundTrip implements http.RoundTripper.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	d := t.inj.Decide(req.URL.Path)
	if d.Delay > 0 {
		if err := sleepCtx(req.Context(), d.Delay); err != nil {
			closeBody(req)
			return nil, err
		}
	}
	if d.Drop {
		// The request never reaches the worker: a partitioned link.
		closeBody(req)
		return nil, &errInjected{kind: KindPartition, url: req.URL.String()}
	}
	if d.Status != 0 {
		// Short-circuit with a synthesized error response; the worker
		// never sees the request (an intermediary 5xx).
		closeBody(req)
		return synthesized(req, d.Status), nil
	}
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	if d.Reset {
		// The worker processed the request; the response is lost on the
		// way back.
		resp.Body.Close()
		return nil, &errInjected{kind: KindReset, url: req.URL.String()}
	}
	if d.Corrupt || d.TruncateAfter > 0 || d.StallAfter > 0 {
		resp.Body = &faultyBody{rc: resp.Body, d: d, ctx: req.Context(), url: req.URL.String()}
	}
	return resp, nil
}

// CloseIdleConnections forwards to the base transport when supported,
// so http.Client.CloseIdleConnections keeps working through the wrap.
func (t *Transport) CloseIdleConnections() {
	if ci, ok := t.base.(interface{ CloseIdleConnections() }); ok {
		ci.CloseIdleConnections()
	}
}

// closeBody closes the body of a request RoundTrip answers without the
// base transport: an http.RoundTripper must close it on every path,
// errors included.
func closeBody(req *http.Request) {
	if req.Body != nil {
		req.Body.Close()
	}
}

func synthesized(req *http.Request, status int) *http.Response {
	body := fmt.Sprintf("chaos: injected %d\n", status)
	return &http.Response{
		Status:        strconv.Itoa(status) + " " + http.StatusText(status),
		StatusCode:    status,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        http.Header{"Content-Type": {"text/plain; charset=utf-8"}},
		Body:          io.NopCloser(bytes.NewBufferString(body)),
		ContentLength: int64(len(body)),
		Request:       req,
	}
}

// faultyBody mutates a response body in flight: corrupting one byte,
// truncating, or stalling mid-stream then failing, per the decision.
type faultyBody struct {
	rc   io.ReadCloser
	d    Decision
	ctx  context.Context
	url  string
	read int // plaintext offset so far
	done bool
}

func (b *faultyBody) Read(p []byte) (int, error) {
	if b.done {
		return 0, &errInjected{kind: KindTruncate, url: b.url}
	}
	if b.d.StallAfter > 0 && b.read >= b.d.StallAfter*64 {
		// Transport-side stall approximation: hold after ~StallAfter
		// lines' worth of bytes, then sever. (The middleware variant
		// counts real writes; prefer it for precise stream stalls.)
		if err := sleepCtx(b.ctx, b.d.StallHold); err != nil {
			return 0, err
		}
		return 0, &errInjected{kind: KindStall, url: b.url}
	}
	limit := len(p)
	if b.d.TruncateAfter > 0 && b.read+limit > b.d.TruncateAfter {
		limit = b.d.TruncateAfter - b.read
		if limit <= 0 {
			b.done = true
			return 0, &errInjected{kind: KindTruncate, url: b.url}
		}
	}
	n, err := b.rc.Read(p[:limit])
	if n > 0 && b.d.Corrupt {
		// Flip one byte of the first chunk read. p is the caller's
		// buffer, so mutating in place here is safe.
		pos := b.d.CorruptPos % n
		p[pos] ^= 0x01
		b.d.Corrupt = false
	}
	b.read += n
	return n, err
}

func (b *faultyBody) Close() error { return b.rc.Close() }

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
