package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"ctrpred/internal/server"
)

// StatusError is a worker's non-2xx HTTP response: the status, the
// Retry-After hint when the worker sent one (saturation), and the
// error message from the JSON body when it parsed.
type StatusError struct {
	Status     int
	RetryAfter time.Duration
	Message    string
	// Raw is the response body (bounded), kept so a worker's terminal
	// error event can be relayed with its code intact.
	Raw []byte
}

func (e *StatusError) Error() string {
	if e.Message != "" {
		return fmt.Sprintf("worker returned %d: %s", e.Status, e.Message)
	}
	return fmt.Sprintf("worker returned %d", e.Status)
}

// Saturated reports whether the error is a worker saying "queue full,
// come back later" — retryable on the same node after the hinted wait.
func (e *StatusError) Saturated() bool { return e.Status == http.StatusTooManyRequests }

// IntegrityError is a response body whose bytes do not match the
// origin's X-Snapshot-Digest: the network (or an intermediary) lied.
// The dispatch loop treats it like a failed dispatch — the body is
// discarded and the job re-fetched — but not like a dead worker, so a
// single flipped bit does not cost a node its ring traffic.
type IntegrityError struct {
	Node string
	Want string // digest the origin attached
	Got  string // digest of the bytes received
}

func (e *IntegrityError) Error() string {
	return fmt.Sprintf("response from %s failed integrity check: digest %.12s.. != advertised %.12s..", e.Node, e.Got, e.Want)
}

// ErrStreamStalled marks a streaming relay that went silent longer
// than the client's idle window. Workers heartbeat far more often than
// any idle window worth configuring, so silence means the worker (or
// the path to it) is wedged.
var ErrStreamStalled = errors.New("stream stalled")

// Client is the coordinator's HTTP client for worker nodes. The zero
// value is not usable; NewClient wires the transport.
type Client struct {
	hc *http.Client
	// StreamIdle bounds the silence between consecutive events on a
	// PostStream relay (0: unbounded). On expiry the stream is torn down
	// and the call returns an error wrapping ErrStreamStalled.
	StreamIdle time.Duration
}

// NewClient wraps an http.Client (nil: a default client with no global
// timeout — job deadlines come from request contexts, and streams live
// as long as the job runs).
func NewClient(hc *http.Client) *Client {
	if hc == nil {
		hc = &http.Client{}
	}
	return &Client{hc: hc}
}

// Healthz probes a worker's GET /healthz. Any response but 200 — a
// refused connection, a 503 from a draining worker — is an error, so
// "healthy" means "will accept work", not merely "process exists".
func (c *Client) Healthz(ctx context.Context, base string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return statusError(resp)
	}
	return nil
}

// LookupResult probes a worker's content-addressed cache: GET
// /v1/results/{key}. A 404 is a clean miss (false, nil error); any
// other failure is an error.
func (c *Client) LookupResult(ctx context.Context, base, key string) ([]byte, bool, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/results/"+key, nil)
	if err != nil {
		return nil, false, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, false, err
	}
	defer drainClose(resp.Body)
	switch resp.StatusCode {
	case http.StatusOK:
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			return nil, false, err
		}
		if err := verifyDigest(base, resp.Header, body); err != nil {
			return nil, false, err
		}
		return body, true, nil
	case http.StatusNotFound:
		return nil, false, nil
	default:
		return nil, false, statusError(resp)
	}
}

// PostJSON sends a JSON job to a worker and returns the response body
// and headers. Non-2xx responses come back as a *StatusError carrying
// the Retry-After hint, so the dispatch loop can tell saturation (wait
// and retry here) from breakage (fail over).
func (c *Client) PostJSON(ctx context.Context, base, path string, body []byte) ([]byte, http.Header, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+path, bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer drainClose(resp.Body)
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return nil, resp.Header, statusError(resp)
	}
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, resp.Header, err
	}
	if err := verifyDigest(base, resp.Header, out); err != nil {
		return nil, resp.Header, err
	}
	return out, resp.Header, nil
}

// verifyDigest checks a body against the X-Snapshot-Digest header the
// origin attached, when it attached one. Responses without the header
// (older workers, error bodies) pass through unchecked.
func verifyDigest(node string, h http.Header, body []byte) error {
	want := server.SnapshotDigest(h)
	if want == "" {
		return nil
	}
	if got := server.BodyDigest(body); got != want {
		return &IntegrityError{Node: node, Want: want, Got: got}
	}
	return nil
}

// PostStream sends a JSON job with streaming enabled and relays each
// NDJSON event to onEvent until the stream ends. The worker's terminal
// event (result or error) is the stream's outcome; a transport error
// mid-stream means the worker died with the job in flight.
func (c *Client) PostStream(ctx context.Context, base, path string, body []byte, onEvent func(server.Event)) error {
	// The idle watchdog cancels the request context when the stream goes
	// silent for StreamIdle; decoding then fails and the error is
	// rewrapped as ErrStreamStalled so callers can tell a wedged worker
	// from a cancelled job.
	var stalled atomic.Bool
	var watchdog *time.Timer
	if c.StreamIdle > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithCancel(ctx)
		defer cancel()
		watchdog = time.AfterFunc(c.StreamIdle, func() {
			stalled.Store(true)
			cancel()
		})
		defer watchdog.Stop()
	}
	wrapStall := func(err error) error {
		if stalled.Load() {
			return fmt.Errorf("%w: no events from %s within %s: %v", ErrStreamStalled, base, c.StreamIdle, err)
		}
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+path+"?stream=1", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return wrapStall(err)
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return statusError(resp)
	}
	dec := json.NewDecoder(resp.Body)
	for {
		var ev server.Event
		if err := dec.Decode(&ev); err != nil {
			if err == io.EOF {
				return nil
			}
			return wrapStall(err)
		}
		if watchdog != nil {
			watchdog.Reset(c.StreamIdle)
		}
		onEvent(ev)
	}
}

// statusError reads a non-2xx response into a StatusError, pulling the
// message out of the server's {"error": ...} body when present.
func statusError(resp *http.Response) *StatusError {
	e := &StatusError{Status: resp.StatusCode}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		if secs, err := strconv.Atoi(ra); err == nil && secs > 0 {
			e.RetryAfter = time.Duration(secs) * time.Second
		}
	}
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
	e.Raw = body
	var payload struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &payload) == nil && payload.Error != "" {
		e.Message = payload.Error
	} else if len(bytes.TrimSpace(body)) > 0 {
		e.Message = string(bytes.TrimSpace(body))
	}
	return e
}

// drainClose finishes a response body so the transport can reuse the
// connection.
func drainClose(rc io.ReadCloser) {
	io.Copy(io.Discard, io.LimitReader(rc, 1<<20))
	rc.Close()
}
