package server

import (
	"bytes"
	"net/http"
	"testing"
)

// TestSnapshotDigestHeader: every plain JSON result body — fresh,
// cached, and fetched by key — advertises its own sha256 so relays can
// verify integrity end to end.
func TestSnapshotDigestHeader(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	req := smallReq()

	resp := postJSON(t, ts.URL+"/v1/sim", req)
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	digest := SnapshotDigest(resp.Header)
	if digest == "" {
		t.Fatal("fresh result carries no X-Snapshot-Digest")
	}
	if want := BodyDigest(body); digest != want {
		t.Fatalf("advertised digest %s != body digest %s", digest, want)
	}
	key := resp.Header.Get("X-Result-Key")

	// The cache-hit path advertises the same digest over the same bytes.
	resp2 := postJSON(t, ts.URL+"/v1/sim", req)
	body2 := readBody(t, resp2)
	if resp2.Header.Get("X-Cache") != "hit" {
		t.Fatal("second request missed the cache")
	}
	if got := SnapshotDigest(resp2.Header); got != digest {
		t.Fatalf("cached digest %s != fresh digest %s", got, digest)
	}
	if !bytes.Equal(body, body2) {
		t.Fatal("cached body differs from the fresh one")
	}

	// So does the by-key result endpoint peers use.
	resp3, err := http.Get(ts.URL + "/v1/results/" + key)
	if err != nil {
		t.Fatal(err)
	}
	body3 := readBody(t, resp3)
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("GET by key: status %d", resp3.StatusCode)
	}
	if got := SnapshotDigest(resp3.Header); got != digest {
		t.Fatalf("by-key digest %s != fresh digest %s", got, digest)
	}
	if !bytes.Equal(body, body3) {
		t.Fatal("by-key body differs from the fresh one")
	}
}
