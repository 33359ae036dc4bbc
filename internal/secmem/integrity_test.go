package secmem

import (
	"testing"

	"ctrpred/internal/cryptoengine"
	"ctrpred/internal/ctr"
	"ctrpred/internal/dram"
	"ctrpred/internal/integrity"
	"ctrpred/internal/mem"
	"ctrpred/internal/predictor"
)

func newIntegrityRig(t *testing.T) *rig {
	t.Helper()
	r := newRig(predictor.SchemeRegular, 0, false)
	tree := integrity.New(integrity.DefaultConfig(), dram.New(dram.DefaultConfig()))
	r.ctrl.AttachIntegrity(tree)
	return r
}

func TestAuthenticFetchVerifies(t *testing.T) {
	r := newIntegrityRig(t)
	r.image.Store(0x1000, 8, 42)
	res := r.ctrl.FetchLine(0, 0x1000)
	if !res.Authentic {
		t.Fatal("authentic fetch rejected")
	}
	if r.ctrl.Stats().TamperDetected != 0 {
		t.Fatal("false tamper alarm")
	}
}

func TestTamperedFetchDetected(t *testing.T) {
	r := newIntegrityRig(t)
	r.image.Store(0x2000, 8, 7)
	r.ctrl.FetchLine(0, 0x2000) // materialize + install leaf
	r.ctrl.TamperData(0x2000, 13)
	res := r.ctrl.FetchLine(1000, 0x2000)
	if res.Authentic {
		t.Fatal("tampered line accepted")
	}
	if r.ctrl.Stats().TamperDetected != 1 {
		t.Fatalf("stats = %+v", r.ctrl.Stats())
	}
	// Counter-mode malleability: the decrypted data differs from the
	// architectural value — exactly why the tree is mandatory.
	if res.Plain == r.image.LineAt(0x2000) {
		t.Fatal("bit flip did not propagate to plaintext?")
	}
}

func TestWritebackHealsTamper(t *testing.T) {
	r := newIntegrityRig(t)
	r.image.Store(0x3000, 8, 9)
	r.ctrl.FetchLine(0, 0x3000)
	r.ctrl.TamperData(0x3000, 5)
	r.ctrl.EvictLine(100, 0x3000) // legitimate writeback overwrites RAM
	res := r.ctrl.FetchLine(1000, 0x3000)
	if !res.Authentic {
		t.Fatal("fetch after healing writeback rejected")
	}
	if res.Plain != r.image.LineAt(0x3000) {
		t.Fatal("healed line decrypted wrong")
	}
}

func TestVerificationAddsLatency(t *testing.T) {
	plainRig := newRig(predictor.SchemeRegular, 0, false)
	treeRig := newIntegrityRig(t)
	a := plainRig.ctrl.FetchLine(0, 0x4000)
	b := treeRig.ctrl.FetchLine(0, 0x4000)
	if b.Done <= a.Done {
		t.Fatalf("integrity verification free: %d vs %d", b.Done, a.Done)
	}
}

func TestReplayAcrossEvictionsDetected(t *testing.T) {
	// Adversary records the ciphertext+counter of version 1, lets the
	// processor write version 2, then restores version 1 wholesale. The
	// controller model can't express restoring the counter table (our
	// functional map is authoritative), so emulate by tampering: flip
	// ciphertext back after the new writeback.
	r := newIntegrityRig(t)
	addr := uint64(0x5000)
	r.image.Store(addr, 8, 1)
	r.ctrl.FetchLine(0, addr)
	old := r.ctrl.EncryptedLine(addr)
	r.image.Store(addr, 8, 2)
	r.ctrl.EvictLine(100, addr)
	// Restore the stale ciphertext byte-by-byte via tampering bits that
	// differ. Simpler: verify the stale pair directly against the tree.
	tree := r.ctrl.IntegrityTree()
	if ok, _ := tree.Verify(0, addr, r.ctrl.Seq(addr)-1, old); ok {
		t.Fatal("stale (ciphertext, counter) replay accepted by tree")
	}
}

func TestIntegrityWithAging(t *testing.T) {
	r := newIntegrityRig(t)
	r.image.Store(0x6000, 8, 5)
	r.ctrl.AgeLine(0x6000, 17)
	res := r.ctrl.FetchLine(0, 0x6000)
	if !res.Authentic || res.Plain != r.image.LineAt(0x6000) {
		t.Fatal("aged line failed under integrity protection")
	}
}

func TestAttachAfterTouchPanics(t *testing.T) {
	r := newRig(predictor.SchemeRegular, 0, false)
	r.ctrl.FetchLine(0, 0x1000)
	defer func() {
		if recover() == nil {
			t.Fatal("late AttachIntegrity did not panic")
		}
	}()
	r.ctrl.AttachIntegrity(integrity.New(integrity.DefaultConfig(), nil))
}

// --- direct-encryption mode ---

func newDirectRig() *rig {
	var key [32]byte
	key[0] = 0x42
	image := mem.New()
	d := dram.New(dram.DefaultConfig())
	e := cryptoengine.New(cryptoengine.DefaultConfig(), ctr.NewKeystream(key))
	p := predictor.New(predictor.DefaultConfig(predictor.SchemeNone))
	cfg := DefaultConfig()
	cfg.Direct = true
	return &rig{ctrl: New(cfg, d, e, p, nil, image), image: image}
}

func TestDirectModeRoundTrip(t *testing.T) {
	r := newDirectRig()
	r.image.Store(0x1000, 8, 0xabcdef)
	res := r.ctrl.FetchLine(0, 0x1000)
	if res.Plain != r.image.LineAt(0x1000) {
		t.Fatal("direct mode decrypted wrong")
	}
	r.image.Store(0x1000, 8, 0x123456)
	r.ctrl.EvictLine(100, 0x1000)
	res = r.ctrl.FetchLine(1000, 0x1000)
	if res.Plain != r.image.LineAt(0x1000) {
		t.Fatal("direct mode lost data across writeback")
	}
}

func TestDirectModeSerializesDecryption(t *testing.T) {
	// The whole reason counter mode exists: direct decryption cannot start
	// before the ciphertext arrives, so data is ready a full crypto
	// latency after the line.
	r := newDirectRig()
	res := r.ctrl.FetchLine(0, 0x2000)
	if res.Done < res.LineDone+96 {
		t.Fatalf("direct decryption overlapped the fetch: line=%d done=%d", res.LineDone, res.Done)
	}
	// And it matches the counter-mode baseline's worst case shape.
	base := newRig(predictor.SchemeRegular, 0, false)
	b := base.ctrl.FetchLine(0, 0x2000)
	if b.PredHit && b.Done >= res.Done {
		t.Fatalf("predicted counter-mode fetch (%d) not faster than direct (%d)", b.Done, res.Done)
	}
}

func TestDirectModeCiphertextDiffers(t *testing.T) {
	r := newDirectRig()
	var plain ctr.Line
	for i := range plain {
		plain[i] = 0x77
	}
	r.image.SetLine(0x3000, plain)
	if r.ctrl.EncryptedLine(0x3000) == plain {
		t.Fatal("direct mode stored plaintext")
	}
}

func TestDirectModeWithIntegrity(t *testing.T) {
	r := newDirectRig()
	tree := integrity.New(integrity.DefaultConfig(), dram.New(dram.DefaultConfig()))
	r.ctrl.AttachIntegrity(tree)
	r.image.Store(0x4000, 8, 5)
	if res := r.ctrl.FetchLine(0, 0x4000); !res.Authentic {
		t.Fatal("authentic direct fetch rejected")
	}
	r.ctrl.TamperData(0x4000, 3)
	if res := r.ctrl.FetchLine(1000, 0x4000); res.Authentic {
		t.Fatal("tampered direct fetch accepted")
	}
}

func TestDirectModeNoCounterTraffic(t *testing.T) {
	r := newDirectRig()
	r.ctrl.FetchLine(0, 0x5000)
	r.image.Store(0x5000, 8, 1)
	r.ctrl.EvictLine(100, 0x5000)
	if hits := r.ctrl.Stats().CounterBufHits; hits != 0 {
		t.Fatalf("direct mode touched the counter buffer: %d", hits)
	}
}
