package secmem

import (
	"testing"

	"ctrpred/internal/cryptoengine"
	"ctrpred/internal/ctr"
	"ctrpred/internal/dram"
	"ctrpred/internal/mem"
	"ctrpred/internal/predictor"
)

// agedSetup is a small pre-aged workload: a written image and an aging
// profile with one repeated line, the shape sim's template builder
// replays.
type agedSetup struct {
	key   [32]byte
	image *mem.Memory
	ages  [][2]uint64 // (line address, counter offset) in setup order
}

func newAgedSetup() *agedSetup {
	s := &agedSetup{image: mem.New()}
	s.key[0] = 0x42
	for i := uint64(0); i < 96; i++ {
		s.image.Store(0x10000+i*40, 8, i*0x9e3779b97f4a7c15)
	}
	s.ages = [][2]uint64{{0x10040, 7}, {0x12000, 3}, {0x10040, 9}, {0x20000, 1}}
	s.image.Freeze()
	return s
}

// visit yields the aging profile, then every image line at offset 0 —
// sim's template order.
func (s *agedSetup) visit(yield func(la, offset uint64)) {
	for _, a := range s.ages {
		yield(a[0], a[1])
	}
	s.image.ForEachLine(func(la uint64) { yield(la, 0) })
}

func (s *agedSetup) build() *AgedTemplate {
	tp := predictor.New(predictor.DefaultConfig(predictor.SchemeNone))
	return BuildAgedTemplate(ctr.NewKeystream(s.key), s.image, tp.Root, s.visit)
}

// controller returns a controller over a view of the image whose
// predictor has drawn the template's roots, as sim's replay does.
func (s *agedSetup) controller(cfg Config) *Controller {
	p := predictor.New(predictor.DefaultConfig(predictor.SchemeRegular))
	s.visit(func(la, _ uint64) { p.Root(la) })
	e := cryptoengine.New(cryptoengine.DefaultConfig(), ctr.NewKeystream(s.key))
	return New(cfg, dram.New(dram.DefaultConfig()), e, p, nil, mem.NewView(s.image))
}

func countersOnlyConfig() Config {
	cfg := DefaultConfig()
	cfg.SelfCheck = false
	cfg.CountersOnly = true
	return cfg
}

func TestAgedTemplateCountersOnlyLeavesPadsUnbuilt(t *testing.T) {
	s := newAgedSetup()
	tmpl := s.build()
	c := s.controller(countersOnlyConfig())
	c.UseAgedTemplate(tmpl)
	var now uint64
	s.image.ForEachLine(func(la uint64) {
		now = c.FetchLine(now, la).Done
		c.EvictLine(now, la)
	})
	if tmpl.Sealed() {
		t.Fatal("a counters-only attach sealed the template's pad half")
	}
	if got, want := c.Seq(0x10040), c.Predictor().Root(0x10040)+7; got <= want {
		t.Fatalf("evicted aged line's counter = %d, want past %d", got, want)
	}
}

func TestAgedTemplateFullAttachSealsOnce(t *testing.T) {
	s := newAgedSetup()
	tmpl := s.build()
	a := s.controller(DefaultConfig())
	a.UseAgedTemplate(tmpl)
	first := tmpl.pads.Load()
	if first == nil {
		t.Fatal("a full-model attach left the pad half unbuilt")
	}
	if got := first.pads.Count(); got != tmpl.Lines() {
		t.Fatalf("pad half has %d lines, counter half %d", got, tmpl.Lines())
	}
	b := s.controller(DefaultConfig())
	b.UseAgedTemplate(tmpl)
	if tmpl.pads.Load() != first {
		t.Fatal("a second full-model attach resealed the template")
	}
	s.image.ForEachLine(func(la uint64) {
		if a.EncryptedLine(la) != b.EncryptedLine(la) {
			t.Fatalf("line %#x: two attaches see different ciphertext", la)
		}
	})
}

// TestAgedTemplateMatchesEagerAging pins the lazy seal to the per-line
// AgeLine loop it replaces: same counters, same ciphertext, and every
// fetch decrypts to the image with the self-check on.
func TestAgedTemplateMatchesEagerAging(t *testing.T) {
	s := newAgedSetup()
	tmpl := s.build()
	lazy := s.controller(DefaultConfig())
	lazy.UseAgedTemplate(tmpl)
	eager := s.controller(DefaultConfig())
	s.visit(eager.AgeLine)

	var now uint64
	s.image.ForEachLine(func(la uint64) {
		if lazy.Seq(la) != eager.Seq(la) || lazy.EncryptedLine(la) != eager.EncryptedLine(la) {
			t.Fatalf("line %#x: template state differs from eager aging", la)
		}
		res := lazy.FetchLine(now, la)
		now = res.Done
		if res.Plain != s.image.LineAt(la) {
			t.Fatalf("line %#x decrypted wrong", la)
		}
	})
	if err := lazy.SecurityErr(); err != nil {
		t.Fatal(err)
	}
	if f := lazy.Stats().SelfCheckFails; f != 0 {
		t.Fatalf("%d self-check failures", f)
	}
}

func TestAgedTemplatePadReuseIsViolation(t *testing.T) {
	s := newAgedSetup()
	tmpl := s.build()
	c := s.controller(DefaultConfig())
	c.UseAgedTemplate(tmpl)
	const la = 0x12000
	seq := c.Seq(la)
	cs, ps := c.owned(la)
	c.seal(cs, ps, la, seq) // re-encrypt under the template's own (la, seq)
	if got := c.PadViolations(); got != 1 {
		t.Fatalf("PadViolations = %d after reusing a template pad, want 1", got)
	}
}
