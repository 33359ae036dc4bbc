package secmem

import (
	"sync"
	"testing"

	"ctrpred/internal/cryptoengine"
	"ctrpred/internal/ctr"
	"ctrpred/internal/dram"
	"ctrpred/internal/integrity"
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
	return s.controllerOn(cfg, dram.New(dram.DefaultConfig()))
}

// controllerOn is controller over data channel d.
func (s *agedSetup) controllerOn(cfg Config, d *dram.DRAM) *Controller {
	p := predictor.New(predictor.DefaultConfig(predictor.SchemeRegular))
	s.visit(func(la, _ uint64) { p.Root(la) })
	e := cryptoengine.New(cryptoengine.DefaultConfig(), ctr.NewKeystream(s.key))
	return New(cfg, d, e, p, nil, mem.NewView(s.image))
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
	if tmpl.slots != nil || tmpl.SealedLines() != 0 {
		t.Fatal("a counters-only attach allocated or sealed the template's pad half")
	}
	if got, want := c.Seq(0x10040), c.Predictor().Root(0x10040)+7; got <= want {
		t.Fatalf("evicted aged line's counter = %d, want past %d", got, want)
	}
}

// templateLines returns the first n image lines in address order.
func (s *agedSetup) templateLines(n int) []uint64 {
	var las []uint64
	s.image.ForEachLine(func(la uint64) {
		if len(las) < n {
			las = append(las, la)
		}
	})
	return las
}

// TestAgedTemplateFullAttachSealsOnce pins the lazy seal: attaching
// computes no pad, each fetched template line is sealed exactly once,
// and a second controller reuses the slot table and the first one's
// seals.
func TestAgedTemplateFullAttachSealsOnce(t *testing.T) {
	s := newAgedSetup()
	tmpl := s.build()
	a := s.controller(DefaultConfig())
	a.UseAgedTemplate(tmpl)
	slots := tmpl.slots
	if slots == nil {
		t.Fatal("a full-model attach left the pad half unallocated")
	}
	if got := tmpl.SealedLines(); got != 0 {
		t.Fatalf("attaching sealed %d lines, want 0", got)
	}
	las := s.templateLines(5)
	var now uint64
	for _, la := range las {
		now = a.FetchLine(now, la).Done
		now = a.FetchLine(now, la).Done // a re-fetch reads the same slot
	}
	if got := tmpl.SealedLines(); got != len(las) {
		t.Fatalf("fetching %d distinct lines sealed %d", len(las), got)
	}
	b := s.controller(DefaultConfig())
	b.UseAgedTemplate(tmpl)
	if tmpl.slots != slots {
		t.Fatal("a second full-model attach rebuilt the pad half")
	}
	for _, la := range las {
		if res := b.FetchLine(now, la); res.Plain != s.image.LineAt(la) {
			t.Fatalf("line %#x decrypted wrong on the second controller", la)
		}
		if a.EncryptedLine(la) != b.EncryptedLine(la) {
			t.Fatalf("line %#x: two controllers see different ciphertext", la)
		}
	}
	if got := tmpl.SealedLines(); got != len(las) {
		t.Fatalf("a second controller re-fetching sealed %d more lines", got-len(las))
	}
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

// TestAgedTemplateEvictFirstReuseIsViolation covers a template line whose
// first touch is a writeback: its template pad still counts as used,
// though the eviction sealed a fresh counter over it.
func TestAgedTemplateEvictFirstReuseIsViolation(t *testing.T) {
	s := newAgedSetup()
	tmpl := s.build()
	c := s.controller(DefaultConfig())
	c.UseAgedTemplate(tmpl)
	const la = 0x10040
	tseq := tmpl.ctrs.Lookup(la).seq
	c.EvictLine(0, la)
	if c.Seq(la) == tseq {
		t.Fatal("the writeback did not advance the template counter")
	}
	cs, ps := c.owned(la)
	c.seal(cs, ps, la, tseq)
	if got := c.PadViolations(); got != 1 {
		t.Fatalf("PadViolations = %d after reusing an evicted line's template pad, want 1", got)
	}
}

// TestAgedTemplateReplayOfTemplatePairRefused replays a never-fetched
// line's own template pair: the controller must compare against the
// sealed slot, find the pair identical, and refuse it as a no-op.
func TestAgedTemplateReplayOfTemplatePairRefused(t *testing.T) {
	s := newAgedSetup()
	tmpl := s.build()
	c := s.controller(DefaultConfig())
	c.UseAgedTemplate(tmpl)
	const la = 0x12000
	seq := tmpl.ctrs.Lookup(la).seq
	enc := ctr.NewKeystream(s.key).EncryptLine(s.image.LineAt(la), la, seq)
	if c.ReplayStale(la, enc, seq) {
		t.Fatal("replaying the line's current template pair was accepted")
	}
	if got := tmpl.SealedLines(); got != 1 {
		t.Fatalf("SealedLines = %d after the replay check, want 1", got)
	}
	if res := c.FetchLine(0, la); res.Plain != s.image.LineAt(la) {
		t.Fatal("the refused replay changed the line")
	}
}

// TestAgedTemplateConcurrentSeal races full-model controllers over
// overlapping lines of one fresh template (run under -race by make race):
// every line is sealed once and every controller reads the same bytes.
func TestAgedTemplateConcurrentSeal(t *testing.T) {
	s := newAgedSetup()
	tmpl := s.build()
	las := s.templateLines(64)
	const n = 6
	ctrls := make([]*Controller, n)
	for i := range ctrls {
		ctrls[i] = s.controller(DefaultConfig())
	}
	var wg sync.WaitGroup
	for i, c := range ctrls {
		wg.Add(1)
		go func(i int, c *Controller) {
			defer wg.Done()
			c.UseAgedTemplate(tmpl)
			var now uint64
			// Each controller walks from its own offset, half of them
			// evicting as they go, so seals and first writes collide.
			for k := range las {
				la := las[(k+i*7)%len(las)]
				now = c.FetchLine(now, la).Done
				if i%2 == 1 {
					c.EvictLine(now, la)
				}
			}
		}(i, c)
	}
	wg.Wait()
	if got := tmpl.SealedLines(); got != len(las) {
		t.Fatalf("%d controllers over %d lines sealed %d", n, len(las), got)
	}
	for _, la := range las {
		if ctrls[0].EncryptedLine(la) != ctrls[2].EncryptedLine(la) {
			t.Fatalf("line %#x: fetch-only controllers disagree", la)
		}
	}
	for i, c := range ctrls {
		if c.PadViolations() != 0 || c.Stats().SelfCheckFails != 0 {
			t.Fatalf("controller %d: %d pad violations, %d self-check failures",
				i, c.PadViolations(), c.Stats().SelfCheckFails)
		}
	}
}

// loadedTree loads the setup's aged lines into a tree over a fresh
// channel and freezes it, as sim's tree image does.
func (s *agedSetup) loadedTree(tmpl *AgedTemplate) (*integrity.Tree, *dram.DRAM) {
	d := dram.New(dram.DefaultConfig())
	tree := integrity.New(integrity.DefaultConfig(), d)
	tmpl.LoadTree(tree, func(yield func(la uint64)) {
		for _, a := range s.ages {
			yield(a[0])
		}
	})
	tree.Freeze()
	return tree, d
}

// integrityController attaches a clone of the loaded tree image, over a
// clone of its channel, and then the template.
func (s *agedSetup) integrityController(tmpl *AgedTemplate, img *integrity.Tree, imgDRAM *dram.DRAM) *Controller {
	d := imgDRAM.Clone()
	c := s.controllerOn(DefaultConfig(), d)
	c.AttachIntegrity(img.Clone(d))
	c.UseAgedTemplate(tmpl)
	return c
}

// TestAgedTemplateIntegrityMatchesEager pins an integrity controller on a
// template — a clone of the loaded tree image, each unaged line's leaf
// installed at first touch, pads sealed into its own table — to eager
// aging call for call, and checks that its writes never reach the image
// a second clone starts from.
func TestAgedTemplateIntegrityMatchesEager(t *testing.T) {
	s := newAgedSetup()
	tmpl := s.build()
	img, imgDRAM := s.loadedTree(tmpl)
	root := img.Clone(nil).Root()

	lazy := s.integrityController(tmpl, img, imgDRAM)
	ed := dram.New(dram.DefaultConfig())
	eager := s.controllerOn(DefaultConfig(), ed)
	eager.AttachIntegrity(integrity.New(integrity.DefaultConfig(), ed))
	for _, a := range s.ages {
		eager.AgeLine(a[0], a[1])
	}
	lt, et := lazy.IntegrityTree(), eager.IntegrityTree()
	if lt.Root() != et.Root() || lt.Stats() != et.Stats() || lazy.dram.Stats() != ed.Stats() {
		t.Fatal("the cloned tree image differs from eager aging's tree")
	}

	var now uint64
	s.image.ForEachLine(func(la uint64) {
		lr, er := lazy.FetchLine(now, la), eager.FetchLine(now, la)
		if lr != er || !lr.Authentic || lr.Plain != s.image.LineAt(la) {
			t.Fatalf("line %#x: fetch %+v, eager %+v", la, lr, er)
		}
		now = lr.Done
		if l, e := lazy.EvictLine(now, la), eager.EvictLine(now, la); l != e {
			t.Fatalf("line %#x: writeback done %d, eager %d", la, l, e)
		}
	})
	if lt.Root() != et.Root() || lt.Stats() != et.Stats() || lazy.dram.Stats() != ed.Stats() {
		t.Fatal("after a fetch and a writeback of every line, the trees differ")
	}
	if tmpl.slots != nil || tmpl.SealedLines() != 0 {
		t.Fatal("an integrity controller allocated or sealed the template's pad half")
	}
	if err := lazy.SecurityErr(); err != nil || lazy.PadViolations() != 0 {
		t.Fatalf("security error %v, %d pad violations", err, lazy.PadViolations())
	}

	again := s.integrityController(tmpl, img, imgDRAM)
	if again.IntegrityTree().Root() != root || again.dram.Stats() != imgDRAM.Stats() {
		t.Fatal("a controller's writes reached the shared tree image")
	}
	for _, a := range s.ages {
		if res := again.FetchLine(0, a[0]); !res.Authentic {
			t.Fatalf("aged line %#x rejected by a second clone", a[0])
		}
	}
}
