package secmem

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"ctrpred/internal/cryptoengine"
	"ctrpred/internal/ctr"
	"ctrpred/internal/dram"
	"ctrpred/internal/integrity"
	"ctrpred/internal/mem"
	"ctrpred/internal/paged"
	"ctrpred/internal/predictor"
	"ctrpred/internal/rng"
)

// agedSetup is a small pre-aged workload: a written image and an aging
// profile with one repeated line, the shape sim's template builder
// replays.
type agedSetup struct {
	key   [32]byte
	image *mem.Memory
	lines []uint64   // the image's lines, ascending
	ages  []AgedLine // the aging profile in setup order
}

func newAgedSetup() *agedSetup {
	s := &agedSetup{image: mem.New()}
	s.key[0] = 0x42
	for i := uint64(0); i < 96; i++ {
		addr := 0x10000 + i*40
		s.image.Store(addr, 8, i*0x9e3779b97f4a7c15)
		if la := mem.LineAddr(addr); len(s.lines) == 0 || s.lines[len(s.lines)-1] != la {
			s.lines = append(s.lines, la)
		}
	}
	s.ages = []AgedLine{{0x10040, 7}, {0x12000, 3}, {0x10040, 9}, {0x20000, 1}}
	s.image.Freeze()
	return s
}

// visit yields the aging profile, then every image line at offset 0 —
// the template's order, line by line.
func (s *agedSetup) visit(yield func(la, offset uint64)) {
	for _, a := range s.ages {
		yield(a.Addr, a.Offset)
	}
	for _, la := range s.lines {
		yield(la, 0)
	}
}

func (s *agedSetup) build() *AgedTemplate {
	tp := predictor.New(predictor.DefaultConfig(predictor.SchemeNone))
	return BuildAgedTemplate(ctr.NewKeystream(s.key), s.image, tp.Root, s.ages)
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
	for _, la := range s.lines {
		now = c.FetchLine(now, la).Done
		c.EvictLine(now, la)
	}
	if tmpl.slots != nil || tmpl.SealedLines() != 0 {
		t.Fatal("a counters-only attach allocated or sealed the template's pad half")
	}
	if got, want := c.Seq(0x10040), c.Predictor().Root(0x10040)+7; got <= want {
		t.Fatalf("evicted aged line's counter = %d, want past %d", got, want)
	}
}

// templateLines returns the first n image lines in address order.
func (s *agedSetup) templateLines(n int) []uint64 {
	return s.lines[:min(n, len(s.lines))]
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
	for _, la := range s.lines {
		if lazy.Seq(la) != eager.Seq(la) || lazy.EncryptedLine(la) != eager.EncryptedLine(la) {
			t.Fatalf("line %#x: template state differs from eager aging", la)
		}
		res := lazy.FetchLine(now, la)
		now = res.Done
		if res.Plain != s.image.LineAt(la) {
			t.Fatalf("line %#x decrypted wrong", la)
		}
	}
	if err := lazy.SecurityErr(); err != nil {
		t.Fatal(err)
	}
	if f := lazy.Stats().SelfCheckFails; f != 0 {
		t.Fatalf("%d self-check failures", f)
	}
}

// TestAgedTemplateKeepsMappingRootAfterReset pins the one rule in which
// a template differs from eager aging: a page's root resets before a
// template line of that page is first touched. The line still holds the
// root its page was mapped with, so its fetch is no prediction hit yet
// decrypts to the image, and its next writeback re-bases it onto the
// current root. Eager aging creates such a line at its first touch,
// under the page's current root.
func TestAgedTemplateKeepsMappingRootAfterReset(t *testing.T) {
	s := newAgedSetup()
	const la = 0x10000 // an unaged image line on the aged line 0x10040's page
	// resetRoot drives la's page to one adaptive root reset with a full
	// history vector of misses, and returns the root it had before.
	resetRoot := func(c *Controller) uint64 {
		p := c.Predictor()
		mapped := p.Root(la)
		for range p.Config().PHVBits {
			p.Observe(la, 0, nil)
		}
		if p.Stats().Resets != 1 || p.Root(la) == mapped {
			t.Fatalf("%d misses reset the root %d times", p.Config().PHVBits, p.Stats().Resets)
		}
		return mapped
	}

	c := s.controller(DefaultConfig())
	c.UseAgedTemplate(s.build())
	mapped := resetRoot(c)
	cur := c.Predictor().Root(la)
	res := c.FetchLine(0, la)
	if got := c.Seq(la); got != mapped {
		t.Fatalf("template line's counter = %d, want its page's mapping root %d (current root %d)", got, mapped, cur)
	}
	if res.PredHit {
		t.Fatal("a counter on the discarded root was predicted")
	}
	if res.Plain != s.image.LineAt(la) {
		t.Fatal("template line decrypted wrong")
	}
	rebases := c.Predictor().Stats().Rebases
	c.EvictLine(res.Done, la)
	if got := c.Predictor().Stats().Rebases - rebases; got != 1 {
		t.Fatalf("writeback re-based %d times, want 1", got)
	}
	if got := c.Seq(la); got != cur {
		t.Fatalf("re-based counter = %d, want the current root %d", got, cur)
	}
	if err := c.SecurityErr(); err != nil {
		t.Fatal(err)
	}
	if f := c.Stats().SelfCheckFails; f != 0 {
		t.Fatalf("%d self-check failures", f)
	}

	eager := s.controller(DefaultConfig())
	for _, a := range s.ages {
		eager.AgeLine(a.Addr, a.Offset)
	}
	resetRoot(eager)
	res = eager.FetchLine(0, la)
	if got, want := eager.Seq(la), eager.Predictor().Root(la); got != want {
		t.Fatalf("eagerly created line's counter = %d, want the current root %d", got, want)
	}
	if !res.PredHit {
		t.Fatal("a line created at the current root was not predicted")
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
	tseq := *tmpl.ctrs.Lookup(la)
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
	seq := *tmpl.ctrs.Lookup(la)
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
	tmpl.LoadTree(tree, s.ages)
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
// installed at first touch, pads read from the template's shared slots —
// to eager aging call for call, and checks that its writes never reach
// the image a second clone starts from, and that a second controller
// over the same lines finds every slot it reads sealed.
func TestAgedTemplateIntegrityMatchesEager(t *testing.T) {
	s := newAgedSetup()
	tmpl := s.build()
	img, imgDRAM := s.loadedTree(tmpl)
	root := img.Clone(nil).Root()
	if tmpl.slots == nil {
		t.Fatal("the tree load left the template's pad half unallocated")
	}
	aged := map[uint64]bool{}
	for _, a := range s.ages {
		aged[mem.LineAddr(a.Addr)] = true
	}
	if got := tmpl.SealedLines(); got != len(aged) {
		t.Fatalf("loading %d distinct aged lines sealed %d slots", len(aged), got)
	}

	lazy := s.integrityController(tmpl, img, imgDRAM)
	ed := dram.New(dram.DefaultConfig())
	eager := s.controllerOn(DefaultConfig(), ed)
	eager.AttachIntegrity(integrity.New(integrity.DefaultConfig(), ed))
	for _, a := range s.ages {
		eager.AgeLine(a.Addr, a.Offset)
	}
	lt, et := lazy.IntegrityTree(), eager.IntegrityTree()
	if lt.Root() != et.Root() || lt.Stats() != et.Stats() || lazy.dram.Stats() != ed.Stats() {
		t.Fatal("the cloned tree image differs from eager aging's tree")
	}

	var now uint64
	for _, la := range s.lines {
		lr, er := lazy.FetchLine(now, la), eager.FetchLine(now, la)
		if lr != er || !lr.Authentic || lr.Plain != s.image.LineAt(la) {
			t.Fatalf("line %#x: fetch %+v, eager %+v", la, lr, er)
		}
		now = lr.Done
		if l, e := lazy.EvictLine(now, la), eager.EvictLine(now, la); l != e {
			t.Fatalf("line %#x: writeback done %d, eager %d", la, l, e)
		}
	}
	if lt.Root() != et.Root() || lt.Stats() != et.Stats() || lazy.dram.Stats() != ed.Stats() {
		t.Fatal("after a fetch and a writeback of every line, the trees differ")
	}
	if err := lazy.SecurityErr(); err != nil || lazy.PadViolations() != 0 {
		t.Fatalf("security error %v, %d pad violations", err, lazy.PadViolations())
	}
	sealed := tmpl.SealedLines()

	again := s.integrityController(tmpl, img, imgDRAM)
	if again.IntegrityTree().Root() != root || again.dram.Stats() != imgDRAM.Stats() {
		t.Fatal("a controller's writes reached the shared tree image")
	}
	for _, a := range s.ages {
		if res := again.FetchLine(0, a.Addr); !res.Authentic {
			t.Fatalf("aged line %#x rejected by a second clone", a.Addr)
		}
	}
	for _, la := range s.lines {
		if res := again.FetchLine(0, la); !res.Authentic || res.Plain != s.image.LineAt(la) {
			t.Fatalf("line %#x: second clone's fetch %+v", la, res)
		}
	}
	if got := tmpl.SealedLines(); got != sealed {
		t.Fatalf("a second integrity controller over the same lines sealed %d new slots", got-sealed)
	}
}

// tableElem returns the size of one entry of table.
func tableElem[V any](*paged.Table[V]) uintptr {
	var v V
	return unsafe.Sizeof(v)
}

// TestAgedTemplateAttackStaysLocal puts two full-model controllers on one
// template, one with a clone of the loaded tree and one without, and lets
// one of them, A, apply each RAM attack to a never-written template line.
// The attack must stay in A: A's counter entry is still the template's
// (no page was copied), A's fetch is rejected with a tree or decrypts
// wrong without one, and the other controller, B, still reads the image.
// A's writeback then advances from the legitimate counter and clears the
// forgery, and A's next fetch verifies.
func TestAgedTemplateAttackStaysLocal(t *testing.T) {
	s := newAgedSetup()
	la, lb := s.lines[10], s.lines[20] // unaged template lines
	attacks := []struct {
		name  string
		apply func(c *Controller, tmpl *AgedTemplate) bool
	}{
		{"bitflip", func(c *Controller, _ *AgedTemplate) bool { return c.TamperData(la, 77) }},
		{"rollback", func(c *Controller, _ *AgedTemplate) bool { return c.TamperCounter(la, 1) }},
		{"splice", func(c *Controller, _ *AgedTemplate) bool { return c.SpliceLines(la, lb) }},
		{"replay", func(c *Controller, tmpl *AgedTemplate) bool {
			// What the line held one update ago, with other contents.
			seq := *tmpl.ctrs.Lookup(la) - 1
			stale := ctr.NewKeystream(s.key).EncryptLine(ctr.Line{0: 0xee}, la, seq)
			return c.ReplayStale(la, stale, seq)
		}},
	}
	for _, atk := range attacks {
		for _, aTree := range []bool{true, false} {
			name := fmt.Sprintf("%s/tree=%v", atk.name, aTree)
			tmpl := s.build()
			img, imgDRAM := s.loadedTree(tmpl)
			a, b := s.integrityController(tmpl, img, imgDRAM), s.controller(DefaultConfig())
			b.UseAgedTemplate(tmpl)
			if !aTree {
				a, b = b, a
			}
			tseq := *tmpl.ctrs.Lookup(la)
			if !atk.apply(a, tmpl) {
				t.Fatalf("%s: the attack was refused", name)
			}
			for _, l := range []uint64{la, lb} {
				if a.ctrs.Lookup(l) != tmpl.ctrs.Lookup(l) || a.pads.Lookup(l) != nil {
					t.Fatalf("%s: the attack copied line %#x's page out of the template", name, l)
				}
			}
			res := a.FetchLine(0, la)
			if aTree && res.Authentic {
				t.Fatalf("%s: the attacked fetch verified", name)
			}
			if !aTree && res.Plain == s.image.LineAt(la) {
				t.Fatalf("%s: the attacked fetch decrypted to the image", name)
			}
			if a.ctrs.Lookup(la) != tmpl.ctrs.Lookup(la) {
				t.Fatalf("%s: the attacked fetch copied the line's page out of the template", name)
			}
			if res := b.FetchLine(0, la); !res.Authentic || res.Plain != s.image.LineAt(la) {
				t.Fatalf("%s: the other controller's fetch %+v", name, res)
			}

			done := a.EvictLine(res.Done, la)
			if got := a.Seq(la); got != tseq+1 {
				t.Fatalf("%s: writeback sealed counter %d, want %d (one past the legitimate counter)", name, got, tseq+1)
			}
			if _, ok := a.forged[la]; ok {
				t.Fatalf("%s: the writeback left the forgery in place", name)
			}
			if res := a.FetchLine(done, la); !res.Authentic || res.Plain != s.image.LineAt(la) {
				t.Fatalf("%s: fetch after the writeback %+v", name, res)
			}
			for i, c := range []*Controller{a, b} {
				if c.Stats().SelfCheckFails != 0 || c.PadViolations() != 0 {
					t.Fatalf("%s: controller %d: %d self-check failures, %d pad violations",
						name, i, c.Stats().SelfCheckFails, c.PadViolations())
				}
			}
		}
	}

	c := s.controller(DefaultConfig())
	c.UseAgedTemplate(s.build())
	if n := tableElem(c.ctrs); n != 8 {
		t.Errorf("a counter-table entry is %d bytes, want 8", n)
	}
	if n := tableElem(c.pads); n != 64 {
		t.Errorf("a pad-table entry is %d bytes, want 64", n)
	}
}

// perLineTemplate is the per-line construction the page-wise builders
// replaced, kept as their oracle: every aged sample, then every image
// line in ascending address order, through one Ensure each, a root
// drawn for each line the Ensure creates; and a pad half of one Ensure
// per counter-half line.
func perLineTemplate(lines []uint64, roots func(la uint64) uint64, aged []AgedLine) (*paged.Table[uint64], *paged.Table[padSlot]) {
	ctrs := paged.New[uint64](ctr.LineSize)
	age := func(la, offset uint64) {
		if cs, fresh := ctrs.Ensure(la); fresh {
			*cs = roots(la) + offset
		}
	}
	for _, a := range aged {
		age(mem.LineAddr(a.Addr), a.Offset)
	}
	for _, la := range lines {
		age(la, 0)
	}
	slots := paged.New[padSlot](ctr.LineSize)
	ctrs.ForEach(func(la uint64, _ *uint64) { slots.Ensure(la) })
	return ctrs, slots
}

// recordingRoots draws page roots from a fresh default-geometry
// predictor, as sim's template builder does, and records the line of
// every draw.
func recordingRoots() (func(la uint64) uint64, *[]uint64) {
	tp := predictor.New(predictor.DefaultConfig(predictor.SchemeNone))
	var calls []uint64
	return func(la uint64) uint64 {
		calls = append(calls, la)
		return tp.Root(la)
	}, &calls
}

// TestAgedTemplateMatchesPerLineOracle holds the page-wise counter half
// and pad half to perLineTemplate over random images and aging profiles:
// repeated samples, samples outside the image, a full page, a one-line
// page after an empty one, and lines past the 4 GiB dense horizon. Both
// must hold the same lines with the same counters, and the roots must be
// drawn for the same lines in the same order.
func TestAgedTemplateMatchesPerLineOracle(t *testing.T) {
	const pageBytes = 2048 * ctr.LineSize // one paged page of lines
	for seed := uint64(1); seed <= 6; seed++ {
		r := rng.New(seed)
		image := mem.New()
		present := map[uint64]bool{}
		var lines []uint64
		write := func(la uint64) {
			image.StoreWords(la, r.Uint64())
			if !present[la] {
				present[la] = true
				lines = append(lines, la)
			}
		}
		for la := uint64(3 * pageBytes); la < 4*pageBytes; la += ctr.LineSize {
			write(la)
		}
		write(5*pageBytes + 7*ctr.LineSize)
		for n := 0; n < 2000; n++ {
			la := mem.LineAddr(r.Uint64() % (1 << 22))
			if pg := la / pageBytes; pg >= 3 && pg <= 5 {
				continue // keep pages 3 (full), 4 (empty) and 5 (one line)
			}
			if r.Bool(0.1) {
				la += 1 << 32
			}
			write(la)
		}
		slices.Sort(lines)
		var aged []AgedLine
		for n := 0; n < 1500; n++ {
			var addr uint64
			switch k := r.Intn(4); {
			case k == 0 && len(aged) > 0: // a repeat, with another offset
				addr = aged[r.Intn(len(aged))].Addr
			case k == 1: // outside the image, perhaps past the horizon
				addr = r.Uint64()%(1<<23) + uint64(r.Intn(2))<<33
			default: // an image line, at any byte of it
				addr = lines[r.Intn(len(lines))] + uint64(r.Intn(ctr.LineSize))
			}
			aged = append(aged, AgedLine{Addr: addr, Offset: uint64(1 + r.Intn(9))})
		}
		image.Freeze()

		roots, calls := recordingRoots()
		tmpl := BuildAgedTemplate(ctr.NewKeystream([32]byte{byte(seed)}), image, roots, aged)
		oracleRoots, oracleCalls := recordingRoots()
		ctrs, slots := perLineTemplate(lines, oracleRoots, aged)

		if !slices.Equal(*calls, *oracleCalls) {
			t.Fatalf("seed %d: roots drawn for %d lines, the oracle %d (or in another order)", seed, len(*calls), len(*oracleCalls))
		}
		if tmpl.Lines() != ctrs.Count() || tmpl.ctrs.Count() != ctrs.Count() {
			t.Fatalf("seed %d: counter half holds %d lines, the oracle %d", seed, tmpl.Lines(), ctrs.Count())
		}
		type line struct{ la, seq uint64 }
		var got, want []line
		tmpl.ctrs.ForEach(func(la uint64, seq *uint64) { got = append(got, line{la, *seq}) })
		ctrs.ForEach(func(la uint64, seq *uint64) { want = append(want, line{la, *seq}) })
		if !slices.Equal(got, want) {
			t.Fatalf("seed %d: counter half differs from the per-line oracle", seed)
		}

		tmpl.buildPadHalf()
		if tmpl.slots.Count() != slots.Count() {
			t.Fatalf("seed %d: pad half holds %d slots, the oracle %d", seed, tmpl.slots.Count(), slots.Count())
		}
		var gotSlots, wantSlots []uint64
		tmpl.slots.ForEach(func(la uint64, s *padSlot) {
			if s.state.Load() != slotEmpty || s.ps != (padState{}) {
				t.Fatalf("seed %d: slot %#x is not empty", seed, la)
			}
			gotSlots = append(gotSlots, la)
		})
		slots.ForEach(func(la uint64, _ *padSlot) { wantSlots = append(wantSlots, la) })
		if !slices.Equal(gotSlots, wantSlots) {
			t.Fatalf("seed %d: pad half covers other lines than the oracle's", seed)
		}
	}
}
