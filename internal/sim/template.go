// Machine-construction template cache: everything NewMachine derives
// purely from (benchmark, scale, seed) — the assembled program, the
// written image, the sampled counter-aging profile, and the pre-aged
// off-chip state — is built once and shared copy-on-write across every
// machine of a sweep. A figure-7-style sweep builds dozens of machines
// per benchmark that differ only in scheme; before this cache each of
// them re-assembled and re-aged megabytes of identical state.
//
// A cold template costs about what its bytes cost. The workload
// builders write the image a line at a time, in address order; the
// counter half is laid over the image a page at a time from its
// presence bitmaps (secmem.BuildAgedTemplate), and the pad half's slot
// table takes one page per counter-half page. What remains is mostly
// allocating and first touching those pages.
//
// The pre-aged state is a secmem.AgedTemplate. Its counter half is built
// with the template. Its pad half is a table of per-line slots that
// exists only once a full-model machine without a tree attaches, and
// each slot is sealed (encrypted under the line's aged counter) the
// first time any machine reads or writes that line. The counters-only
// machines of the hit-rate figures so never pay for AES; a cold
// full-model machine pays for the lines it touches (about one in ten at
// service scale); a warm one finds them sealed by the machines before
// it.
//
// Integrity machines attach the counter half too. Every aged line's leaf
// is loaded into the machine's hash tree at cycle 0, and those timed
// updates leave node-cache and data-DRAM state behind, so the template
// keeps one loaded, frozen tree per DRAM configuration (built on first
// use, like the template) and each integrity machine starts from a clone
// of it and of its DRAM channel. Such a machine seals the template lines
// it touches into its own pad table.
//
// Sharing is sound because all of the cached artifacts are functions of
// the key (seed-derived), the image (seed-derived), the counter roots
// (drawn from rng.New(seed^0xabcdef) in aged-page first-touch order,
// which is itself seed-derived) and, for a tree image, the DRAM
// configuration — scheme choice influences none of them.
//
// The template is the only way a counter-mode machine gets its starting
// state. The per-line aging loop it replaced (Controller.AgeLine over the
// sample list, each other line created at first touch) lives on as a
// test oracle, and the two differ in one case only: when a page's root
// resets before a template line of that page is first touched. The
// template line still holds the root its page was mapped with, so its
// fetch misses and its next writeback re-bases it; the loop would have
// created it then, under the page's current root.
package sim

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"ctrpred/internal/ctr"
	"ctrpred/internal/dram"
	"ctrpred/internal/integrity"
	"ctrpred/internal/isa"
	"ctrpred/internal/mem"
	"ctrpred/internal/predictor"
	"ctrpred/internal/rng"
	"ctrpred/internal/secmem"
	"ctrpred/internal/workload"
)

// machineTemplate is the frozen seed-deterministic part of a machine.
type machineTemplate struct {
	prog  *isa.Program
	image *mem.Memory // frozen; machines attach views
	// ageList is the full sampled aging profile in draw order, including
	// lines sampled more than once. It feeds the tree image's load and
	// two-level range warm-up.
	ageList []secmem.AgedLine
	// agePages holds one line address per distinct page, in the order
	// the template drew the pages' roots: every machine's predictor
	// replays the draws in this order.
	agePages []uint64
	aged     *secmem.AgedTemplate

	treeMu    sync.Mutex // guards trees, never a build
	trees     map[dram.Config]*treeEntry
	treeLoads atomic.Int32 // tree image builds started (tests)
}

// treeEntry is one loaded tree image: the frozen tree holding the aged
// lines' leaves for an integrity machine with that DRAM configuration,
// and the data channel its load updates wrote to. Built at most once,
// like tmplEntry.
type treeEntry struct {
	once sync.Once
	tree *integrity.Tree
	dram *dram.DRAM
	err  error
}

type templateKey struct {
	bench string
	scale workload.Scale
	seed  uint64
}

// tmplEntry is one cache slot. Its template is built at most once, by
// whichever caller gets there first; later callers for the key wait on
// the once, and callers for other keys never wait on it at all.
type tmplEntry struct {
	once sync.Once
	t    *machineTemplate
	err  error
}

var (
	tmplMu    sync.Mutex // guards tmplCache and tmplOrder, never a build
	tmplCache = map[templateKey]*tmplEntry{}
	tmplOrder []templateKey
)

// tmplCacheMax bounds cached templates (FIFO). A template (image, aging
// profile and counter half) measures 1.1–1.3 MiB at 512 KiB footprints,
// 2.1–2.5 MiB at 1 MiB and 16–17 MiB at the hit-rate figures' 8 MiB. The
// first full-model machine to attach adds the pad-slot table, 72 bytes a
// line: 1.1–1.4, 2.3–2.8 and 18–19 MiB, where a slot is written only
// when its line is sealed. The first integrity machine adds a loaded
// tree image per DRAM configuration, about 370 bytes a tree node: at
// most 0.44 MiB at 256 KiB and 14 MiB at 8 MiB, where benchmarks whose
// aged lines cluster load 0.01–3 MiB. The cap covers a full benchmark
// sweep at two scales. An evicted template is rebuilt on its next use:
// on a 2-vCPU host, building one with its pad-slot table takes a median
// over the 14 benchmarks of 1.6–2.6 ms at 512 KiB, 5.0–5.7 ms at 1 MiB
// and 29–40 ms at 8 MiB (lowest and highest of two runs; at 8 MiB the
// benchmarks range from 1.5 ms for twolf, whose image stops at 512 KiB,
// to 40 ms). The benchmark's service-mix draws its cold sims from 384
// (benchmark, seed) keys, so about 95% of them rebuild their template.
const tmplCacheMax = 32

// getTemplate returns the cached template for (bench, scale, seed),
// building it on first use. Safe for concurrent sweeps: builds run per
// key, outside the cache lock, so a build blocks only the callers
// waiting for that same key. A failed build is not cached; the next
// call for the key retries.
func getTemplate(bench string, cfg Config) (*machineTemplate, error) {
	key := templateKey{bench: bench, scale: cfg.Scale, seed: cfg.Seed}
	tmplMu.Lock()
	e, ok := tmplCache[key]
	if !ok {
		if len(tmplOrder) >= tmplCacheMax {
			delete(tmplCache, tmplOrder[0])
			tmplOrder = tmplOrder[1:]
		}
		e = &tmplEntry{}
		tmplCache[key] = e
		tmplOrder = append(tmplOrder, key)
	}
	tmplMu.Unlock()

	e.once.Do(func() {
		// Overwritten unless buildTemplate panics; then the key's other
		// callers get an error, not a nil template.
		e.err = fmt.Errorf("sim: building the %s template panicked", bench)
		e.t, e.err = buildTemplate(bench, cfg)
	})
	if e.err != nil {
		tmplMu.Lock()
		if tmplCache[key] == e {
			dropTemplate(key)
		}
		tmplMu.Unlock()
		return nil, e.err
	}
	return e.t, nil
}

// treeImage returns the template's loaded tree and data channel for
// dcfg, building them on first use outside every cache lock. Callers
// clone both; neither may be used directly. A build that panics leaves
// no entry, so the next call retries.
func (t *machineTemplate) treeImage(dcfg dram.Config) (*integrity.Tree, *dram.DRAM, error) {
	t.treeMu.Lock()
	e := t.trees[dcfg]
	if e == nil {
		e = &treeEntry{}
		t.trees[dcfg] = e
	}
	t.treeMu.Unlock()

	e.once.Do(func() {
		// Cleared unless the build panics; then the entry is dropped
		// before the panic propagates, and the key's waiting callers get
		// this error.
		e.err = fmt.Errorf("sim: loading the integrity tree image panicked")
		defer func() {
			if e.err != nil {
				t.treeMu.Lock()
				delete(t.trees, dcfg)
				t.treeMu.Unlock()
			}
		}()
		t.treeLoads.Add(1)
		e.dram = dram.New(dcfg)
		e.tree = integrity.New(integrity.DefaultConfig(), e.dram)
		t.aged.LoadTree(e.tree, t.ageList)
		e.tree.Freeze()
		e.err = nil
	})
	return e.tree, e.dram, e.err
}

// dropTemplate removes key from the cache. The caller holds tmplMu.
func dropTemplate(key templateKey) {
	delete(tmplCache, key)
	tmplOrder = slices.DeleteFunc(tmplOrder, func(k templateKey) bool { return k == key })
}

// buildTemplate runs the seed-deterministic half of machine construction
// once: build the workload, sample its aging profile, and pre-age the
// off-chip counters (each line's pad is sealed under the machine key on
// its first full-model use, see secmem.AgedTemplate). Root counters are
// drawn through a throwaway predictor seeded as every machine's own is,
// so a machine's predictor replaying roots in agePages order draws the
// same values.
func buildTemplate(bench string, cfg Config) (*machineTemplate, error) {
	image := mem.New()
	wl, err := workload.Build(bench, cfg.Scale, image, cfg.Seed)
	if err != nil {
		return nil, err
	}
	t := &machineTemplate{prog: wl.Prog, image: image, trees: map[dram.Config]*treeEntry{}}

	ager := rng.New(cfg.Seed ^ 0xa6e0a6e)
	// A span yields at most one sample per covered line; sizing the list
	// up front turns the append loop's doubling churn (tens of MB of
	// abandoned half-size arrays at default scale) into one allocation.
	est := 0
	for _, span := range wl.Ages {
		if span.Bytes > 0 {
			est += span.Bytes / 32
		}
	}
	t.ageList = make([]secmem.AgedLine, 0, est)
	for _, span := range wl.Ages {
		span.SampleAges(ager, func(lineAddr, offset uint64) {
			t.ageList = append(t.ageList, secmem.AgedLine{Addr: lineAddr, Offset: offset})
		})
	}
	if slack := cap(t.ageList) - len(t.ageList); slack > len(t.ageList)/8 {
		// Static chunks and zero offsets were skipped; don't let the
		// cached template pin the unused tail.
		t.ageList = append(make([]secmem.AgedLine, 0, len(t.ageList)), t.ageList...)
	}

	tpcfg := predictor.DefaultConfig(predictor.SchemeNone)
	tpcfg.Seed = cfg.Seed ^ 0xabcdef
	tp := predictor.New(tpcfg)
	pages := 0
	ks := ctr.NewKeystream(machineKey(cfg.Seed))
	// Roots are drawn in the builder's order: aged lines first, in
	// sampling order, then every other image line at offset 0 from the
	// root its page was mapped with, which the line keeps until its first
	// writeback — done here once instead of on the fetch path of every
	// machine.
	t.aged = secmem.BuildAgedTemplate(ks, image, func(la uint64) uint64 {
		root := tp.Root(la)
		if n := tp.PageCount(); n > pages {
			pages = n
			t.agePages = append(t.agePages, la)
		}
		return root
	}, t.ageList)
	image.Freeze()
	return t, nil
}

// machineKey derives the machine's AES key from the run seed (xorshift
// whitening of a golden-ratio fold).
func machineKey(seed uint64) [32]byte {
	var key [32]byte
	kr := seed*0x9e3779b97f4a7c15 + 0x1234
	for i := 0; i < 32; i += 8 {
		kr ^= kr << 13
		kr ^= kr >> 7
		kr ^= kr << 17
		for j := 0; j < 8; j++ {
			key[i+j] = byte(kr >> (8 * j))
		}
	}
	return key
}
