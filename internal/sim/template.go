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
// The pre-aged state is a secmem.AgedTemplate. Its counter half, 8
// bytes a line, is built with the template. Its pad half is a table of
// per-line slots that exists only once a full-model machine attaches or
// a tree image loads, and each slot is sealed (encrypted under the
// line's aged counter) the first time any machine or tree load reads or
// writes that line. The counters-only machines of the hit-rate figures
// so never pay for AES; a cold full-model machine pays for the lines it
// touches (about one in ten at service scale); a warm one finds them
// sealed by the machines before it.
//
// Integrity machines read the same slots. Every aged line's leaf is
// loaded into the machine's hash tree at cycle 0, and those timed
// updates leave node-cache and data-DRAM state behind, so the template
// keeps one loaded, frozen tree image (built when the first integrity
// machine attaches, over the aged lines' sealed slots) and each
// integrity machine starts from a clone of it and of its DRAM channel.
//
// Sharing is sound because all of the cached artifacts are functions of
// the key (seed-derived), the image (seed-derived) and the counter roots
// (drawn from rng.New(rootSeed(seed)) in aged-page first-touch order,
// which is itself seed-derived) — scheme choice influences none of them.
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

	// treeImage returns the frozen tree holding the aged lines' leaves
	// and the data channel its load updates wrote to, loading them (see
	// loadTree) on the first call. Callers clone both; neither may be
	// used directly.
	treeImage func() (*integrity.Tree, *dram.DRAM)
	treeLoads atomic.Int32 // tree image loads started (tests)
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
// profile and counter half) measures 0.6–1.1 MiB at 512 KiB footprints,
// 1.0–2.0 MiB at 1 MiB and 1.1–15 MiB at the hit-rate figures' 8 MiB
// (median 12; twolf's image stops at 512 KiB). The first full-model
// machine to attach, or the first tree image to load, adds the pad-slot
// table, 68 bytes a line: 1.0–1.6, 1.3–3.0 and 1.3–20 MiB (median 18),
// where a slot is written only when its line is sealed; integrity
// templates carry it too. The first integrity machine adds the loaded
// tree image, about 350 bytes a tree node (a 320-byte node holding its
// child digests, its table slot and page overhead): at most 0.42 MiB at
// 256 KiB and 13.4 MiB at 8 MiB, where benchmarks whose aged lines
// cluster load 0.01–3 MiB. The cap covers a full benchmark
// sweep at two scales. An evicted template is rebuilt on its next use:
// on a 2-vCPU Xeon host, building one with its pad-slot table takes a
// median over the 14 benchmarks of 2.2–3.0 ms at 512 KiB, 5.0–6.2 ms at
// 1 MiB and 43–54 ms at 8 MiB (lowest and highest of three runs). The
// benchmark's service-mix draws its cold sims from 384 (benchmark, seed)
// keys, so about 95% of them rebuild their template.
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

// loadTree builds the template's tree image: an integrity machine's
// tree and data channel with every aged line's leaf loaded at cycle 0,
// frozen for cloning.
func (t *machineTemplate) loadTree() (*integrity.Tree, *dram.DRAM) {
	t.treeLoads.Add(1)
	d := dram.New(dram.DefaultConfig())
	tree := integrity.New(integrity.DefaultConfig(), d)
	t.aged.LoadTree(tree, t.ageList)
	tree.Freeze()
	return tree, d
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
	t := &machineTemplate{prog: wl.Prog, image: image}
	t.treeImage = sync.OnceValues(t.loadTree)

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

	tp := predictor.New(predictor.SchemeNone, predictor.DefaultConfig(), rootSeed(cfg.Seed))
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
