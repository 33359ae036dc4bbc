// Package cache provides the set-associative, tag-only LRU store behind
// every lookup structure of the machine: the L1 instruction and data
// caches and the unified L2 (package memsys), the instruction and data
// TLBs (memsys, one 4 KiB page a line), the prior-art sequence-number
// cache and the counter-line fetch buffer (package secmem), the
// two-level scheme's range table (package predictor) and the integrity
// tree's node cache (package integrity).
//
// The model tracks presence, dirtiness and LRU order but not data (the
// simulator keeps architectural data in package mem and encrypted data
// in package secmem). Caches are write-back, write-allocate by default;
// the L1 data cache is configured write-through by the hierarchy so that
// dirty state — and therefore sequence-number increments — is owned by
// the L2, as in the paper's secure-processor boundary.
package cache

import (
	"fmt"
	"slices"

	"ctrpred/internal/stats"
)

// Config describes one cache.
type Config struct {
	Name      string
	SizeBytes int
	LineSize  int
	Ways      int // 1 = direct-mapped
	// WriteThrough, when true, propagates writes below immediately and
	// never marks lines dirty in this cache.
	WriteThrough bool
}

// Validate checks the geometry.
func (c Config) Validate() error {
	if c.LineSize <= 0 || c.SizeBytes <= 0 || c.Ways <= 0 {
		return fmt.Errorf("cache %s: non-positive geometry %+v", c.Name, c)
	}
	lines := c.SizeBytes / c.LineSize
	if lines*c.LineSize != c.SizeBytes {
		return fmt.Errorf("cache %s: size %d not a multiple of line size %d", c.Name, c.SizeBytes, c.LineSize)
	}
	if lines%c.Ways != 0 {
		return fmt.Errorf("cache %s: %d lines not divisible by %d ways", c.Name, lines, c.Ways)
	}
	sets := lines / c.Ways
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache %s: %d sets is not a power of two", c.Name, sets)
	}
	return nil
}

// Stats counts cache events.
type Stats struct {
	Accesses       uint64
	Hits           uint64
	Misses         uint64
	Evictions      uint64
	DirtyEvictions uint64
}

// HitRate returns hits/accesses.
func (s Stats) HitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Accesses)
}

// AddTo registers the cache's counters into a metrics snapshot node.
func (s Stats) AddTo(n *stats.Snapshot) {
	n.Counter("accesses", s.Accesses)
	n.Counter("hits", s.Hits)
	n.Counter("misses", s.Misses)
	n.Counter("evictions", s.Evictions)
	n.Counter("dirty_evictions", s.DirtyEvictions)
	n.Value("hit_rate", s.HitRate())
}

type line struct {
	tag     uint64
	valid   bool
	dirty   bool
	lastUse uint64
}

// Eviction describes a victim line displaced by a fill.
type Eviction struct {
	Valid bool   // a valid line was displaced
	Addr  uint64 // line-aligned address of the victim
	Dirty bool   // victim held modified data (needs writeback)
}

// Cache is a single level of cache.
type Cache struct {
	cfg Config
	// lines holds every set's ways back to back, set by set, so a
	// lookup costs one dependent load.
	lines    []line
	setShift uint
	setMask  uint64
	clock    uint64
	stats    Stats
}

// New builds a cache; it panics on invalid geometry (configurations are
// static and constructed by trusted code).
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	lines := cfg.SizeBytes / cfg.LineSize
	c := &Cache{
		cfg:     cfg,
		lines:   make([]line, lines),
		setMask: uint64(lines/cfg.Ways - 1),
	}
	for s := cfg.LineSize; s > 1; s >>= 1 {
		c.setShift++
	}
	return c
}

// Clone returns an independent copy of the cache: same lines, LRU order
// and statistics.
func (c *Cache) Clone() *Cache {
	d := *c
	d.lines = slices.Clone(c.lines)
	return &d
}

// Stats returns a copy of the accumulated statistics.
func (c *Cache) Stats() Stats { return c.stats }

// set returns the ways of addr's set and addr's tag, the full line
// address (so a line's address is its tag shifted back).
func (c *Cache) set(addr uint64) (ways []line, tag uint64) {
	tag = addr >> (c.setShift & 63)
	i := int(tag&c.setMask) * c.cfg.Ways
	return c.lines[i : i+c.cfg.Ways], tag
}

// Access looks up addr (any byte address), allocating on miss, and
// reports whether it hit and which line (if any) was evicted by the fill.
// For write accesses on a write-back cache the line is marked dirty.
func (c *Cache) Access(addr uint64, write bool) (hit bool, ev Eviction) {
	c.clock++
	c.stats.Accesses++
	ways, tag := c.set(addr)
	for i := range ways {
		if w := &ways[i]; w.tag == tag && w.valid {
			c.stats.Hits++
			w.lastUse = c.clock
			if write && !c.cfg.WriteThrough {
				w.dirty = true
			}
			return true, Eviction{}
		}
	}
	return false, c.fill(ways, tag, write)
}

// fill is Access's miss path: it installs tag in an invalid way if the
// set has one, else in place of the least recently used line, and
// returns the line it displaced.
func (c *Cache) fill(ways []line, tag uint64, write bool) (ev Eviction) {
	c.stats.Misses++
	victim := 0
	for i := 1; i < len(ways); i++ {
		if !ways[i].valid {
			victim = i
			break
		}
		if !ways[victim].valid {
			break
		}
		if ways[i].lastUse < ways[victim].lastUse {
			victim = i
		}
	}
	if ways[victim].valid {
		ev = Eviction{Valid: true, Addr: ways[victim].tag << (c.setShift & 63), Dirty: ways[victim].dirty}
		c.stats.Evictions++
		if ev.Dirty {
			c.stats.DirtyEvictions++
		}
	}
	ways[victim] = line{tag: tag, valid: true, dirty: write && !c.cfg.WriteThrough, lastUse: c.clock}
	return ev
}

// Probe reports whether addr is present without updating LRU or stats.
func (c *Cache) Probe(addr uint64) bool {
	ways, tag := c.set(addr)
	for _, w := range ways {
		if w.valid && w.tag == tag {
			return true
		}
	}
	return false
}

// Invalidate removes addr's line if present, returning whether it was
// present and dirty. Used for back-invalidation (inclusive hierarchies).
func (c *Cache) Invalidate(addr uint64) (present, dirty bool) {
	ways, tag := c.set(addr)
	for i := range ways {
		if ways[i].valid && ways[i].tag == tag {
			present, dirty = true, ways[i].dirty
			ways[i] = line{}
			return
		}
	}
	return
}

// FlushDirty visits every dirty line (calling fn with its line address),
// marks it clean, and returns how many lines were flushed. It models the
// paper's periodic OS-induced flush of dirty cache lines every 25M cycles.
func (c *Cache) FlushDirty(fn func(lineAddr uint64)) int {
	n := 0
	for i := range c.lines {
		if l := &c.lines[i]; l.valid && l.dirty {
			if fn != nil {
				fn(l.tag << c.setShift)
			}
			l.dirty = false
			n++
		}
	}
	return n
}

// InvalidateAll empties the cache (used between simulation phases).
func (c *Cache) InvalidateAll() { clear(c.lines) }

// DirtyLines returns the number of currently dirty lines.
func (c *Cache) DirtyLines() int {
	n := 0
	for _, l := range c.lines {
		if l.valid && l.dirty {
			n++
		}
	}
	return n
}
