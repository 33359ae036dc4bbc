// Package cache provides the set-associative cache timing model used for
// the L1 instruction/data caches, the unified L2, and (via package
// seqcache) the sequence-number cache of the baseline architecture.
//
// The model is tag-only: it tracks presence, dirtiness and LRU order but
// not data (the simulator keeps architectural data in package mem and
// encrypted data in package secmem). Caches are write-back, write-allocate
// by default; the L1 data cache is configured write-through by the
// hierarchy so that dirty state — and therefore sequence-number increments
// — is owned by the L2, as in the paper's secure-processor boundary.
package cache

import (
	"fmt"

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
	cfg      Config
	sets     [][]line
	numSets  int
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
	numSets := cfg.SizeBytes / cfg.LineSize / cfg.Ways
	c := &Cache{
		cfg:     cfg,
		numSets: numSets,
		setMask: uint64(numSets - 1),
	}
	for s := cfg.LineSize; s > 1; s >>= 1 {
		c.setShift++
	}
	c.sets = make([][]line, numSets)
	backing := make([]line, numSets*cfg.Ways)
	for i := range c.sets {
		c.sets[i] = backing[i*cfg.Ways : (i+1)*cfg.Ways]
	}
	return c
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Clone returns an independent copy of the cache: same lines, LRU order
// and statistics.
func (c *Cache) Clone() *Cache {
	d := *c
	backing := make([]line, c.numSets*c.cfg.Ways)
	d.sets = make([][]line, c.numSets)
	for i, ways := range c.sets {
		d.sets[i] = backing[i*c.cfg.Ways : (i+1)*c.cfg.Ways]
		copy(d.sets[i], ways)
	}
	return &d
}

// Stats returns a copy of the accumulated statistics.
func (c *Cache) Stats() Stats { return c.stats }

// LineAddr returns addr rounded down to its line.
func (c *Cache) LineAddr(addr uint64) uint64 {
	return addr &^ uint64(c.cfg.LineSize-1)
}

func (c *Cache) index(addr uint64) (set int, tag uint64) {
	la := addr >> c.setShift
	return int(la & c.setMask), la >> 0 // tag keeps full line address for easy reconstruction
}

// Access looks up addr (any byte address), allocating on miss, and
// reports whether it hit and which line (if any) was evicted by the fill.
// For write accesses on a write-back cache the line is marked dirty.
func (c *Cache) Access(addr uint64, write bool) (hit bool, ev Eviction) {
	c.clock++
	c.stats.Accesses++
	set, tag := c.index(addr)
	ways := c.sets[set]
	for i := range ways {
		if ways[i].valid && ways[i].tag == tag {
			c.stats.Hits++
			ways[i].lastUse = c.clock
			if write && !c.cfg.WriteThrough {
				ways[i].dirty = true
			}
			return true, Eviction{}
		}
	}
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
		ev = Eviction{Valid: true, Addr: ways[victim].tag << c.setShift, Dirty: ways[victim].dirty}
		c.stats.Evictions++
		if ev.Dirty {
			c.stats.DirtyEvictions++
		}
	}
	ways[victim] = line{tag: tag, valid: true, dirty: write && !c.cfg.WriteThrough, lastUse: c.clock}
	return false, ev
}

// Probe reports whether addr is present without updating LRU or stats.
func (c *Cache) Probe(addr uint64) bool {
	set, tag := c.index(addr)
	for _, w := range c.sets[set] {
		if w.valid && w.tag == tag {
			return true
		}
	}
	return false
}

// Touch marks addr dirty if present (used when an upper write-through
// level pushes a write into this cache without a full access — not
// currently used by the hierarchy but part of the model's API).
func (c *Cache) Touch(addr uint64, write bool) bool {
	set, tag := c.index(addr)
	ways := c.sets[set]
	for i := range ways {
		if ways[i].valid && ways[i].tag == tag {
			c.clock++
			ways[i].lastUse = c.clock
			if write && !c.cfg.WriteThrough {
				ways[i].dirty = true
			}
			return true
		}
	}
	return false
}

// Invalidate removes addr's line if present, returning whether it was
// present and dirty. Used for back-invalidation (inclusive hierarchies).
func (c *Cache) Invalidate(addr uint64) (present, dirty bool) {
	set, tag := c.index(addr)
	ways := c.sets[set]
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
	for _, ways := range c.sets {
		for i := range ways {
			if ways[i].valid && ways[i].dirty {
				if fn != nil {
					fn(ways[i].tag << c.setShift)
				}
				ways[i].dirty = false
				n++
			}
		}
	}
	return n
}

// InvalidateAll empties the cache (used between simulation phases).
func (c *Cache) InvalidateAll() {
	for _, ways := range c.sets {
		for i := range ways {
			ways[i] = line{}
		}
	}
}

// DirtyLines returns the number of currently dirty lines.
func (c *Cache) DirtyLines() int {
	n := 0
	for _, ways := range c.sets {
		for i := range ways {
			if ways[i].valid && ways[i].dirty {
				n++
			}
		}
	}
	return n
}
