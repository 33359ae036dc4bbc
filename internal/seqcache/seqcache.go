// Package seqcache implements the on-chip sequence number cache of the
// prior-art architectures the paper compares against ([Suh et al. 2003],
// [Yang et al. 2003]): a dedicated cache holding the 64-bit counters of
// recently touched memory blocks so that pad generation can start before
// the counter returns from DRAM.
//
// Counters are cached in 32-byte lines (Table 1), so one cache line covers
// the counters of four adjacent memory blocks — the source of the scheme's
// spatial locality. The cache is modeled as read-allocate with
// write-update: a fetch miss fills the line after the counter arrives from
// memory; a counter increment on dirty eviction updates the cached copy if
// present and otherwise allocates it (the evicted line is the block most
// recently displaced, a likely near-future miss).
package seqcache

import (
	"ctrpred/internal/cache"
	"ctrpred/internal/ctr"
)

// SeqBytes is the size of one sequence number in memory.
const SeqBytes = 8

// Cache is a dedicated sequence-number cache.
type Cache struct {
	inner *cache.Cache
}

// New creates a sequence-number cache of the given total size in bytes
// (4 KB … 512 KB in the paper's sweeps).
func New(sizeBytes int) *Cache {
	return &Cache{inner: cache.New(Geometry(sizeBytes))}
}

// Geometry returns the cache shape New builds for sizeBytes: 4-way with
// 32-byte lines. Check it with Validate before New, which panics on a
// size the cache model cannot build.
func Geometry(sizeBytes int) cache.Config {
	ways := 4
	if sizeBytes/32 < ways { // degenerate tiny caches used in tests
		ways = 1
	}
	return cache.Config{Name: "seqcache", SizeBytes: sizeBytes, LineSize: 32, Ways: ways}
}

// entryAddr maps a data line address to its counter's address in the
// counter table's own address space (counters are dense: one per line).
func entryAddr(lineAddr uint64) uint64 {
	return lineAddr / ctr.LineSize * SeqBytes
}

// Lookup probes the cache for the counter of the data line at lineAddr
// and reports a hit. It does not allocate — call Fill once the counter
// has been fetched from memory.
func (c *Cache) Lookup(lineAddr uint64) bool {
	return c.inner.Probe(entryAddr(lineAddr))
}

// Access performs a demand lookup: on a hit the entry's recency is
// refreshed; on a miss the entry is allocated (modeling the fill that
// follows the memory fetch of the counter line). Returns whether it hit.
func (c *Cache) Access(lineAddr uint64) bool {
	hit, _ := c.inner.Access(entryAddr(lineAddr), false)
	return hit
}

// Update records a counter change (dirty eviction incremented the
// counter): write-update if present, write-allocate otherwise. Counter
// writes are modeled write-through to memory, so no dirty state is kept
// here.
func (c *Cache) Update(lineAddr uint64) {
	c.inner.Access(entryAddr(lineAddr), false)
}

// Stats exposes the underlying cache statistics.
func (c *Cache) Stats() cache.Stats { return c.inner.Stats() }

// SizeBytes returns the configured capacity.
func (c *Cache) SizeBytes() int { return c.inner.Config().SizeBytes }

// InvalidateAll empties the cache — the state a process finds after
// another process used the structure during a context switch.
func (c *Cache) InvalidateAll() { c.inner.InvalidateAll() }
