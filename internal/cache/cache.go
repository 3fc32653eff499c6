// Package cache models the on-chip cache hierarchy of the simulated
// Skylake-SP-style CPU from Tab. II of the QEI paper: per-core 32 KB L1D
// and 1 MB L2, and a 33 MB shared non-uniform (NUCA) last-level cache
// split into 24 slices, each fronted by a Caching and Home Agent (CHA)
// sitting on a mesh NoC stop. A DRAM model with six DDR4 channels backs
// the LLC.
//
// Caches here are tag-accurate: sets, ways, and true-LRU replacement are
// simulated so hit rates are real, while data bytes live in the simulated
// physical memory (package mem). Timing is compositional: an access
// returns the number of cycles it took, and the requester (OoO core model
// or QEI accelerator) decides how much of that latency overlaps other
// work.
package cache

import (
	"fmt"

	"qei/internal/mem"
)

// Level identifies where an access was satisfied.
type Level int

const (
	LevelL1 Level = iota
	LevelL2
	LevelLLC
	LevelDRAM
)

func (l Level) String() string {
	switch l {
	case LevelL1:
		return "L1"
	case LevelL2:
		return "L2"
	case LevelLLC:
		return "LLC"
	case LevelDRAM:
		return "DRAM"
	default:
		return fmt.Sprintf("Level(%d)", int(l))
	}
}

// Config describes one cache array.
type Config struct {
	SizeBytes  uint64
	Ways       int
	LineSize   uint64
	HitLatency uint64
}

// Sets returns the number of sets implied by the geometry.
func (c Config) Sets() int {
	return int(c.SizeBytes / (c.LineSize * uint64(c.Ways)))
}

// Cache is a single set-associative cache array with true-LRU replacement.
//
// Tag, dirty, and LRU state live in flat arrays indexed set*ways+way
// (three allocations per cache instead of three per set), and the set
// index is a shift+mask when the geometry is a power of two — which
// every configuration in this repo is; the division path is kept for
// odd geometries. Lookup/Insert sit under every simulated memory
// access, so this layout is what the hierarchy's throughput rides on.
//
// The arrays are built by the first Insert: a machine has a private
// L1D and L2 per core, and most runs touch only core 0's. Until then
// the cache is empty, so Lookup counts a miss and Contains, MarkDirty
// and Invalidate find nothing.
//
// Reset clears only the sets filled since the last reset (see filled),
// so a machine handed from run to run pays for the lines a run
// touched, not for the 33 MB LLC's capacity.
type Cache struct {
	cfg  Config
	sets uint64
	ways int
	// lineShift/setMask implement setIndex without div/mod when the
	// line size and set count are powers of two (linePow2/setsPow2).
	lineShift uint
	setMask   uint64
	linePow2  bool
	setsPow2  bool

	tags  []uint64 // line addresses; ^0 = invalid; nil until the first Insert
	dirty []bool
	lru   []uint64
	stamp uint64
	// filled lists the sets Insert has filled since the last reset: a
	// set joins when its way 0 is filled while invalid, which is where
	// a set's first fill lands (Insert prefers the lowest invalid way),
	// so every set that differs from its reset state is listed. A set
	// invalidated and refilled may be listed twice. The list is
	// allocated at its full capacity, sets/fillShare, by build; once it
	// is full, appends stop and Reset clears every set.
	filled []int32

	hits, misses, evictions, writebacks uint64
}

// New returns an empty cache of the given geometry; its arrays are
// built on the first Insert.
func New(cfg Config) *Cache {
	sets := cfg.Sets()
	if sets <= 0 || cfg.SizeBytes%(cfg.LineSize*uint64(cfg.Ways)) != 0 {
		panic(fmt.Sprintf("cache: bad geometry %+v", cfg))
	}
	c := &Cache{cfg: cfg, sets: uint64(sets), ways: cfg.Ways}
	if cfg.LineSize&(cfg.LineSize-1) == 0 {
		c.linePow2 = true
		for l := cfg.LineSize; l > 1; l >>= 1 {
			c.lineShift++
		}
	}
	if c.sets&(c.sets-1) == 0 {
		c.setsPow2 = true
		c.setMask = c.sets - 1
	}
	return c
}

// fillShare is the inverse of the share of its sets a cache lists as
// filled: past sets/fillShare filled sets, clearing set by set costs
// about what clearing the whole array in one sweep does.
const fillShare = 4

// build allocates the tag, dirty and LRU arrays, every way invalid, and
// the list of filled sets.
func (c *Cache) build() {
	n := int(c.sets) * c.ways
	c.tags = make([]uint64, n)
	c.dirty = make([]bool, n)
	c.lru = make([]uint64, n)
	for i := range c.tags {
		c.tags[i] = ^uint64(0)
	}
	c.filled = make([]int32, 0, c.sets/fillShare)
}

// Reset empties the cache in place: every way invalid, dirty bits, LRU
// stamps and counters zeroed. Arrays already built are kept; it clears
// the sets filled since the last reset, or every set once their list is
// full. An unbuilt cache stays unbuilt.
func (c *Cache) Reset() {
	if c.tags != nil {
		if len(c.filled) == cap(c.filled) {
			for i := range c.tags {
				c.tags[i] = ^uint64(0)
			}
			clear(c.dirty)
			clear(c.lru)
		} else {
			for _, set := range c.filled {
				base := int(set) * c.ways
				for i := base; i < base+c.ways; i++ {
					c.tags[i] = ^uint64(0)
				}
				clear(c.dirty[base : base+c.ways])
				clear(c.lru[base : base+c.ways])
			}
		}
		c.filled = c.filled[:0]
	}
	c.stamp, c.hits, c.misses, c.evictions, c.writebacks = 0, 0, 0, 0, 0
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

func (c *Cache) setIndex(line uint64) uint64 {
	if c.linePow2 {
		line >>= c.lineShift
	} else {
		line /= c.cfg.LineSize
	}
	if c.setsPow2 {
		return line & c.setMask
	}
	return line % c.sets
}

// Lookup probes for the line containing a, updating LRU and stats.
func (c *Cache) Lookup(a mem.PAddr) bool {
	if c.tags == nil {
		c.misses++
		return false
	}
	line := uint64(a.Line())
	base := int(c.setIndex(line)) * c.ways
	for i, tag := range c.tags[base : base+c.ways] {
		if tag == line {
			c.stamp++
			c.lru[base+i] = c.stamp
			c.hits++
			return true
		}
	}
	c.misses++
	return false
}

// Contains probes without touching LRU or stats (invariant checks and
// the probe before a run of StampHit calls).
func (c *Cache) Contains(a mem.PAddr) bool {
	if c.tags == nil {
		return false
	}
	line := uint64(a.Line())
	base := int(c.setIndex(line)) * c.ways
	for _, tag := range c.tags[base : base+c.ways] {
		if tag == line {
			return true
		}
	}
	return false
}

// StampHit sets the LRU stamp of the resident line containing a to
// the one Lookup would leave it if the i-th (from 0) of a run of hits
// starting now were the line's last. A run of read hits whose lines
// Contains found is applied this way, each line stamped at its last
// access in the run, and ended with AddHits. It changes nothing if the
// line is not resident.
func (c *Cache) StampHit(a mem.PAddr, i uint64) {
	if c.tags == nil {
		return
	}
	line := uint64(a.Line())
	base := int(c.setIndex(line)) * c.ways
	for w, tag := range c.tags[base : base+c.ways] {
		if tag == line {
			c.lru[base+w] = c.stamp + 1 + i
			return
		}
	}
}

// AddHits ends a run of n read hits whose lines StampHit stamped: the
// LRU counter and the hit count advance as n Lookup hits advance them.
func (c *Cache) AddHits(n uint64) {
	c.stamp += n
	c.hits += n
}

// Insert fills the line containing a, evicting the LRU way if the set is
// full. It returns the evicted line address and whether an eviction of a
// dirty line (writeback) occurred. evicted is ^0 when nothing was evicted.
func (c *Cache) Insert(a mem.PAddr, dirtyFill bool) (evicted uint64, writeback bool) {
	if c.tags == nil {
		c.build()
	}
	line := uint64(a.Line())
	index := c.setIndex(line)
	base := int(index) * c.ways
	set := c.tags[base : base+c.ways]
	for i, tag := range set {
		if tag == line {
			c.stamp++
			c.lru[base+i] = c.stamp
			if dirtyFill {
				c.dirty[base+i] = true
			}
			return ^uint64(0), false
		}
	}
	// Prefer an invalid way; otherwise evict true-LRU.
	victim := -1
	oldest := ^uint64(0)
	for i, tag := range set {
		if tag == ^uint64(0) {
			victim = i
			break
		}
		if c.lru[base+i] < oldest {
			oldest = c.lru[base+i]
			victim = i
		}
	}
	evicted = set[victim]
	writeback = evicted != ^uint64(0) && c.dirty[base+victim]
	if evicted != ^uint64(0) {
		c.evictions++
		if writeback {
			c.writebacks++
		}
	} else if victim == 0 && len(c.filled) < cap(c.filled) {
		c.filled = append(c.filled, int32(index))
	}
	c.stamp++
	set[victim] = line
	c.dirty[base+victim] = dirtyFill
	c.lru[base+victim] = c.stamp
	return evicted, writeback
}

// MarkDirty sets the dirty bit of the line containing a if present.
func (c *Cache) MarkDirty(a mem.PAddr) {
	if c.tags == nil {
		return
	}
	line := uint64(a.Line())
	base := int(c.setIndex(line)) * c.ways
	for i, tag := range c.tags[base : base+c.ways] {
		if tag == line {
			c.dirty[base+i] = true
			return
		}
	}
}

// Invalidate drops the line containing a if present, reporting whether it
// was dirty.
func (c *Cache) Invalidate(a mem.PAddr) (present, wasDirty bool) {
	if c.tags == nil {
		return false, false
	}
	line := uint64(a.Line())
	base := int(c.setIndex(line)) * c.ways
	for i, tag := range c.tags[base : base+c.ways] {
		if tag == line {
			wasDirty = c.dirty[base+i]
			c.tags[base+i] = ^uint64(0)
			c.dirty[base+i] = false
			c.lru[base+i] = 0
			return true, wasDirty
		}
	}
	return false, false
}

// Stats reports accumulated counters.
func (c *Cache) Stats() (hits, misses, evictions, writebacks uint64) {
	return c.hits, c.misses, c.evictions, c.writebacks
}
