// Package cache implements a set-associative cache tag store with
// pluggable replacement and per-allocation way masks.
//
// Way masks are the mechanism behind two policies the paper depends on:
// DDIO write-allocates are confined to a small number of LLC ways
// (2 of 11 on Skylake-SP), and Fig. 4's "_1way" configurations confine
// an application to a single LLC way via way partitioning. A mask
// restricts only *victim selection* on fills; hits are serviced from
// any way, matching real CAT/DDIO semantics.
package cache

import (
	"fmt"
	"math/bits"
)

// WayMask selects the ways an allocation may victimise. Bit i set means
// way i is allowed.
type WayMask uint64

// AllWays allows allocation into every way.
const AllWays WayMask = ^WayMask(0)

// FirstN returns a mask of the first n ways (the convention used for
// DDIO ways throughout this repo).
func FirstN(n int) WayMask {
	if n <= 0 {
		return 0
	}
	if n >= 64 {
		return AllWays
	}
	return WayMask(1<<uint(n)) - 1
}

// ExceptFirstN returns a mask of every way except the first n.
func ExceptFirstN(n int) WayMask { return ^FirstN(n) }

// Count returns the number of ways enabled in the mask (capped at 64).
func (m WayMask) Count() int { return bits.OnesCount64(uint64(m)) }

// Policy selects the replacement algorithm.
type Policy int

const (
	// LRU is true least-recently-used via a monotonic use clock.
	LRU Policy = iota
	// TreePLRU is the tree pseudo-LRU used by real MLC/LLC designs.
	// It requires power-of-two associativity.
	TreePLRU
	// SRRIP is static re-reference interval prediction (2-bit RRPV),
	// the family modern Intel LLCs approximate. Streaming DMA data
	// inserts with a long predicted re-reference interval, so it ages
	// out ahead of hot application lines — a behaviour LRU cannot
	// express.
	SRRIP
)

func (p Policy) String() string {
	switch p {
	case LRU:
		return "lru"
	case TreePLRU:
		return "tree-plru"
	case SRRIP:
		return "srrip"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// SRRIP constants: 2-bit re-reference prediction values.
const (
	rrpvBits    = 2
	rrpvMax     = 1<<rrpvBits - 1 // 3: predicted distant re-reference
	rrpvInsert  = rrpvMax - 1     // 2: long interval on insertion
	rrpvPromote = 0               // hit promotes to near-immediate
)

// Line is a tag-store entry. Addr is the full line address (the tag and
// index are not split out; the set index is derived on lookup).
type Line struct {
	Addr  uint64 // line address (byte address >> 6)
	Valid bool
	Dirty bool
	// IO marks lines written by a PCIe transaction that have not yet
	// been re-classified by a CPU-side fill. The DMA-bloating analysis
	// (Sec. III, Observation 3) depends on tracking when I/O data loses
	// this classification. Change it only through Insert or MarkIO: the
	// cache counts IO lines incrementally, and a write through a Lookup
	// pointer would bypass the count.
	IO      bool
	lastUse uint64
}

// invalidTag marks an empty way in Cache.tags. Simulated line
// addresses are byte addresses >> 6 and never reach 2^64-1.
const invalidTag = ^uint64(0)

// Victim describes a line displaced by an Insert.
type Victim struct {
	Addr  uint64
	Dirty bool
	IO    bool
}

// Stats are the cache's aggregate event counts.
type Stats struct {
	Hits       uint64
	Misses     uint64
	Inserts    uint64
	Evictions  uint64 // valid victims displaced by fills
	DirtyEvict uint64 // subset of Evictions with the dirty bit set
	Invals     uint64 // explicit invalidations that hit
}

// Config describes cache geometry.
type Config struct {
	Name      string
	SizeBytes int
	Assoc     int
	Policy    Policy
}

// Cache is a single-level tag store. It tracks no data payloads: the
// simulator reasons purely about residency and state transitions.
type Cache struct {
	cfg      Config
	sets     int
	setShift uint
	lines    []Line // sets*assoc, row-major
	// tags mirrors lines' (Valid, Addr) pairs as one word per way —
	// invalidTag when the way is empty, the line address otherwise. A
	// 16-way set's tags span two cache lines instead of the eight that
	// the Line structs occupy, which matters because find is the
	// hottest loop in the whole simulator (every DMA line write, CPU
	// access and prefetch probes a set).
	tags     []uint64
	plru     []uint64 // one tree per set (TreePLRU only)
	useClock uint64
	occ      int // valid-line count, maintained incrementally
	occIO    int // valid lines with the IO bit set, maintained incrementally
	stats    Stats
}

// New builds a cache from the configuration. SizeBytes must be a
// multiple of Assoc*64 and the resulting set count a power of two.
func New(cfg Config) *Cache {
	if cfg.Assoc <= 0 || cfg.Assoc > 64 {
		panic(fmt.Sprintf("cache %s: bad associativity %d", cfg.Name, cfg.Assoc))
	}
	lineCount := cfg.SizeBytes / 64
	if lineCount <= 0 || lineCount%cfg.Assoc != 0 {
		panic(fmt.Sprintf("cache %s: size %d not divisible into %d ways", cfg.Name, cfg.SizeBytes, cfg.Assoc))
	}
	sets := lineCount / cfg.Assoc
	if sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache %s: set count %d not a power of two", cfg.Name, sets))
	}
	if cfg.Policy == TreePLRU && cfg.Assoc&(cfg.Assoc-1) != 0 {
		panic(fmt.Sprintf("cache %s: tree-PLRU needs power-of-two associativity, got %d", cfg.Name, cfg.Assoc))
	}
	c := &Cache{
		cfg:      cfg,
		sets:     sets,
		setShift: uint(bits.TrailingZeros(uint(sets))),
		lines:    make([]Line, sets*cfg.Assoc),
		tags:     make([]uint64, sets*cfg.Assoc),
	}
	for i := range c.tags {
		c.tags[i] = invalidTag
	}
	if cfg.Policy == TreePLRU {
		c.plru = make([]uint64, sets)
	}
	return c
}

// Name returns the configured name.
func (c *Cache) Name() string { return c.cfg.Name }

// NumSets returns the set count.
func (c *Cache) NumSets() int { return c.sets }

// Assoc returns the associativity.
func (c *Cache) Assoc() int { return c.cfg.Assoc }

// SizeBytes returns the capacity in bytes.
func (c *Cache) SizeBytes() int { return c.cfg.SizeBytes }

// Stats returns a copy of the aggregate counters.
func (c *Cache) Stats() Stats { return c.stats }

func (c *Cache) setIndex(lineAddr uint64) int {
	return int(lineAddr & uint64(c.sets-1))
}

func (c *Cache) set(lineAddr uint64) []Line {
	si := c.setIndex(lineAddr)
	return c.lines[si*c.cfg.Assoc : (si+1)*c.cfg.Assoc]
}

func (c *Cache) find(lineAddr uint64) (int, *Line) {
	base := c.setIndex(lineAddr) * c.cfg.Assoc
	tags := c.tags[base : base+c.cfg.Assoc]
	for w := range tags {
		if tags[w] == lineAddr {
			return w, &c.lines[base+w]
		}
	}
	return -1, nil
}

// Lookup probes for lineAddr. When touch is true a hit updates
// replacement state (a snoop or occupancy probe passes false). It
// returns the entry (valid until the next mutation) or nil on miss.
// Lookup counts hits/misses only when touch is true so that occupancy
// scans do not pollute the statistics.
func (c *Cache) Lookup(lineAddr uint64, touch bool) *Line {
	way, ln := c.find(lineAddr)
	if ln == nil {
		if touch {
			c.stats.Misses++
		}
		return nil
	}
	if touch {
		c.stats.Hits++
		c.touch(lineAddr, way)
	}
	return ln
}

// Contains reports residency without touching replacement state or
// statistics.
func (c *Cache) Contains(lineAddr uint64) bool {
	_, ln := c.find(lineAddr)
	return ln != nil
}

// touch updates replacement state on a hit. The lastUse field holds a
// use clock under LRU and the RRPV under SRRIP.
func (c *Cache) touch(lineAddr uint64, way int) {
	switch c.cfg.Policy {
	case LRU:
		c.useClock++
		c.set(lineAddr)[way].lastUse = c.useClock
	case TreePLRU:
		c.plruTouch(c.setIndex(lineAddr), way)
	case SRRIP:
		c.set(lineAddr)[way].lastUse = rrpvPromote
	}
}

// place initialises replacement state for a fresh fill.
func (c *Cache) place(lineAddr uint64, way int) {
	if c.cfg.Policy == SRRIP {
		c.set(lineAddr)[way].lastUse = rrpvInsert
		return
	}
	c.touch(lineAddr, way)
}

// Insert fills lineAddr with the given state. If the line is already
// present it is updated in place (dirty/IO bits OR in, IO bit is
// *replaced*: a CPU-side insert clears I/O classification). The fill
// victimises only ways allowed by mask. It returns the displaced victim
// if one was valid.
func (c *Cache) Insert(lineAddr uint64, dirty, io bool, mask WayMask) (Victim, bool) {
	c.stats.Inserts++
	if way, ln := c.find(lineAddr); ln != nil {
		ln.Dirty = ln.Dirty || dirty
		c.setIO(ln, io)
		c.touch(lineAddr, way)
		return Victim{}, false
	}
	way := c.victimWay(lineAddr, mask)
	set := c.set(lineAddr)
	var v Victim
	evicted := false
	if set[way].Valid {
		v = Victim{Addr: set[way].Addr, Dirty: set[way].Dirty, IO: set[way].IO}
		evicted = true
		c.stats.Evictions++
		if v.Dirty {
			c.stats.DirtyEvict++
		}
		if v.IO {
			c.occIO--
		}
	}
	if !evicted {
		c.occ++
	}
	if io {
		c.occIO++
	}
	set[way] = Line{Addr: lineAddr, Valid: true, Dirty: dirty, IO: io}
	c.tags[c.setIndex(lineAddr)*c.cfg.Assoc+way] = lineAddr
	c.place(lineAddr, way)
	return v, evicted
}

// victimWay picks the fill way: an invalid allowed way if any exists,
// otherwise the replacement policy's choice among allowed ways.
//
// Invalid ways are scanned from the HIGHEST index down. DDIO ways sit
// at the low indices by convention, so unmasked (CPU-side) fills
// prefer invalid slots outside the DDIO region and only squat in a
// DDIO way when nothing else is free. Without this bias, slots freed
// by IDIO's prefetcher attract application victims that the very next
// DMA write-allocate clobbers — wrecking the LLC isolation the
// mechanism is supposed to provide.
func (c *Cache) victimWay(lineAddr uint64, mask WayMask) int {
	if mask == 0 {
		panic(fmt.Sprintf("cache %s: empty way mask", c.cfg.Name))
	}
	set := c.set(lineAddr)
	base := c.setIndex(lineAddr) * c.cfg.Assoc
	for w := len(set) - 1; w >= 0; w-- {
		if mask&(1<<uint(w)) != 0 && c.tags[base+w] == invalidTag {
			return w
		}
	}
	switch c.cfg.Policy {
	case TreePLRU:
		return c.plruVictim(c.setIndex(lineAddr), mask)
	case SRRIP:
		// Find a distant-re-reference line among allowed ways; if none,
		// age every allowed way and retry (guaranteed to terminate in
		// at most rrpvMax rounds).
		for {
			for w := range set {
				if mask&(1<<uint(w)) != 0 && set[w].lastUse >= rrpvMax {
					return w
				}
			}
			for w := range set {
				if mask&(1<<uint(w)) != 0 {
					set[w].lastUse++
				}
			}
		}
	default:
		best, bestUse := -1, ^uint64(0)
		for w := range set {
			if mask&(1<<uint(w)) == 0 {
				continue
			}
			if set[w].lastUse < bestUse {
				best, bestUse = w, set[w].lastUse
			}
		}
		if best < 0 {
			panic(fmt.Sprintf("cache %s: mask %x selects no way of %d", c.cfg.Name, mask, c.cfg.Assoc))
		}
		return best
	}
}

// Invalidate drops lineAddr if present, returning whether it was
// present and whether it was dirty. No writeback is generated here;
// the caller decides what to do with a dirty victim (this is exactly
// the distinction IDIO's invalidate-without-writeback exploits).
func (c *Cache) Invalidate(lineAddr uint64) (present, dirty bool) {
	way, ln := c.find(lineAddr)
	if ln == nil {
		return false, false
	}
	c.stats.Invals++
	dirty = ln.Dirty
	if ln.IO {
		c.occIO--
	}
	*ln = Line{}
	c.tags[c.setIndex(lineAddr)*c.cfg.Assoc+way] = invalidTag
	c.occ--
	return true, dirty
}

// SetDirty marks a resident line dirty; it reports whether the line was
// present.
func (c *Cache) SetDirty(lineAddr uint64) bool {
	_, ln := c.find(lineAddr)
	if ln == nil {
		return false
	}
	ln.Dirty = true
	return true
}

// MarkIO classifies a resident line as I/O data (a DMA write updating
// it in place); it reports whether the line was present.
func (c *Cache) MarkIO(lineAddr uint64) bool {
	_, ln := c.find(lineAddr)
	if ln == nil {
		return false
	}
	c.setIO(ln, true)
	return true
}

// setIO sets a valid line's IO bit, keeping occIO in step.
func (c *Cache) setIO(ln *Line, io bool) {
	if ln.IO == io {
		return
	}
	ln.IO = io
	if io {
		c.occIO++
	} else {
		c.occIO--
	}
}

// Occupancy returns the number of valid lines in O(1).
func (c *Cache) Occupancy() int { return c.occ }

// LoadFraction returns occupancy as a fraction of capacity.
func (c *Cache) LoadFraction() float64 {
	return float64(c.occ) / float64(len(c.lines))
}

// OccupancyIO returns the number of valid lines still classified as
// I/O data in O(1).
func (c *Cache) OccupancyIO() int { return c.occIO }

// ForEach visits every valid line. Mutating the cache during iteration
// is not allowed.
func (c *Cache) ForEach(fn func(Line)) {
	for i := range c.lines {
		if c.lines[i].Valid {
			fn(c.lines[i])
		}
	}
}

// Flush invalidates the entire cache, returning the dirty lines that
// would have been written back.
func (c *Cache) Flush() []Victim {
	var out []Victim
	for i := range c.lines {
		if c.lines[i].Valid {
			if c.lines[i].Dirty {
				out = append(out, Victim{Addr: c.lines[i].Addr, Dirty: true, IO: c.lines[i].IO})
			}
			c.lines[i] = Line{}
		}
		c.tags[i] = invalidTag
	}
	c.occ = 0
	c.occIO = 0
	return out
}

// --- tree pseudo-LRU ---
//
// The PLRU tree for an a-way set is a complete binary tree with a-1
// internal nodes stored as bits of a uint64; bit k is node k in
// heap order. A 0 bit points left, 1 points right; on a touch every
// node on the path is set to point *away* from the touched way.

func (c *Cache) plruTouch(setIdx, way int) {
	a := c.cfg.Assoc
	node := 0
	lo, hi := 0, a
	tree := c.plru[setIdx]
	// Bit semantics: node bit set means the next victim lies in the
	// right subtree. Touching a way flips each node on its path to
	// point at the opposite subtree.
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if way < mid {
			tree |= 1 << uint(node)
			node = 2*node + 1
			hi = mid
		} else {
			tree &^= 1 << uint(node)
			node = 2*node + 2
			lo = mid
		}
	}
	c.plru[setIdx] = tree
}

// plruVictim walks the tree toward the pseudo-LRU way; if that way is
// excluded by the mask, it falls back to the lowest allowed way whose
// subtree the walk would have abandoned (a standard hardware
// simplification for partitioned PLRU).
func (c *Cache) plruVictim(setIdx int, mask WayMask) int {
	a := c.cfg.Assoc
	tree := c.plru[setIdx]
	node := 0
	lo, hi := 0, a
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		goRight := tree&(1<<uint(node)) != 0
		// Respect the mask: if the chosen half has no allowed way,
		// take the other half.
		if goRight {
			if !maskHasWayIn(mask, mid, hi) {
				goRight = false
			}
		} else {
			if !maskHasWayIn(mask, lo, mid) {
				goRight = true
			}
		}
		if goRight {
			node = 2*node + 2
			lo = mid
		} else {
			node = 2*node + 1
			hi = mid
		}
	}
	if mask&(1<<uint(lo)) == 0 {
		panic(fmt.Sprintf("cache %s: PLRU walk reached disallowed way %d (mask %x)", c.cfg.Name, lo, mask))
	}
	return lo
}

func maskHasWayIn(mask WayMask, lo, hi int) bool {
	for w := lo; w < hi; w++ {
		if mask&(1<<uint(w)) != 0 {
			return true
		}
	}
	return false
}
