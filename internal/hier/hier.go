// Package hier implements the non-inclusive Skylake-SP-style cache
// hierarchy that IDIO targets: a private L1D and MLC (L2) per core, a
// shared non-inclusive LLC acting as a victim cache with dedicated DDIO
// ways, a snoop-filter directory tracking MLC-resident lines, and a
// bandwidth-limited DRAM behind it.
//
// The package exposes exactly the transactions the paper reasons about:
//
//   - CoreRead / CoreWrite     — demand accesses from a core
//   - PCIeWrite                — inbound DMA (DDIO ingress, Fig. 1)
//   - PCIeRead                 — outbound DMA (TX egress, Fig. 1)
//   - DirectDRAMWrite          — IDIO's selective direct DRAM access
//   - PrefetchToMLC            — IDIO's network-driven MLC prefetch
//   - InvalidateNoWB           — IDIO's self-invalidating I/O buffers
//
// Modeling decisions (see DESIGN.md): lines move (rather than copy)
// from LLC to MLC on core demand, DRAM fills bypass the LLC, and MLC
// victims allocate into any LLC way — which is precisely what lets DMA
// data bloat beyond the DDIO ways (Sec. III, Observation 3).
package hier

import (
	"fmt"

	"idio/internal/cache"
	"idio/internal/dram"
	"idio/internal/mem"
	"idio/internal/obs"
	"idio/internal/sim"
	"idio/internal/stats"
)

// Config describes the hierarchy geometry and latencies. Cycle counts
// follow Table I of the paper.
type Config struct {
	Clock    sim.Clock
	NumCores int

	L1Size  int // bytes, per core
	L1Assoc int
	L1Lat   int64 // cycles

	MLCSize  int // bytes, per core
	MLCAssoc int
	MLCLat   int64 // cycles
	// MLCSizePerCore overrides MLCSize for individual cores when
	// non-nil (index = core). Sec. VI shrinks the LLCAntagonist core's
	// MLC to 256 KB to make it LLC-sensitive. Zero entries fall back
	// to MLCSize.
	MLCSizePerCore []int

	LLCSize  int // bytes, shared
	LLCAssoc int
	LLCLat   int64 // cycles
	// DDIOWays is how many LLC ways PCIe write-allocates may fill
	// (2 of 11 on Skylake-SP).
	DDIOWays int
	// AppWayMask restricts CPU-side LLC allocations (MLC victims and
	// egress writebacks). AllWays models the unpartitioned default;
	// Fig. 4's "_1way" runs confine the app to a single non-DDIO way.
	AppWayMask cache.WayMask

	// DirEntriesPerCore sizes the snoop-filter directory. Skylake-SP
	// over-provisions the directory relative to aggregate MLC capacity;
	// we default to 1.5x the per-core MLC line count.
	DirEntriesPerCore int
	DirAssoc          int

	DRAM dram.Config

	// TimelineBucket enables per-interval rate sampling when > 0.
	TimelineBucket sim.Duration

	// Policy selects replacement for MLC and LLC.
	Policy cache.Policy

	// RetainLLCOnHit selects NINE (non-inclusive non-exclusive)
	// semantics: an LLC hit for a core demand copies the line to the
	// MLC but leaves a clean copy in the LLC, enabling Fig. 1's "P2"
	// state (valid in both MLC and LLC). The default (false) is the
	// victim-cache move-on-hit the paper's data-movement discussion
	// assumes ("its tag will be moved to the directory"). Real
	// Skylake-SP behaves adaptively between the two.
	RetainLLCOnHit bool
}

// DefaultConfig mirrors the gem5 configuration in Table I for the given
// number of cores: per-core 32 KB L1D (2-way, 2 CC), 1 MB MLC (8-way,
// 12 CC), and a shared LLC of 1.5 MB x 12 ways per core (24 CC) with
// 2 DDIO ways.
func DefaultConfig(cores int) Config {
	return Config{
		Clock:             sim.NewClock(3_000_000_000),
		NumCores:          cores,
		L1Size:            32 << 10,
		L1Assoc:           2,
		L1Lat:             2,
		MLCSize:           1 << 20,
		MLCAssoc:          8,
		MLCLat:            12,
		LLCSize:           llcSizeFor(cores, 12), // ~1.5MB per core
		LLCAssoc:          12,
		LLCLat:            24,
		DDIOWays:          2,
		AppWayMask:        cache.AllWays,
		DirEntriesPerCore: (1 << 20) / 64 * 3 / 2, // 1.5x MLC lines
		DirAssoc:          16,
		DRAM:              dram.DefaultConfig(),
		TimelineBucket:    10 * sim.Microsecond,
		Policy:            cache.LRU,
	}
}

// llcSizeFor sizes a shared LLC at ~1.5 MB per core, rounded down so
// the set count is a power of two for the given associativity (core
// counts that are not powers of two would otherwise produce invalid
// geometry).
func llcSizeFor(cores, assoc int) int {
	want := cores * 3 * (1 << 19) // 1.5MB per core
	sets := want / 64 / assoc
	p := 1
	for p*2 <= sets {
		p *= 2
	}
	return p * 64 * assoc
}

// Stats aggregates hierarchy-wide transition counts. All are exact
// transaction counts (one per 64-byte line).
type Stats struct {
	// MLCWriteback counts every MLC victim allocated into the LLC —
	// the MLC-to-LLC traffic the paper's "MLC writeback" rates measure.
	// In a non-inclusive victim hierarchy clean victims transfer too,
	// and they pressure the LLC identically.
	MLCWriteback uint64
	MLCWBDirty   uint64 // subset of MLCWriteback carrying dirty data
	MLCInval     uint64 // MLC line invalidated by a PCIe write
	LLCWriteback uint64 // dirty LLC victim written to DRAM
	LLCWBIO      uint64 // subset of LLCWriteback still classified I/O ("DMA leak")
	DirBackInval uint64 // MLC lines back-invalidated by directory conflicts
	SelfInval    uint64 // lines dropped by InvalidateNoWB
	DDIOUpdate   uint64 // PCIe writes hitting the LLC in place
	DDIOAlloc    uint64 // PCIe writes allocating a DDIO way
	DDIOToDRAM   uint64 // PCIe writes sent straight to DRAM
	PrefetchFill uint64 // prefetches that moved a line into an MLC
	PrefetchDrop uint64 // prefetches dropped (already resident or inflight)
	DemandL1Hit  uint64
	DemandMLCHit uint64
	DemandLLCHit uint64
	DemandDRAM   uint64
}

// CoreDemand is one core's demand-access breakdown by service level.
type CoreDemand struct {
	L1Hit  uint64
	MLCHit uint64
	LLCHit uint64
	DRAM   uint64
}

// Total returns the core's demand access count.
func (d CoreDemand) Total() uint64 { return d.L1Hit + d.MLCHit + d.LLCHit + d.DRAM }

// HitRateOnChip returns the fraction of accesses served without DRAM.
func (d CoreDemand) HitRateOnChip() float64 {
	t := d.Total()
	if t == 0 {
		return 0
	}
	return float64(t-d.DRAM) / float64(t)
}

// Hierarchy is the complete cache system shared by all cores and the
// NIC's DMA engine.
type Hierarchy struct {
	cfg  Config
	l1   []*cache.Cache
	mlc  []*cache.Cache
	llc  *cache.Cache
	dir  *directory
	dram *dram.DRAM

	ddioMask cache.WayMask
	appMask  cache.WayMask
	// classMask holds per-QoS-class DDIO way quotas (index =
	// qos.Class); a zero mask falls back to the host-wide ddioMask,
	// so an unarmed hierarchy behaves exactly as before.
	classMask [4]cache.WayMask

	l1Lat, mlcLat, llcLat sim.Duration

	stats       Stats
	demand      []CoreDemand // per-core demand breakdowns
	mlcWBByCore []uint64     // per-core dirty MLC writeback counters (IDIO control plane samples these)

	// Timelines for the paper's rate figures; nil when disabled.
	MLCWBTL  *stats.Timeline
	LLCWBTL  *stats.Timeline
	MLCInvTL *stats.Timeline
	DMAReqTL *stats.Timeline

	invalidatable map[mem.LineAddr]struct{} // pages registered as Invalidatable (Sec. V-D)
	invalCheck    bool

	// obs receives line-level trace events (writeback, DMA
	// invalidation, prefetch outcome) for lines belonging to sampled
	// packets. A nil observer costs one branch per event site.
	obs *obs.Observer
}

// New constructs the hierarchy.
func New(cfg Config) *Hierarchy {
	if cfg.NumCores <= 0 {
		panic("hier: need at least one core")
	}
	if cfg.DDIOWays <= 0 || cfg.DDIOWays > cfg.LLCAssoc {
		panic(fmt.Sprintf("hier: DDIO ways %d out of range for %d-way LLC", cfg.DDIOWays, cfg.LLCAssoc))
	}
	if cfg.AppWayMask == 0 {
		cfg.AppWayMask = cache.AllWays
	}
	h := &Hierarchy{
		cfg:         cfg,
		llc:         cache.New(cache.Config{Name: "llc", SizeBytes: cfg.LLCSize, Assoc: cfg.LLCAssoc, Policy: cfg.Policy}),
		dram:        dram.New(cfg.DRAM, cfg.TimelineBucket),
		ddioMask:    cache.FirstN(cfg.DDIOWays),
		appMask:     cfg.AppWayMask,
		mlcWBByCore: make([]uint64, cfg.NumCores),
		demand:      make([]CoreDemand, cfg.NumCores),
	}
	for i := 0; i < cfg.NumCores; i++ {
		h.l1 = append(h.l1, cache.New(cache.Config{
			Name: fmt.Sprintf("l1d%d", i), SizeBytes: cfg.L1Size, Assoc: cfg.L1Assoc, Policy: cfg.Policy,
		}))
		mlcSize := cfg.MLCSize
		if i < len(cfg.MLCSizePerCore) && cfg.MLCSizePerCore[i] > 0 {
			mlcSize = cfg.MLCSizePerCore[i]
		}
		h.mlc = append(h.mlc, cache.New(cache.Config{
			Name: fmt.Sprintf("mlc%d", i), SizeBytes: mlcSize, Assoc: cfg.MLCAssoc, Policy: cfg.Policy,
		}))
	}
	h.dir = newDirectory(cfg.NumCores*cfg.DirEntriesPerCore, cfg.DirAssoc)
	h.l1Lat = cfg.Clock.Cycles(cfg.L1Lat)
	h.mlcLat = cfg.Clock.Cycles(cfg.MLCLat)
	h.llcLat = cfg.Clock.Cycles(cfg.LLCLat)
	if cfg.TimelineBucket > 0 {
		h.MLCWBTL = stats.NewTimeline(cfg.TimelineBucket)
		h.LLCWBTL = stats.NewTimeline(cfg.TimelineBucket)
		h.MLCInvTL = stats.NewTimeline(cfg.TimelineBucket)
		h.DMAReqTL = stats.NewTimeline(cfg.TimelineBucket)
	}
	return h
}

// Config returns the construction-time configuration.
func (h *Hierarchy) Config() Config { return h.cfg }

// Stats returns a copy of the aggregate counters.
func (h *Hierarchy) Stats() Stats { return h.stats }

// DRAM exposes the memory device (read-only use intended).
func (h *Hierarchy) DRAM() *dram.DRAM { return h.dram }

// MLCWritebacks returns the per-core dirty-MLC-writeback count. The
// IDIO controller samples this every 1 µs (Alg. 1, control plane).
func (h *Hierarchy) MLCWritebacks(core int) uint64 { return h.mlcWBByCore[core] }

// Demand returns a core's demand-access breakdown by service level.
func (h *Hierarchy) Demand(core int) CoreDemand { return h.demand[core] }

// MLCOccupancy returns valid-line counts for a core's MLC.
func (h *Hierarchy) MLCOccupancy(core int) int { return h.mlc[core].Occupancy() }

// MLCLoadFraction returns the core's MLC occupancy as a fraction of
// capacity (O(1); used by the adaptive prefetcher).
func (h *Hierarchy) MLCLoadFraction(core int) float64 { return h.mlc[core].LoadFraction() }

// SetDDIOWays reconfigures how many LLC ways PCIe write-allocates may
// fill, as dynamic DDIO policies (IAT-style) do at runtime. Lines
// already resident outside the new mask stay where they are, exactly
// like CAT repartitioning on real hardware.
func (h *Hierarchy) SetDDIOWays(n int) {
	if n <= 0 || n > h.cfg.LLCAssoc {
		panic(fmt.Sprintf("hier: DDIO ways %d out of range for %d-way LLC", n, h.cfg.LLCAssoc))
	}
	h.ddioMask = cache.FirstN(n)
}

// DDIOWays returns the current DDIO way count.
func (h *Hierarchy) DDIOWays() int { return h.ddioMask.Count() }

// SetClassDDIOWays gives one QoS class a private DDIO way quota:
// inbound DMA carrying that class write-allocates only into the first
// n LLC ways. n = 0 clears the quota (the class reverts to the
// host-wide DDIO mask).
func (h *Hierarchy) SetClassDDIOWays(class, n int) {
	if class < 0 || class >= len(h.classMask) {
		panic(fmt.Sprintf("hier: qos class %d out of range", class))
	}
	if n == 0 {
		h.classMask[class] = 0
		return
	}
	if n < 0 || n > h.cfg.LLCAssoc {
		panic(fmt.Sprintf("hier: class DDIO ways %d out of range for %d-way LLC", n, h.cfg.LLCAssoc))
	}
	h.classMask[class] = cache.FirstN(n)
}

// LLCWBIOCount returns the cumulative DMA-leak count (I/O-classified
// LLC writebacks) — the signal dynamic DDIO policies monitor.
func (h *Hierarchy) LLCWBIOCount() uint64 { return h.stats.LLCWBIO }

// Residency reports where a line currently lives: "mlcN" (core N's
// private cache, which subsumes its L1), "llc", or "" when uncached.
// It is a state probe for tests and tracing; it touches no replacement
// state or statistics.
func (h *Hierarchy) Residency(line mem.LineAddr) string {
	la := uint64(line)
	for i := range h.mlc {
		if h.mlc[i].Contains(la) {
			return fmt.Sprintf("mlc%d", i)
		}
	}
	if h.llc.Contains(la) {
		return "llc"
	}
	return ""
}

// LLCOccupancyIO returns the number of LLC lines still classified I/O.
func (h *Hierarchy) LLCOccupancyIO() int { return h.llc.OccupancyIO() }

// LLCOccupancy returns the total number of valid LLC lines.
func (h *Hierarchy) LLCOccupancy() int { return h.llc.Occupancy() }

// --- CPU demand path ---

// CoreRead performs a demand load of one cacheline by the given core
// and returns its latency.
func (h *Hierarchy) CoreRead(now sim.Time, core int, line mem.LineAddr) sim.Duration {
	return h.coreAccess(now, core, line, false)
}

// CoreWrite performs a demand store (write-allocate, writeback) of one
// cacheline and returns its latency.
func (h *Hierarchy) CoreWrite(now sim.Time, core int, line mem.LineAddr) sim.Duration {
	return h.coreAccess(now, core, line, true)
}

func (h *Hierarchy) coreAccess(now sim.Time, core int, line mem.LineAddr, store bool) sim.Duration {
	la := uint64(line)
	// L1 hit.
	if ln := h.l1[core].Lookup(la, true); ln != nil {
		if store {
			ln.Dirty = true
			h.mlc[core].SetDirty(la) // keep MLC state conservative for inclusion
		}
		h.stats.DemandL1Hit++
		h.demand[core].L1Hit++
		return h.l1Lat
	}
	// MLC hit: fill L1.
	if ln := h.mlc[core].Lookup(la, true); ln != nil {
		if store {
			ln.Dirty = true
		}
		h.fillL1(core, la, store)
		h.stats.DemandMLCHit++
		h.demand[core].MLCHit++
		return h.mlcLat
	}
	// LLC hit: bring the line MLC-ward. Exclusive mode deallocates the
	// LLC copy; NINE mode keeps a clean copy behind (the dirtiness
	// moves with the MLC copy so only one level ever writes back).
	if ln := h.llc.Lookup(la, true); ln != nil {
		dirty, io := ln.Dirty, ln.IO
		if h.cfg.RetainLLCOnHit {
			ln.Dirty = false
		} else {
			h.llc.Invalidate(la)
		}
		h.fillMLC(now, core, la, dirty || store, io)
		h.fillL1(core, la, store)
		h.stats.DemandLLCHit++
		h.demand[core].LLCHit++
		return h.llcLat
	}
	// Check other cores' MLCs via directory (cross-core transfer).
	if owner, ok := h.dir.owner(la); ok && owner != core {
		// Remote MLC hit: transfer the line (invalidate remote copy).
		if ln := h.mlc[owner].Lookup(la, false); ln != nil {
			dirty, io := ln.Dirty, ln.IO
			h.mlc[owner].Invalidate(la)
			h.l1[owner].Invalidate(la)
			h.dir.remove(la)
			h.fillMLC(now, core, la, dirty || store, io)
			h.fillL1(core, la, store)
			h.stats.DemandLLCHit++ // charged as an on-chip hit
			h.demand[core].LLCHit++
			return h.llcLat
		}
		h.dir.remove(la) // stale entry
	}
	// DRAM: fill MLC directly (non-inclusive DRAM fills bypass the LLC).
	lat := h.dram.Read(now, la)
	h.fillMLC(now, core, la, store, false)
	h.fillL1(core, la, store)
	h.stats.DemandDRAM++
	h.demand[core].DRAM++
	return h.llcLat + lat
}

// fillL1 inserts the line into a core's L1, spilling a dirty victim's
// state into the MLC (L1 is kept a subset of the MLC).
func (h *Hierarchy) fillL1(core int, la uint64, dirty bool) {
	v, ev := h.l1[core].Insert(la, dirty, false, cache.AllWays)
	if ev && v.Dirty {
		h.mlc[core].SetDirty(v.Addr)
	}
}

// fillMLC inserts the line into a core's MLC, handling the victim and
// directory bookkeeping.
func (h *Hierarchy) fillMLC(now sim.Time, core int, la uint64, dirty, io bool) {
	v, ev := h.mlc[core].Insert(la, dirty, io, cache.AllWays)
	if ev {
		h.l1[core].Invalidate(v.Addr) // maintain L1 subset of MLC
		h.dir.remove(v.Addr)
		h.allocLLCVictim(now, core, v)
	}
	if vd, evd := h.dir.insert(la, core); evd {
		// Directory conflict: back-invalidate the displaced MLC line.
		h.backInvalidate(now, vd.owner, vd.line)
	}
}

// allocLLCVictim places an MLC victim into the LLC (victim-cache fill).
// The line loses its I/O classification here — that is the DMA-bloating
// mechanism: it may now occupy ANY way permitted to the application.
func (h *Hierarchy) allocLLCVictim(now sim.Time, core int, v cache.Victim) {
	h.stats.MLCWriteback++
	h.mlcWBByCore[core]++
	if h.MLCWBTL != nil {
		h.MLCWBTL.Record(now, 1)
	}
	if v.Dirty {
		h.stats.MLCWBDirty++
	}
	lv, ev := h.llc.Insert(v.Addr, v.Dirty, false, h.appMask)
	if ev && lv.Dirty {
		h.llcWriteback(now, lv)
	}
}

func (h *Hierarchy) llcWriteback(now sim.Time, v cache.Victim) {
	h.stats.LLCWriteback++
	if v.IO {
		h.stats.LLCWBIO++
	}
	if h.LLCWBTL != nil {
		h.LLCWBTL.Record(now, 1)
	}
	if h.obs.Tracing() {
		h.obs.LineEvent(obs.EvWriteback, now, v.Addr, -1, "llc", 0)
	}
	h.dram.Write(now, v.Addr)
}

// backInvalidate removes a line from a core's MLC because the directory
// ran out of tracking space; a dirty line is written back to the LLC.
func (h *Hierarchy) backInvalidate(now sim.Time, core int, la uint64) {
	h.stats.DirBackInval++
	h.l1[core].Invalidate(la)
	present, dirty := h.mlc[core].Invalidate(la)
	if present {
		h.allocLLCVictim(now, core, cache.Victim{Addr: la, Dirty: dirty})
	}
}

// --- PCIe ingress (DMA write) path ---

// PCIeWrite performs one full-cacheline inbound DMA write following the
// DDIO ingress flow of Fig. 1 and returns the latency charged to the
// DMA engine.
func (h *Hierarchy) PCIeWrite(now sim.Time, line mem.LineAddr) sim.Duration {
	return h.pcieWriteMask(now, line, h.ddioMask)
}

// PCIeWriteClass is PCIeWrite under a QoS class's way quota: the
// write-allocate is confined to the class's mask when one is set,
// falling back to the host-wide DDIO mask otherwise.
func (h *Hierarchy) PCIeWriteClass(now sim.Time, line mem.LineAddr, class int) sim.Duration {
	mask := h.ddioMask
	if class >= 0 && class < len(h.classMask) && h.classMask[class] != 0 {
		mask = h.classMask[class]
	}
	return h.pcieWriteMask(now, line, mask)
}

func (h *Hierarchy) pcieWriteMask(now sim.Time, line mem.LineAddr, mask cache.WayMask) sim.Duration {
	la := uint64(line)
	if h.DMAReqTL != nil {
		h.DMAReqTL.Record(now, 1)
	}
	// Invalidate any MLC-resident copy (P1/P2 steps in Fig. 1). The data
	// is dead — it is being overwritten — so no writeback happens.
	wasInMLC := h.snoopInvalMLC(now, la)
	if ln := h.llc.Lookup(la, true); ln != nil {
		// In-place update (P2-2/P3-1 in Fig. 1).
		ln.Dirty = true
		if !ln.IO {
			h.llc.MarkIO(la)
		}
		h.stats.DDIOUpdate++
		return h.llcLat
	}
	// Write-allocate into the DDIO ways (P1-2/P5-1 in Fig. 1).
	v, ev := h.llc.Insert(la, true, true, mask)
	if ev && v.Dirty {
		h.llcWriteback(now, v)
	}
	h.stats.DDIOAlloc++
	_ = wasInMLC
	return h.llcLat
}

// snoopInvalMLC invalidates la from every core's L1/MLC without
// writeback, returning whether any copy existed.
func (h *Hierarchy) snoopInvalMLC(now sim.Time, la uint64) bool {
	owner, ok := h.dir.owner(la)
	if !ok {
		return false
	}
	h.l1[owner].Invalidate(la)
	present, _ := h.mlc[owner].Invalidate(la)
	h.dir.remove(la)
	if present {
		h.stats.MLCInval++
		if h.MLCInvTL != nil {
			h.MLCInvTL.Record(now, 1)
		}
		if h.obs.Tracing() {
			h.obs.LineEvent(obs.EvInval, now, la, owner, "dma-snoop", 0)
		}
	}
	return present
}

// DirectDRAMWrite implements IDIO's selective direct DRAM access: the
// inbound line bypasses the cache hierarchy entirely. Stale cached
// copies are dropped (they are being overwritten).
func (h *Hierarchy) DirectDRAMWrite(now sim.Time, line mem.LineAddr) sim.Duration {
	la := uint64(line)
	if h.DMAReqTL != nil {
		h.DMAReqTL.Record(now, 1)
	}
	h.snoopInvalMLC(now, la)
	h.llc.Invalidate(la)
	h.stats.DDIOToDRAM++
	return h.dram.Write(now, la)
}

// --- PCIe egress (DMA read) path ---

// PCIeRead performs one outbound DMA read (TX) following the egress
// flow of Fig. 1 and returns its latency.
func (h *Hierarchy) PCIeRead(now sim.Time, line mem.LineAddr) sim.Duration {
	la := uint64(line)
	// MLC-resident: write the line back to LLC and serve from there
	// (P1-1/P2-1 in Fig. 1). The MLC copy is invalidated.
	if owner, ok := h.dir.owner(la); ok {
		if ln := h.mlc[owner].Lookup(la, false); ln != nil {
			dirty, io := ln.Dirty, ln.IO
			h.l1[owner].Invalidate(la)
			h.mlc[owner].Invalidate(la)
			h.dir.remove(la)
			h.allocLLCVictimEgress(now, owner, la, dirty, io)
			return h.llcLat + h.mlcLat
		}
		h.dir.remove(la)
	}
	if h.llc.Lookup(la, true) != nil {
		return h.llcLat
	}
	return h.llcLat + h.dram.Read(now, la)
}

// allocLLCVictimEgress places an egress-evicted MLC line into the LLC.
// Unlike a capacity victim it keeps its I/O classification (it is, by
// definition, a DMA buffer being transmitted).
func (h *Hierarchy) allocLLCVictimEgress(now sim.Time, core int, la uint64, dirty, io bool) {
	h.stats.MLCWriteback++
	h.mlcWBByCore[core]++
	if h.MLCWBTL != nil {
		h.MLCWBTL.Record(now, 1)
	}
	if dirty {
		h.stats.MLCWBDirty++
	}
	lv, ev := h.llc.Insert(la, dirty, io, h.appMask)
	if ev && lv.Dirty {
		h.llcWriteback(now, lv)
	}
}

// --- IDIO mechanisms ---

// RegisterInvalidatable marks a region's lines as safe to invalidate
// without writeback, modeling the kernel-allocated Invalidatable buffer
// of Sec. V-D. When enforcement is enabled (EnforceInvalidatable),
// InvalidateNoWB panics on unregistered lines, catching the privacy bug
// class the paper describes.
func (h *Hierarchy) RegisterInvalidatable(r mem.Region) {
	if h.invalidatable == nil {
		h.invalidatable = make(map[mem.LineAddr]struct{})
	}
	r.Lines(func(l mem.LineAddr) { h.invalidatable[l] = struct{}{} })
}

// EnforceInvalidatable turns on PTE-bit checking for InvalidateNoWB.
func (h *Hierarchy) EnforceInvalidatable(on bool) { h.invalCheck = on }

// InvalidateNoWB drops one cacheline from the requesting core's L1 and
// MLC and from the LLC without any writeback — the new cache
// maintenance instruction of Sec. IV-A / V-D.
func (h *Hierarchy) InvalidateNoWB(now sim.Time, core int, line mem.LineAddr) {
	la := uint64(line)
	if h.invalCheck {
		if _, ok := h.invalidatable[line]; !ok {
			panic(fmt.Sprintf("hier: InvalidateNoWB on non-Invalidatable line %v", line))
		}
	}
	dropped := false
	if p, _ := h.l1[core].Invalidate(la); p {
		dropped = true
	}
	if p, _ := h.mlc[core].Invalidate(la); p {
		h.dir.remove(la)
		dropped = true
	}
	if p, _ := h.llc.Invalidate(la); p {
		dropped = true
	}
	if dropped {
		h.stats.SelfInval++
	}
}

// InvalidateRegionNoWB applies InvalidateNoWB to every line of a region
// (the multi-cacheline invalidate instruction of Sec. V).
func (h *Hierarchy) InvalidateRegionNoWB(now sim.Time, core int, r mem.Region) {
	r.Lines(func(l mem.LineAddr) { h.InvalidateNoWB(now, core, l) })
}

// PrefetchToMLC services a prefetch hint from the IDIO controller: pull
// the line from LLC (or DRAM) into the destination core's MLC. It does
// not fill the L1 and charges no latency to any core. It reports
// whether a fill actually happened.
func (h *Hierarchy) PrefetchToMLC(now sim.Time, core int, line mem.LineAddr) bool {
	la := uint64(line)
	if h.mlc[core].Contains(la) || h.l1[core].Contains(la) {
		h.stats.PrefetchDrop++
		h.tracePrefetch(now, la, core, "drop-resident")
		return false
	}
	if owner, ok := h.dir.owner(la); ok && owner != core {
		// Resident in another MLC: leave it alone.
		h.stats.PrefetchDrop++
		h.tracePrefetch(now, la, core, "drop-foreign")
		return false
	}
	if ln := h.llc.Lookup(la, false); ln != nil {
		dirty, io := ln.Dirty, ln.IO
		h.llc.Invalidate(la)
		h.fillMLC(now, core, la, dirty, io)
		h.stats.PrefetchFill++
		h.tracePrefetch(now, la, core, "fill-llc")
		return true
	}
	// Not on chip: fetch from DRAM.
	h.dram.Read(now, la)
	h.fillMLC(now, core, la, false, false)
	h.stats.PrefetchFill++
	h.tracePrefetch(now, la, core, "fill-dram")
	return true
}

// tracePrefetch emits a prefetch-outcome trace event for a sampled
// line.
func (h *Hierarchy) tracePrefetch(now sim.Time, la uint64, core int, outcome string) {
	if h.obs.Tracing() {
		h.obs.LineEvent(obs.EvPrefetch, now, la, core, outcome, 0)
	}
}

// InjectSnoopPressure force-inserts synthetic entries into the
// snoop-filter directory on behalf of owner — the fault model of a
// co-runner (another socket's coherence traffic, an SGX enclave, a
// noisy VM) thrashing the directory. Conflict victims back-invalidate
// real MLC-resident lines exactly as organic pressure would
// (Skylake-SP's directory side channel works the same way). It
// returns how many synthetic insertions displaced an existing entry.
func (h *Hierarchy) InjectSnoopPressure(now sim.Time, owner int, lines []uint64) int {
	if owner < 0 || owner >= h.cfg.NumCores {
		owner = 0
	}
	evicted := 0
	for _, la := range lines {
		if vd, evd := h.dir.insert(la, owner); evd {
			h.backInvalidate(now, vd.owner, vd.line)
			evicted++
		}
	}
	return evicted
}

// WarmWrite installs a line into a core's MLC as cache warm-up: no
// latency is charged, no DRAM traffic is generated, and no statistics
// are recorded. Victims displaced by the warm fill spill into the LLC
// silently (LLC victims are dropped — warm-up data is DRAM-backed by
// construction). Sec. VI warms the LLCAntagonist's buffer before
// collecting stats; doing it through the timed path would absurdly
// backlog the DRAM bus at t=0.
func (h *Hierarchy) WarmWrite(core int, line mem.LineAddr) {
	la := uint64(line)
	if h.mlc[core].Contains(la) {
		return
	}
	h.llc.Invalidate(la) // keep exclusivity
	v, ev := h.mlc[core].Insert(la, false, false, cache.AllWays)
	if ev {
		h.l1[core].Invalidate(v.Addr)
		h.dir.remove(v.Addr)
		// Spill silently into the LLC; drop its victim.
		h.llc.Insert(v.Addr, v.Dirty, false, h.appMask)
	}
	if vd, evd := h.dir.insert(la, core); evd {
		// Silent back-invalidation (no stats) during warm-up.
		h.l1[vd.owner].Invalidate(vd.line)
		h.mlc[vd.owner].Invalidate(vd.line)
	}
}

// --- directory (snoop filter) ---

// dirEntry tracks one MLC-resident line and its owning core.
type dirEntry struct {
	line  uint64
	owner int
	valid bool
	use   uint64
}

type dirVictim struct {
	line  uint64
	owner int
}

// directory is a set-associative snoop filter. A conflict eviction
// back-invalidates the tracked MLC line, as in Skylake-SP (and as
// exploited by the directory side-channel literature the paper cites).
type directory struct {
	sets  int
	assoc int
	ents  []dirEntry
	// tags packs the entries' (valid, line) pairs one word per way —
	// dirInvalid when empty, the line address otherwise — so the owner
	// probe on every memory access scans a compact array instead of
	// striding across 32-byte dirEntry records.
	tags  []uint64
	clock uint64
}

// dirInvalid marks an empty way in directory.tags (line addresses are
// byte addresses >> 6 and never reach 2^64-1).
const dirInvalid = ^uint64(0)

func newDirectory(entries, assoc int) *directory {
	if assoc <= 0 {
		panic("hier: directory assoc must be positive")
	}
	sets := entries / assoc
	if sets <= 0 {
		sets = 1
	}
	// Round set count down to a power of two for cheap indexing.
	for sets&(sets-1) != 0 {
		sets &= sets - 1
	}
	d := &directory{sets: sets, assoc: assoc, ents: make([]dirEntry, sets*assoc)}
	d.tags = make([]uint64, sets*assoc)
	for i := range d.tags {
		d.tags[i] = dirInvalid
	}
	return d
}

func (d *directory) set(line uint64) []dirEntry {
	si := int(line & uint64(d.sets-1))
	return d.ents[si*d.assoc : (si+1)*d.assoc]
}

func (d *directory) owner(line uint64) (int, bool) {
	base := int(line&uint64(d.sets-1)) * d.assoc
	tags := d.tags[base : base+d.assoc]
	for i := range tags {
		if tags[i] == line {
			return d.ents[base+i].owner, true
		}
	}
	return 0, false
}

// insert records line as resident in owner's MLC. If the set is full a
// victim entry is evicted and returned for back-invalidation.
func (d *directory) insert(line uint64, owner int) (dirVictim, bool) {
	d.clock++
	base := int(line&uint64(d.sets-1)) * d.assoc
	tags := d.tags[base : base+d.assoc]
	set := d.ents[base : base+d.assoc]
	for i := range tags {
		if tags[i] == line {
			set[i].owner = owner
			set[i].use = d.clock
			return dirVictim{}, false
		}
	}
	for i := range tags {
		if tags[i] == dirInvalid {
			set[i] = dirEntry{line: line, owner: owner, valid: true, use: d.clock}
			tags[i] = line
			return dirVictim{}, false
		}
	}
	// Evict LRU entry.
	vi, minUse := 0, ^uint64(0)
	for i := range set {
		if set[i].use < minUse {
			vi, minUse = i, set[i].use
		}
	}
	v := dirVictim{line: set[vi].line, owner: set[vi].owner}
	set[vi] = dirEntry{line: line, owner: owner, valid: true, use: d.clock}
	tags[vi] = line
	return v, true
}

func (d *directory) remove(line uint64) {
	base := int(line&uint64(d.sets-1)) * d.assoc
	tags := d.tags[base : base+d.assoc]
	for i := range tags {
		if tags[i] == line {
			d.ents[base+i].valid = false
			tags[i] = dirInvalid
			return
		}
	}
}

// entries returns the number of valid directory entries (testing aid).
func (d *directory) entries() int {
	n := 0
	for i := range d.ents {
		if d.ents[i].valid {
			n++
		}
	}
	return n
}

// SetObserver attaches the observability layer. A nil observer (the
// default) disables line-level trace emission.
func (h *Hierarchy) SetObserver(o *obs.Observer) { h.obs = o }

// RegisterMetrics registers the hierarchy's counters and occupancy
// gauges under prefix (e.g. "hier."). Counter names mirror the keys
// Results.WriteStats prints; the occupancy/way gauges additionally
// expose the live state the periodic metric snapshots sample.
func (h *Hierarchy) RegisterMetrics(reg *obs.Registry, prefix string) {
	reg.CounterFunc(prefix+"mlc_writebacks", func() uint64 { return h.stats.MLCWriteback })
	reg.CounterFunc(prefix+"mlc_writebacks_dirty", func() uint64 { return h.stats.MLCWBDirty })
	reg.CounterFunc(prefix+"mlc_invalidations", func() uint64 { return h.stats.MLCInval })
	reg.CounterFunc(prefix+"llc_writebacks", func() uint64 { return h.stats.LLCWriteback })
	reg.CounterFunc(prefix+"llc_writebacks_io", func() uint64 { return h.stats.LLCWBIO })
	reg.CounterFunc(prefix+"dir_back_invalidations", func() uint64 { return h.stats.DirBackInval })
	reg.CounterFunc(prefix+"self_invalidations", func() uint64 { return h.stats.SelfInval })
	reg.CounterFunc(prefix+"ddio_updates", func() uint64 { return h.stats.DDIOUpdate })
	reg.CounterFunc(prefix+"ddio_allocations", func() uint64 { return h.stats.DDIOAlloc })
	reg.CounterFunc(prefix+"ddio_direct_dram", func() uint64 { return h.stats.DDIOToDRAM })
	reg.CounterFunc(prefix+"prefetch_fills", func() uint64 { return h.stats.PrefetchFill })
	reg.CounterFunc(prefix+"prefetch_drops", func() uint64 { return h.stats.PrefetchDrop })
	reg.CounterFunc(prefix+"demand_l1_hits", func() uint64 { return h.stats.DemandL1Hit })
	reg.CounterFunc(prefix+"demand_mlc_hits", func() uint64 { return h.stats.DemandMLCHit })
	reg.CounterFunc(prefix+"demand_llc_hits", func() uint64 { return h.stats.DemandLLCHit })
	reg.CounterFunc(prefix+"demand_dram", func() uint64 { return h.stats.DemandDRAM })
	reg.GaugeFunc(prefix+"llc_occupancy", func() float64 { return float64(h.LLCOccupancy()) })
	reg.GaugeFunc(prefix+"llc_occupancy_io", func() float64 { return float64(h.LLCOccupancyIO()) })
	reg.GaugeFunc(prefix+"ddio_ways", func() float64 { return float64(h.DDIOWays()) })
	for i := 0; i < h.cfg.NumCores; i++ {
		i := i
		reg.GaugeFunc(fmt.Sprintf("%smlc%d_occupancy", prefix, i), func() float64 { return float64(h.MLCOccupancy(i)) })
		reg.GaugeFunc(fmt.Sprintf("%smlc%d_load", prefix, i), func() float64 { return h.MLCLoadFraction(i) })
	}
}
