package hier

import (
	"math/rand"
	"testing"

	"idio/internal/cache"
	"idio/internal/dram"
	"idio/internal/mem"
	"idio/internal/sim"
)

// small returns a deliberately tiny hierarchy so capacity effects are
// easy to trigger: 2 cores, 1KB L1 (2-way), 4KB MLC (4-way), 16KB LLC
// (8-way, 2 DDIO ways), generous directory.
func small(t *testing.T) *Hierarchy {
	t.Helper()
	cfg := Config{
		Clock:    sim.NewClock(3_000_000_000),
		NumCores: 2,
		L1Size:   1 << 10, L1Assoc: 2, L1Lat: 2,
		MLCSize: 4 << 10, MLCAssoc: 4, MLCLat: 12,
		LLCSize: 16 << 10, LLCAssoc: 8, LLCLat: 24,
		DDIOWays:          2,
		DirEntriesPerCore: 256,
		DirAssoc:          8,
		DRAM:              dram.Config{AccessLatency: 80 * sim.Nanosecond, BytesPerSecond: 25_600_000_000},
	}
	return New(cfg)
}

func TestDemandMissGoesToDRAMAndFillsMLC(t *testing.T) {
	h := small(t)
	lat := h.CoreRead(0, 0, 100)
	if lat <= h.llcLat {
		t.Fatalf("cold miss latency %v should include DRAM", lat)
	}
	st := h.Stats()
	if st.DemandDRAM != 1 {
		t.Fatalf("stats %+v", st)
	}
	// DRAM fill bypasses LLC (non-inclusive).
	if h.LLCOccupancy() != 0 {
		t.Fatal("DRAM fill must not allocate in LLC")
	}
	if h.MLCOccupancy(0) != 1 {
		t.Fatal("DRAM fill must land in MLC")
	}
	// Second access: L1 hit.
	lat = h.CoreRead(0, 0, 100)
	if lat != h.l1Lat {
		t.Fatalf("L1 hit latency %v, want %v", lat, h.l1Lat)
	}
	if h.Stats().DemandL1Hit != 1 {
		t.Fatalf("stats %+v", h.Stats())
	}
}

func TestPCIeWriteAllocatesDDIOWays(t *testing.T) {
	h := small(t)
	lat := h.PCIeWrite(0, 7)
	if lat != h.llcLat {
		t.Fatalf("ddio write latency %v", lat)
	}
	st := h.Stats()
	if st.DDIOAlloc != 1 || st.DDIOUpdate != 0 {
		t.Fatalf("stats %+v", st)
	}
	if h.LLCOccupancyIO() != 1 {
		t.Fatal("line must be IO-classified in LLC")
	}
	// Same line again: in-place update.
	h.PCIeWrite(0, 7)
	if h.Stats().DDIOUpdate != 1 {
		t.Fatalf("stats %+v", h.Stats())
	}
}

func TestDDIOWayConfinementCausesDMALeak(t *testing.T) {
	h := small(t)
	// LLC: 16KB / 64B = 256 lines / 8 ways = 32 sets; DDIO capacity is
	// 2 ways x 32 sets = 64 lines. Write 256 distinct lines: residency
	// stays within 64 IO lines and the rest leak to DRAM (DMA leak).
	for i := mem.LineAddr(0); i < 256; i++ {
		h.PCIeWrite(0, i)
	}
	if got := h.LLCOccupancyIO(); got > 64 {
		t.Fatalf("IO lines %d exceed DDIO capacity 64", got)
	}
	st := h.Stats()
	if st.LLCWriteback != 256-64 {
		t.Fatalf("LLC writebacks %d, want 192", st.LLCWriteback)
	}
	if st.LLCWBIO != st.LLCWriteback {
		t.Fatalf("all leaks should be IO-classified: %+v", st)
	}
	if h.DRAM().Writes() != 192 {
		t.Fatalf("DRAM writes %d, want 192", h.DRAM().Writes())
	}
}

func TestLLCHitMovesLineToMLC(t *testing.T) {
	h := small(t)
	h.PCIeWrite(0, 9) // lands in LLC DDIO ways, dirty+IO
	lat := h.CoreRead(0, 0, 9)
	if lat != h.llcLat {
		t.Fatalf("LLC hit latency %v, want %v", lat, h.llcLat)
	}
	if h.LLCOccupancy() != 0 {
		t.Fatal("LLC copy must be deallocated on core demand (move semantics)")
	}
	if h.MLCOccupancy(0) != 1 {
		t.Fatal("line must now be in MLC")
	}
	if h.Stats().DemandLLCHit != 1 {
		t.Fatalf("stats %+v", h.Stats())
	}
}

func TestMLCEvictionWritesBackDirtyToLLCAndBloats(t *testing.T) {
	h := small(t)
	// Bring 64+16 dirty IO lines through MLC of core 0 (MLC = 64 lines).
	n := mem.LineAddr(64 + 16)
	for i := mem.LineAddr(0); i < n; i++ {
		h.PCIeWrite(0, i)
		h.CoreRead(0, 0, i) // moves to MLC, dirty
	}
	st := h.Stats()
	if st.MLCWriteback != 16 {
		t.Fatalf("MLC writebacks %d, want 16", st.MLCWriteback)
	}
	if h.MLCWritebacks(0) != 16 || h.MLCWritebacks(1) != 0 {
		t.Fatalf("per-core WB %d/%d", h.MLCWritebacks(0), h.MLCWritebacks(1))
	}
	// Bloating: the evicted lines allocate in the LLC as non-IO data.
	found := false
	// (IO occupancy counts only PCIe-classified lines; victims lose it.)
	if h.LLCOccupancyIO() != 0 && h.LLCOccupancy() > 0 {
		t.Fatalf("victims must lose IO classification: io=%d", h.LLCOccupancyIO())
	}
	if h.LLCOccupancy() >= 16 {
		found = true
	}
	if !found {
		t.Fatalf("LLC occupancy %d; MLC victims must allocate into LLC", h.LLCOccupancy())
	}
}

func TestAppWayMaskLimitsBloating(t *testing.T) {
	cfg := Config{
		Clock:    sim.NewClock(3_000_000_000),
		NumCores: 1,
		L1Size:   1 << 10, L1Assoc: 2, L1Lat: 2,
		MLCSize: 4 << 10, MLCAssoc: 4, MLCLat: 12,
		LLCSize: 16 << 10, LLCAssoc: 8, LLCLat: 24,
		DDIOWays:          2,
		AppWayMask:        cache.WayMask(1 << 2), // single non-DDIO way
		DirEntriesPerCore: 256, DirAssoc: 8,
		DRAM: dram.Config{AccessLatency: 80 * sim.Nanosecond, BytesPerSecond: 25_600_000_000},
	}
	h := New(cfg)
	// Stream many dirty lines through the MLC; victims may only occupy
	// 1 way x 4 sets = 4 LLC lines, so the rest go to DRAM.
	for i := mem.LineAddr(0); i < 200; i++ {
		h.PCIeWrite(0, i)
		h.CoreRead(0, 0, i)
	}
	if h.DRAM().Writes() == 0 {
		t.Fatal("way-partitioned app must leak writebacks to DRAM")
	}
	// Compare against unpartitioned: strictly fewer DRAM writes.
	h2 := small(t)
	for i := mem.LineAddr(0); i < 200; i++ {
		h2.PCIeWrite(0, i)
		h2.CoreRead(0, 0, i)
	}
	if h2.DRAM().Writes() >= h.DRAM().Writes() {
		t.Fatalf("bloating should absorb writebacks: full=%d 1way=%d",
			h2.DRAM().Writes(), h.DRAM().Writes())
	}
}

func TestPCIeWriteInvalidatesMLCCopy(t *testing.T) {
	h := small(t)
	h.PCIeWrite(0, 5)
	h.CoreRead(0, 0, 5) // line now in MLC core 0
	h.PCIeWrite(0, 5)   // NIC reuses the buffer
	st := h.Stats()
	if st.MLCInval != 1 {
		t.Fatalf("MLC invalidations %d, want 1", st.MLCInval)
	}
	if h.MLCOccupancy(0) != 0 {
		t.Fatal("MLC copy must be gone")
	}
	// No writeback happened for the invalidated line.
	if st.MLCWriteback != 0 {
		t.Fatalf("invalidation must not write back: %+v", st)
	}
	if h.LLCOccupancyIO() != 1 {
		t.Fatal("fresh copy must be in DDIO ways")
	}
}

// A DDIO write that hits a CPU-owned line resident in the LLC updates
// it in place and re-classifies it as I/O data; the LLC's incremental
// IO-line count must follow the flip.
func TestPCIeWriteInPlaceMarksCPULineIO(t *testing.T) {
	h := small(t)
	// Core 0 dirties line 5, then four more lines of the same MLC set
	// (16 sets, 4 ways) push it out into the LLC as a CPU line.
	h.CoreWrite(0, 0, 5)
	for i := 1; i <= 4; i++ {
		h.CoreWrite(0, 0, mem.LineAddr(5+16*i))
	}
	if got := h.Residency(5); got != "llc" {
		t.Fatalf("line 5 resident in %q, want llc", got)
	}
	if h.LLCOccupancyIO() != 0 {
		t.Fatalf("CPU writeback counted as IO: %d", h.LLCOccupancyIO())
	}
	h.PCIeWrite(0, 5)
	if h.Stats().DDIOUpdate != 1 || h.Stats().DDIOAlloc != 0 {
		t.Fatalf("want one in-place update: %+v", h.Stats())
	}
	scan := 0
	h.llc.ForEach(func(l cache.Line) {
		if l.IO {
			scan++
		}
	})
	if h.LLCOccupancyIO() != 1 || scan != 1 {
		t.Fatalf("IO lines: counter %d, scan %d, want 1", h.LLCOccupancyIO(), scan)
	}
	// A second write to the now-IO line leaves the count alone.
	h.PCIeWrite(0, 5)
	if h.LLCOccupancyIO() != 1 {
		t.Fatalf("IO lines after repeat write: %d", h.LLCOccupancyIO())
	}
}

func TestPCIeReadMovesMLCLineToLLC(t *testing.T) {
	h := small(t)
	h.PCIeWrite(0, 3)
	h.CoreRead(0, 0, 3) // in MLC, dirty
	lat := h.PCIeRead(0, 3)
	if lat != h.llcLat+h.mlcLat {
		t.Fatalf("egress from MLC latency %v", lat)
	}
	if h.MLCOccupancy(0) != 0 {
		t.Fatal("egress read must invalidate the MLC copy")
	}
	if h.LLCOccupancy() != 1 {
		t.Fatal("line must be back in the LLC")
	}
	if h.Stats().MLCWriteback != 1 {
		t.Fatalf("egress of dirty MLC line counts as MLC WB: %+v", h.Stats())
	}
	// Egress keeps IO classification.
	if h.LLCOccupancyIO() != 1 {
		t.Fatal("egress-evicted DMA line keeps IO classification")
	}
}

func TestPCIeReadFromLLCAndDRAM(t *testing.T) {
	h := small(t)
	h.PCIeWrite(0, 3)
	if lat := h.PCIeRead(0, 3); lat != h.llcLat {
		t.Fatalf("LLC egress latency %v", lat)
	}
	if lat := h.PCIeRead(0, 99); lat <= h.llcLat {
		t.Fatalf("uncached egress latency %v should include DRAM", lat)
	}
}

func TestInvalidateNoWBDropsEverywhereWithoutDRAMTraffic(t *testing.T) {
	h := small(t)
	h.PCIeWrite(0, 11)
	h.CoreRead(0, 0, 11) // dirty line in MLC
	h.PCIeWrite(0, 12)   // dirty line in LLC
	wBefore := h.DRAM().Writes()
	h.InvalidateNoWB(0, 0, 11)
	h.InvalidateNoWB(0, 0, 12)
	if h.DRAM().Writes() != wBefore {
		t.Fatal("InvalidateNoWB must not generate DRAM writes")
	}
	if h.MLCOccupancy(0) != 0 || h.LLCOccupancy() != 0 {
		t.Fatal("lines must be dropped from MLC and LLC")
	}
	if h.Stats().SelfInval != 2 {
		t.Fatalf("self invals %d, want 2", h.Stats().SelfInval)
	}
	// Invalidating an absent line is a no-op.
	h.InvalidateNoWB(0, 0, 999)
	if h.Stats().SelfInval != 2 {
		t.Fatal("absent-line invalidate must not count")
	}
}

func TestInvalidateRegionNoWB(t *testing.T) {
	h := small(t)
	r := mem.Region{Base: 0, Size: 2048}
	for l := mem.LineAddr(0); l < 32; l++ {
		h.PCIeWrite(0, l)
		h.CoreRead(0, 0, l)
	}
	h.InvalidateRegionNoWB(0, 0, r)
	if h.MLCOccupancy(0) != 0 {
		t.Fatalf("MLC still holds %d lines", h.MLCOccupancy(0))
	}
}

func TestInvalidatableEnforcement(t *testing.T) {
	h := small(t)
	h.EnforceInvalidatable(true)
	h.RegisterInvalidatable(mem.Region{Base: 0, Size: 2048})
	h.PCIeWrite(0, 1)
	h.InvalidateNoWB(0, 0, 1) // registered: fine
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unregistered line")
		}
	}()
	h.InvalidateNoWB(0, 0, 1000)
}

func TestPrefetchToMLCMovesLLCLine(t *testing.T) {
	h := small(t)
	h.PCIeWrite(0, 21)
	if !h.PrefetchToMLC(0, 1, 21) {
		t.Fatal("prefetch should fill")
	}
	if h.MLCOccupancy(1) != 1 || h.LLCOccupancy() != 0 {
		t.Fatal("prefetch must move the line LLC -> MLC")
	}
	// Demand read now hits MLC.
	if lat := h.CoreRead(0, 1, 21); lat != h.mlcLat {
		t.Fatalf("post-prefetch latency %v, want MLC hit %v", lat, h.mlcLat)
	}
	// Prefetching a resident line is dropped.
	if h.PrefetchToMLC(0, 1, 21) {
		t.Fatal("resident prefetch must be dropped")
	}
	st := h.Stats()
	if st.PrefetchFill != 1 || st.PrefetchDrop != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestPrefetchFromDRAM(t *testing.T) {
	h := small(t)
	r := h.DRAM().Reads()
	if !h.PrefetchToMLC(0, 0, 77) {
		t.Fatal("uncached prefetch should fill from DRAM")
	}
	if h.DRAM().Reads() != r+1 {
		t.Fatal("prefetch must read DRAM")
	}
}

func TestPrefetchDoesNotStealFromOtherMLC(t *testing.T) {
	h := small(t)
	h.PCIeWrite(0, 5)
	h.CoreRead(0, 0, 5) // in core 0's MLC
	if h.PrefetchToMLC(0, 1, 5) {
		t.Fatal("prefetch must not move a line resident in another MLC")
	}
}

func TestCrossCoreTransfer(t *testing.T) {
	h := small(t)
	h.PCIeWrite(0, 8)
	h.CoreWrite(0, 0, 8) // dirty in core 0
	lat := h.CoreRead(0, 1, 8)
	if lat != h.llcLat {
		t.Fatalf("cross-core transfer latency %v", lat)
	}
	if h.MLCOccupancy(0) != 0 || h.MLCOccupancy(1) != 1 {
		t.Fatal("line must move core0 -> core1")
	}
	// Dirtiness must be preserved across the transfer.
	h2 := small(t)
	h2.PCIeWrite(0, 8)
	h2.CoreRead(0, 0, 8)
	h2.CoreRead(0, 1, 8)
	// Evict it from core 1 and check it writes back as dirty.
	for i := mem.LineAddr(100); i < 100+64; i++ {
		h2.PCIeWrite(0, i)
		h2.CoreRead(0, 1, i)
	}
	if h2.Stats().MLCWriteback == 0 {
		t.Fatal("transferred dirty line must eventually write back dirty")
	}
}

func TestCoreWriteMarksDirtyThroughL1(t *testing.T) {
	h := small(t)
	h.CoreRead(0, 0, 30)  // clean fill from DRAM
	h.CoreWrite(0, 0, 30) // L1 hit store
	// Evict from MLC by streaming the set; dirty line must write back.
	// MLC is 4-way, 16 sets; line 30 maps to set 30%16=14. Fill 4 more
	// lines in set 14: 46, 62, 78, 94.
	for _, l := range []mem.LineAddr{46, 62, 78, 94} {
		h.CoreRead(0, 0, l)
	}
	if h.Stats().MLCWriteback != 1 {
		t.Fatalf("store-dirtied line must write back: %+v", h.Stats())
	}
}

func TestDirectDRAMWriteBypassesCaches(t *testing.T) {
	h := small(t)
	h.PCIeWrite(0, 40)
	h.CoreRead(0, 0, 40) // cached copy in MLC
	w := h.DRAM().Writes()
	h.DirectDRAMWrite(0, 40)
	if h.DRAM().Writes() != w+1 {
		t.Fatal("direct write must hit DRAM")
	}
	if h.MLCOccupancy(0) != 0 || h.LLCOccupancy() != 0 {
		t.Fatal("stale cached copies must be dropped")
	}
	if h.Stats().DDIOToDRAM != 1 {
		t.Fatalf("stats %+v", h.Stats())
	}
	// Next core read must come from DRAM.
	r := h.DRAM().Reads()
	h.CoreRead(0, 0, 40)
	if h.DRAM().Reads() != r+1 {
		t.Fatal("read after direct DRAM write must miss on chip")
	}
}

func TestDirectoryBackInvalidation(t *testing.T) {
	cfg := Config{
		Clock:    sim.NewClock(3_000_000_000),
		NumCores: 1,
		L1Size:   1 << 10, L1Assoc: 2, L1Lat: 2,
		MLCSize: 64 << 10, MLCAssoc: 16, MLCLat: 12, // big MLC (1024 lines)
		LLCSize: 64 << 10, LLCAssoc: 8, LLCLat: 24,
		DDIOWays:          2,
		DirEntriesPerCore: 16, // tiny directory forces conflicts
		DirAssoc:          4,
		DRAM:              dram.Config{AccessLatency: 80 * sim.Nanosecond, BytesPerSecond: 25_600_000_000},
	}
	h := New(cfg)
	for i := mem.LineAddr(0); i < 256; i++ {
		h.CoreRead(0, 0, i)
	}
	if h.Stats().DirBackInval == 0 {
		t.Fatal("tiny directory must force back-invalidations")
	}
	// Every MLC-resident line must still be tracked (inclusion of the
	// directory over MLC contents).
	if h.MLCOccupancy(0) > h.dir.entries() {
		t.Fatalf("MLC holds %d lines but directory only tracks %d",
			h.MLCOccupancy(0), h.dir.entries())
	}
}

func TestMLCWBTimelineRecords(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.MLCSize = 4 << 10
	cfg.MLCAssoc = 4
	cfg.LLCSize = 16 << 10
	cfg.LLCAssoc = 8
	cfg.DirEntriesPerCore = 256
	h := New(cfg)
	now := sim.Time(15 * sim.Microsecond)
	for i := mem.LineAddr(0); i < 128; i++ {
		h.PCIeWrite(now, i)
		h.CoreRead(now, 0, i)
	}
	if h.MLCWBTL.Total() == 0 {
		t.Fatal("timeline must record MLC writebacks")
	}
	if h.MLCWBTL.Count(1) != h.MLCWBTL.Total() {
		t.Fatal("all events at 15us belong to bucket 1")
	}
}

// Exclusivity invariant: after any interleaving of operations, no line
// is simultaneously valid in an MLC and the LLC, and no line is valid
// in two MLCs.
func TestExclusivityInvariantUnderRandomOps(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	h := small(t)
	lines := 96
	for op := 0; op < 5000; op++ {
		l := mem.LineAddr(rng.Intn(lines))
		core := rng.Intn(2)
		switch rng.Intn(6) {
		case 0:
			h.PCIeWrite(0, l)
		case 1:
			h.CoreRead(0, core, l)
		case 2:
			h.CoreWrite(0, core, l)
		case 3:
			h.PCIeRead(0, l)
		case 4:
			h.InvalidateNoWB(0, core, l)
		case 5:
			h.PrefetchToMLC(0, core, l)
		}
	}
	for l := mem.LineAddr(0); l < mem.LineAddr(lines); l++ {
		inMLC := 0
		for c := 0; c < 2; c++ {
			if h.mlc[c].Contains(uint64(l)) {
				inMLC++
			}
		}
		if inMLC > 1 {
			t.Fatalf("line %v valid in %d MLCs", l, inMLC)
		}
		if inMLC == 1 && h.llc.Contains(uint64(l)) {
			t.Fatalf("line %v valid in both MLC and LLC", l)
		}
	}
}

// L1 must remain a subset of the MLC.
func TestL1SubsetInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	h := small(t)
	for op := 0; op < 5000; op++ {
		l := mem.LineAddr(rng.Intn(64))
		switch rng.Intn(4) {
		case 0:
			h.CoreRead(0, 0, l)
		case 1:
			h.CoreWrite(0, 0, l)
		case 2:
			h.PCIeWrite(0, l)
		case 3:
			h.InvalidateNoWB(0, 0, l)
		}
		bad := false
		h.l1[0].ForEach(func(ln cache.Line) {
			if !h.mlc[0].Contains(ln.Addr) {
				bad = true
			}
		})
		if bad {
			t.Fatalf("op %d: L1 holds a line absent from MLC", op)
		}
	}
}

func nine(t *testing.T) *Hierarchy {
	t.Helper()
	cfg := Config{
		Clock:    sim.NewClock(3_000_000_000),
		NumCores: 2,
		L1Size:   1 << 10, L1Assoc: 2, L1Lat: 2,
		MLCSize: 4 << 10, MLCAssoc: 4, MLCLat: 12,
		LLCSize: 16 << 10, LLCAssoc: 8, LLCLat: 24,
		DDIOWays:          2,
		DirEntriesPerCore: 256,
		DirAssoc:          8,
		DRAM:              dram.Config{AccessLatency: 80 * sim.Nanosecond, BytesPerSecond: 25_600_000_000},
		RetainLLCOnHit:    true,
	}
	return New(cfg)
}

func TestNINERetainsLLCCopyOnHit(t *testing.T) {
	h := nine(t)
	h.PCIeWrite(0, 9)
	h.CoreRead(0, 0, 9)
	// Fig. 1's P2 state: valid in both MLC and LLC.
	if !h.mlc[0].Contains(9) || !h.llc.Contains(9) {
		t.Fatal("NINE hit must leave copies in both levels")
	}
	// Only one dirty copy: dirtiness moved to the MLC.
	if ln := h.llc.Lookup(9, false); ln.Dirty {
		t.Fatal("retained LLC copy must be clean")
	}
	if ln := h.mlc[0].Lookup(9, false); !ln.Dirty {
		t.Fatal("MLC copy must carry the dirtiness")
	}
}

func TestNINEP2IngressInvalidatesMLCAndUpdatesLLC(t *testing.T) {
	h := nine(t)
	h.PCIeWrite(0, 9)
	h.CoreRead(0, 0, 9) // P2: both levels
	h.PCIeWrite(0, 9)   // NIC reuse
	st := h.Stats()
	// P2-1: MLC invalidated; P2-2: LLC updated in place.
	if st.MLCInval != 1 {
		t.Fatalf("P2-1 invalidation missing: %+v", st)
	}
	if st.DDIOUpdate != 1 {
		t.Fatalf("P2-2 in-place update missing: %+v", st)
	}
	if h.mlc[0].Contains(9) {
		t.Fatal("MLC copy must be gone")
	}
	if ln := h.llc.Lookup(9, false); ln == nil || !ln.Dirty || !ln.IO {
		t.Fatalf("LLC copy state: %+v", ln)
	}
}

func TestNINEMLCEvictionUpdatesRetainedCopyInPlace(t *testing.T) {
	h := nine(t)
	h.PCIeWrite(0, 9)
	h.CoreWrite(0, 0, 9) // P2 with dirty MLC copy
	llcOcc := h.LLCOccupancy()
	// Evict line 9 from the MLC by filling its set (16 sets, stride 16).
	for i := mem.LineAddr(1); i <= 4; i++ {
		h.CoreRead(0, 0, 9+i*16)
	}
	if h.mlc[0].Contains(9) {
		t.Fatal("line must have been evicted from MLC")
	}
	// The writeback lands in the retained LLC copy: dirty again, no
	// extra allocation beyond the demand fills' own footprint.
	if ln := h.llc.Lookup(9, false); ln == nil || !ln.Dirty {
		t.Fatalf("retained copy must absorb the writeback: %+v", ln)
	}
	_ = llcOcc
	if h.Stats().MLCWriteback == 0 {
		t.Fatal("eviction still counts as MLC->LLC writeback traffic")
	}
}

func TestConfigValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero cores")
		}
	}()
	New(Config{NumCores: 0})
}
