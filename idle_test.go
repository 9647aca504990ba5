// Idle-time regression guards: a polling host spends most of a bursty
// run waiting between bursts, and its parked PMD cores must make that
// wait cost (almost) nothing — no per-poll events, no allocations.
package idio_test

import (
	"testing"

	"idio"
	"idio/internal/apps"
	idiocore "idio/internal/core"
	"idio/internal/sim"
	"idio/internal/traffic"
)

// Burst shape of the idle-gap host: every core receives one ring-size
// burst of MTU frames at 100 Gbps each 10 ms — the paper's burst
// experiment, and the repo benchmark's host_burst shape.
const (
	idleRing   = 1024
	idlePeriod = 10 * sim.Millisecond
	idleStart  = sim.Time(sim.Millisecond)
)

// newIdleGapHost builds a 2-core DDIO host whose cores each take
// `bursts` bursts idlePeriod apart, the first at idleStart.
func newIdleGapHost(bursts int) *idio.System {
	cfg := idio.DefaultConfig(2)
	cfg.Policy = idiocore.PolicyDDIO
	cfg.NIC.RingSize = idleRing
	cfg.Hier.TimelineBucket = 0 // timelines append one bucket per interval, not per packet
	sys := idio.NewSystem(cfg)
	for c := 0; c < cfg.NumCores(); c++ {
		flow := sys.DefaultFlow(c)
		sys.AddNF(c, apps.TouchDrop{}, flow)
		traffic.Bursty{
			Flow: flow, BurstRateBps: 100e9, Period: idlePeriod,
			PacketsPerBurst: idleRing, NumBursts: bursts, Start: idleStart,
		}.Install(sys.Sim, sys.NIC)
	}
	return sys
}

// maxEventsPerPkt bounds the simulator events the idle-gap host may
// dispatch per received packet over two bursts and the 10 ms gap
// between them. It is an exact count — the same on every machine — so
// the gate is hard. It reads 10.74 with idle cores parked; scheduling
// each idle core's 200 ns re-poll as an event would read ~53.
const maxEventsPerPkt = 12

// TestIdleWorkCount is the deterministic work-count gate: a 2-core DDIO
// host takes two 1024-frame bursts 10 ms apart, and the events it
// dispatches per received packet must stay under maxEventsPerPkt.
func TestIdleWorkCount(t *testing.T) {
	sys := newIdleGapHost(2)
	sys.Start()
	sys.Sim.RunUntil(idleStart.Add(2 * idlePeriod))
	res := sys.Collect()
	rx := res.NIC.RxPackets
	if rx != 2*2*idleRing || res.TotalProcessed() != rx {
		t.Fatalf("rx %d processed %d, want %d each", rx, res.TotalProcessed(), 2*2*idleRing)
	}
	per := float64(sys.Sim.Processed()) / float64(rx)
	t.Logf("%d events for %d packets: %.2f events/pkt", sys.Sim.Processed(), rx, per)
	if per > maxEventsPerPkt {
		t.Fatalf("%.2f events/pkt, bound %d: idle polling is back on the event queue", per, maxEventsPerPkt)
	}
}

// TestAllocsPerPacketIdleGaps extends the zero-allocation gate to idle
// time: each measured slice is a whole burst period — a 2048-packet
// burst, then ~10 ms with both cores parked — and must not allocate,
// parking and waking included.
func TestAllocsPerPacketIdleGaps(t *testing.T) {
	// Bursty pre-schedules every emission, so install just enough
	// bursts: two warm-up periods, AllocsPerRun's own warm-up run and
	// the 20 measured ones.
	const runs = 20
	sys := newIdleGapHost(2 + 1 + runs)
	sys.Start()
	for _, c := range sys.Cores {
		c.Latencies.Reserve(1 << 20)
	}
	// Warm-up: two periods bring the packet pool and event queues to
	// their high-water marks.
	now := idleStart.Add(2 * idlePeriod)
	sys.Sim.RunUntil(now)
	warm := sys.NIC.Stats().RxPackets
	avg := testing.AllocsPerRun(runs, func() {
		now = now.Add(idlePeriod)
		sys.Sim.RunUntil(now)
	})
	if pkts := sys.NIC.Stats().RxPackets - warm; pkts == 0 {
		t.Fatal("measured window received no packets")
	}
	if avg != 0 {
		t.Fatalf("%.2f allocs per burst period: the burst-and-idle loop must not allocate", avg)
	}
}
