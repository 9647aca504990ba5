package cpu

import (
	"fmt"
	"testing"

	idiocore "idio/internal/core"
	"idio/internal/hier"
	"idio/internal/mem"
	"idio/internal/nic"
	"idio/internal/pkt"
	"idio/internal/sim"
)

// logApp records, in service order, which core served a packet from
// which port.
type logApp struct {
	log   *[]string
	ports []*nic.NIC
}

func (logApp) Name() string { return "log" }
func (a logApp) OnPacket(env *Env, slot *nic.Slot) (sim.Duration, bool) {
	port := -1
	for i, p := range a.ports {
		if p == slot.NIC() {
			port = i
		}
	}
	*a.log = append(*a.log, fmt.Sprintf("core%d/port%d", env.CoreID, port))
	return 0, false
}

// multiRig is a host with nPorts NICs of nCores queues each; core i
// receives ring i of every port.
type multiRig struct {
	s     *sim.Simulator
	ports []*nic.NIC
	fds   []*nic.FlowDirector
	cores []*Core
	log   []string
}

func newMultiRig(t *testing.T, cfg Config, nPorts, nCores int) *multiRig {
	t.Helper()
	hcfg := testHierConfig(nCores)
	h := hier.New(hcfg)
	r := &multiRig{s: sim.New()}
	for p := 0; p < nPorts; p++ {
		ncfg := nic.DefaultConfig(nCores)
		ncfg.RingSize = 64
		ncfg.DescWBDelay = 100 * sim.Nanosecond
		cls := idiocore.NewClassifier(idiocore.DefaultClassifierConfig(nCores))
		fd := nic.NewFlowDirector(nCores)
		ly := mem.NewLayout(mem.Addr(0x1000000 * (p + 1)))
		r.ports = append(r.ports, nic.New(ncfg, ly, ddioSink{h}, cls, fd))
		r.fds = append(r.fds, fd)
	}
	for c := 0; c < nCores; c++ {
		r.cores = append(r.cores, NewCore(c, cfg, hcfg.Clock, h, r.ports, logApp{log: &r.log, ports: r.ports}))
	}
	return r
}

// inject delivers one MTU frame to core's ring on port at time at.
func (r *multiRig) inject(t *testing.T, port, core int, at sim.Time, srcPort uint16) {
	t.Helper()
	f, err := pkt.Build(pkt.Spec{
		SrcIP: pkt.IPv4{1, 2, 3, 4}, DstIP: pkt.IPv4{5, 6, 7, 8},
		SrcPort: srcPort, DstPort: 9, FrameLen: 1514,
	})
	if err != nil {
		t.Fatal(err)
	}
	fields, err := pkt.Parse(f)
	if err != nil {
		t.Fatal(err)
	}
	r.fds[port].AddEPRule(fields.Tuple(), core)
	p := &pkt.Packet{Frame: f}
	n := r.ports[port]
	r.s.At(at, func(sm *sim.Simulator) { n.Receive(sm, p) })
}

func (r *multiRig) start() {
	for _, c := range r.cores {
		c.Start(r.s)
	}
}

// TestParkedCoreKeepsRoundRobinStart: every poll rotates the core's
// starting port, the elided ones included, so the first poll after a
// parked stretch starts at (polls so far) mod ports — which the batch
// order shows when every port has a packet waiting.
func TestParkedCoreKeepsRoundRobinStart(t *testing.T) {
	for _, nPorts := range []int{2, 3} {
		odd := 0
		for k := 0; k < 8; k++ {
			cfg := DefaultConfig()
			cfg.TraceCapacity = 8
			r := newMultiRig(t, cfg, nPorts, 1)
			at := sim.Time(int64(k) * int64(90*sim.Nanosecond)).Add(2 * sim.Microsecond)
			for p := 0; p < nPorts; p++ {
				r.inject(t, p, 0, at, uint16(100+p))
			}
			r.start()
			r.s.RunUntil(sim.Time(100 * sim.Microsecond))
			c := r.cores[0]
			if c.Processed != uint64(nPorts) || len(c.Trace) != nPorts {
				t.Fatalf("%d ports: processed %d traced %d", nPorts, c.Processed, len(c.Trace))
			}
			// Polls ran (or were elided) at 0, 200 ns, ... before the one
			// that found the packets at Trace[0].Start; the first, at 0,
			// was a real empty poll, the rest of them were skipped.
			woken := c.Trace[0].Start
			polls := int64(woken) / int64(cfg.PollInterval)
			if int64(woken)%int64(cfg.PollInterval) != 0 {
				t.Fatalf("woken poll at %v is off the poll grid", woken)
			}
			if (polls-1)%2 == 1 {
				odd++
			}
			want := fmt.Sprintf("core0/port%d", polls%int64(nPorts))
			if r.log[0] != want {
				t.Fatalf("%d ports, %d polls before the wake: batch starts %s, want %s (log %v)",
					nPorts, polls, r.log[0], want, r.log)
			}
		}
		if odd == 0 {
			t.Fatalf("%d ports: no case skipped an odd number of polls", nPorts)
		}
	}
}

// TestParkedCoresWakeInOriginalOrder: two cores parked together by
// their first polls at Start share a poll grid; woken in reverse order
// by a stall injected into core 1 then core 0, their next polls still
// run core 0 first, so at the stall's end core 0 serves first.
func TestParkedCoresWakeInOriginalOrder(t *testing.T) {
	r := newMultiRig(t, DefaultConfig(), 1, 2)
	r.inject(t, 0, 1, sim.Time(3*sim.Microsecond), 7)
	r.inject(t, 0, 0, sim.Time(3*sim.Microsecond).Add(500*sim.Nanosecond), 8)
	r.start()
	stallAt := sim.Time(2 * sim.Microsecond).Add(50 * sim.Nanosecond)
	r.s.At(stallAt, func(sm *sim.Simulator) {
		r.cores[1].InjectStall(sm.Now(), 4*sim.Microsecond)
		r.cores[0].InjectStall(sm.Now(), 4*sim.Microsecond)
	})
	r.s.RunUntil(sim.Time(100 * sim.Microsecond))
	if got := fmt.Sprint(r.log); got != "[core0/port0 core1/port0]" {
		t.Fatalf("service order %s, want core 0 first", got)
	}
	for i, c := range r.cores {
		// The first poll after the stall began, at 2.2 us, honoured it.
		want := stallAt.Add(4 * sim.Microsecond).Sub(sim.Time(2200 * sim.Nanosecond))
		if c.StallsTaken != 1 || c.StallTime != want {
			t.Fatalf("core %d: stalls %d time %v, want 1 and %v", i, c.StallsTaken, c.StallTime, want)
		}
	}
}

// TestStallWhileParked: a stall injected into a parked core is served
// by the next poll on its grid, exactly as a scheduled re-poll would —
// the same StallsTaken and StallTime — and packets arriving during the
// stall wait for its end.
func TestStallWhileParked(t *testing.T) {
	r := newRig(t, DefaultConfig(), 64)
	r.inject(t, sim.Time(3*sim.Microsecond), 1514, 1)
	r.core.Start(r.s)
	r.s.At(sim.Time(1050*sim.Nanosecond), func(sm *sim.Simulator) {
		r.core.InjectStall(sm.Now(), 5*sim.Microsecond)
	})
	r.s.RunUntil(sim.Time(100 * sim.Microsecond))
	if r.core.StallsTaken != 1 || r.core.StallTime != 4850*sim.Nanosecond {
		t.Fatalf("stalls %d time %v, want 1 and 4.85us (poll at 1.2us, stall until 6.05us)",
			r.core.StallsTaken, r.core.StallTime)
	}
	if r.core.Processed != 1 || r.core.FirstPacketAt != sim.Time(6050*sim.Nanosecond) {
		t.Fatalf("processed %d first at %v, want 1 at the stall's end", r.core.Processed, r.core.FirstPacketAt)
	}
}

// TestParkedPollerIsPending: an idle polling core parks its re-poll but
// still counts as one pending event, while an idle interrupt-driven
// core leaves nothing pending; neither dispatches events while idle.
func TestParkedPollerIsPending(t *testing.T) {
	for _, tc := range []struct {
		driver  Driver
		pending int
	}{{DriverPolling, 1}, {DriverInterrupt, 0}} {
		cfg := DefaultConfig()
		cfg.Driver = tc.driver
		r := newRig(t, cfg, 64)
		r.inject(t, 0, 1514, 1)
		r.core.Start(r.s)
		r.s.RunUntil(sim.Time(sim.Millisecond))
		idleFrom := r.s.Processed()
		r.s.RunUntil(sim.Time(10 * sim.Millisecond))
		if r.core.Processed != 1 || r.s.Pending() != tc.pending || r.s.Processed() != idleFrom {
			t.Fatalf("driver %d: processed %d, pending %d (want %d), %d events while idle",
				tc.driver, r.core.Processed, r.s.Pending(), tc.pending, r.s.Processed()-idleFrom)
		}
	}
}
