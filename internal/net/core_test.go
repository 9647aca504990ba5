package net

import (
	"fmt"
	"math/rand"
	"testing"
	"unsafe"

	"idio/internal/pkt"
	"idio/internal/sim"
	"idio/internal/traffic"
)

// TestEntrySize pins the flow-table value: a million-flow churn table
// holds one entry per flow, so its RSS scales with this size.
func TestEntrySize(t *testing.T) {
	if sz := unsafe.Sizeof(entry{}); sz > 32 {
		t.Fatalf("core table entry is %d bytes, want <= 32", sz)
	}
}

// lossyEcho answers requests from a shared pool: a seeded fraction is
// dropped, another fraction answered late (after delay), the rest at
// once.
type lossyEcho struct {
	reply      *Link
	pool       *pkt.Pool
	rng        *rand.Rand
	drop, slow float64
	delay      sim.Duration
}

func (e *lossyEcho) Receive(s *sim.Simulator, p *pkt.Packet) {
	u := e.rng.Float64()
	if u < e.drop {
		p.Release()
		return
	}
	r := pkt.EchoInto(e.pool.Get(len(p.Frame)), p)
	p.Release()
	if u < e.drop+e.slow {
		s.After(e.delay, func(sm *sim.Simulator) { e.reply.Receive(sm, r) })
		return
	}
	e.reply.Receive(s, r)
}

// TestCoreAccounting drives randomized clients — closed, open and ramp
// RPC with random windows, timeouts, retry budgets and hedges, and
// churn populations — through a lossy echo with uplink flaps, drains
// the simulator, and checks the request core's accounting laws:
//
//   - RPC: Issued == Responses + Failed, and the uplink was offered
//     Issued + Retries + Hedges attempts;
//   - churn: Responses == Issued - Timeouts, and the uplink was offered
//     Issued transmissions;
//   - the downlink delivered Responses + Late;
//   - the client is Done and no pooled packet is outstanding.
func TestCoreAccounting(t *testing.T) {
	var seen struct{ late, hedges, retries, failed, churnTimeouts uint64 }
	for seed := int64(1); seed <= 48; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := sim.New()
		pool := pkt.NewPool(0)
		echo := &lossyEcho{pool: pool, rng: rand.New(rand.NewSource(seed)),
			drop: 0.3 * rng.Float64(), slow: 0.2 * rng.Float64()}
		up := NewLink(LinkConfig{Name: "up", RateBps: 100e9, Delay: sim.Microsecond}, echo)
		up.SetPacketPool(pool)
		timeout := sim.Duration(5+rng.Intn(40)) * sim.Microsecond
		echo.delay = timeout + sim.Duration(rng.Intn(20))*sim.Microsecond
		flow := traffic.Flow{Src: pkt.IPv4{10, 0, 2, 1}, Dst: pkt.IPv4{10, 0, 0, 1},
			SrcPort: 7000, DstPort: 9000, FrameLen: 128}
		var (
			c     interface{ Done() bool }
			check func() string
		)
		kind := Mode(rng.Intn(4)) // 3 is churn
		if kind == 3 {
			cc := NewChurnClient(ChurnConfig{Flow: flow, Flows: 1 + rng.Intn(32), Requests: 200 + uint64(rng.Intn(200)),
				Think: sim.Duration(1+rng.Intn(50)) * sim.Microsecond, Timeout: timeout, Seed: seed}, up)
			cc.Start(s)
			c, check = cc, func() string {
				st, down := cc.Stats(), echo.reply.Stats()
				seen.late += st.Late
				seen.churnTimeouts += st.Timeouts
				return law(st.Responses == st.Issued-st.Timeouts, "responses %d != issued %d - timeouts %d", st.Responses, st.Issued, st.Timeouts) +
					law(offered(up) == st.Issued, "uplink offered %d != issued %d", offered(up), st.Issued) +
					law(down.Delivered == st.Responses+st.Late, "delivered %d != responses %d + late %d", down.Delivered, st.Responses, st.Late)
			}
		} else {
			cfg := ClientConfig{Flow: flow, Mode: kind, Requests: 100 + uint64(rng.Intn(200)), Timeout: timeout,
				Outstanding: 1 + rng.Intn(8), RateBps: traffic.Gbps(1 + 20*rng.Float64())}
			cfg.RampToBps = cfg.RateBps * int64(1+rng.Intn(3))
			if rng.Intn(4) > 0 {
				cfg.Retry = &RetryConfig{MaxRetries: rng.Intn(4), JitterFrac: 0.5 * rng.Float64(), Seed: seed,
					Backoff: sim.Duration(1+rng.Intn(20)) * sim.Microsecond}
				if rng.Intn(2) == 0 {
					cfg.Retry.Hedge = timeout / sim.Duration(2+rng.Intn(3))
				}
			}
			rc := NewClient(cfg, up)
			rc.Start(s)
			c, check = rc, func() string {
				st, down := rc.Stats(), echo.reply.Stats()
				seen.late += st.Late
				seen.hedges += st.Hedges
				seen.retries += st.Retries
				seen.failed += st.Failed
				return law(st.Issued == st.Responses+st.Failed, "issued %d != responses %d + failed %d", st.Issued, st.Responses, st.Failed) +
					law(offered(up) == st.Issued+st.Retries+st.Hedges, "uplink offered %d != issued %d + retries %d + hedges %d",
						offered(up), st.Issued, st.Retries, st.Hedges) +
					law(down.Delivered == st.Responses+st.Late, "delivered %d != responses %d + late %d", down.Delivered, st.Responses, st.Late)
			}
		}
		echo.reply = NewLink(LinkConfig{Name: "down", RateBps: 100e9, Delay: sim.Microsecond}, c.(Endpoint))
		for n := rng.Intn(4); n > 0; n-- {
			at := sim.Time(rng.Intn(500)) * sim.Time(sim.Microsecond)
			s.At(at, func(*sim.Simulator) { up.SetDown(true) })
			s.At(at+sim.Time(rng.Intn(50))*sim.Time(sim.Microsecond), func(*sim.Simulator) { up.SetDown(false) })
		}
		s.Run()
		msg := check() + law(c.Done(), "client not done") +
			law(pool.Outstanding() == 0, "%d pooled packets outstanding", pool.Outstanding())
		if msg != "" {
			t.Errorf("seed %d (kind %d): %s", seed, kind, msg)
		}
	}
	// The laws only bind if every resolution path actually ran.
	if seen.late == 0 || seen.hedges == 0 || seen.retries == 0 || seen.failed == 0 || seen.churnTimeouts == 0 {
		t.Fatalf("randomized clients missed a path: %+v", seen)
	}
	t.Logf("paths exercised: %+v", seen)
}

// law returns the formatted violation when ok is false.
func law(ok bool, format string, a ...any) string {
	if ok {
		return ""
	}
	return fmt.Sprintf(format+"; ", a...)
}

// offered counts the packets a link was offered: sent or dropped.
func offered(l *Link) uint64 {
	st := l.Stats()
	return st.TxPackets + st.TailDrops + st.DownDrops + st.AQMDrops
}
