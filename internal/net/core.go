package net

import (
	"fmt"
	"strconv"

	"idio/internal/flow"
	"idio/internal/obs"
	"idio/internal/pkt"
	"idio/internal/sim"
	"idio/internal/stats"
)

// DefaultTimeout bounds a client's wait for a response to an attempt.
const DefaultTimeout = sim.Duration(1) * sim.Millisecond

// wheelGran derives a client's wheel tick from d, its shortest
// armable deadline: d spans eight ticks, and no tick exceeds 64 µs.
func wheelGran(d sim.Duration) sim.Duration { return max(1, min(64*sim.Microsecond, d/8)) }

// Entry state bits.
const (
	awaiting uint8 = 1 << iota // attempt `attempt` is on the wire
	pair                       // attempt-1 (a hedged original) is on the wire too
	answered                   // answered; only a hedge straggler is awaited
)

// entry is one open request (Client) or resident flow (ChurnClient):
// 32 bytes inline, no pointers. Attempt n of entry k goes on the wire
// as sequence number k<<16 | n.
type entry struct {
	sent    sim.Time        // send time of the oldest attempt still awaited
	timer   sim.TimerHandle // the entry's one armed deadline
	left    uint32          // budget left: retries (Client), requests (ChurnClient)
	attempt uint16          // newest attempt number
	port    [2]uint16       // UDP source and destination port
	class   uint8           // frame template index
	state   uint8           // awaiting | pair | answered
}

// core is the request engine every client embeds: a flow table of open
// entries, a private hashed timer wheel holding every deadline
// (timeout, backoff, hedge, think), frame stamping, response matching,
// counters, latency and goodput.
type core struct {
	// onAnswer and onFire are the arrival process: what an answer and a
	// fired deadline mean for entry e (invalid after a table change).
	onAnswer, onFire func(s *sim.Simulator, key uint64, e *entry)

	up                  *Link
	pool                *pkt.Pool
	tmpls               []*pkt.Template // one prebuilt frame per service class
	tbl                 *flow.Table[entry]
	wheel               *sim.TimerWheel
	gran                sim.Duration
	hist, shared        *stats.Histogram // own and optional cross-client histogram
	timeout             sim.Duration
	budget              uint64 // requests (Client) or transmissions (ChurnClient)
	firstSend, lastResp sim.Time
	sentAny             bool

	issued, resp, timeouts, late, retries, hedges, failed, rxBytes uint64
}

// start binds the core to s, its event domain: the uplink's packet
// pool (else a private one) and a 4096-slot timer wheel on s.
func (c *core) start(s *sim.Simulator) {
	if c.wheel != nil {
		panic("net: client already started")
	}
	if c.pool = c.up.PacketPool(); c.pool == nil {
		c.pool = pkt.NewPool(c.tmpls[0].FrameLen())
	}
	c.wheel = sim.NewTimerWheel(s, c.gran, 4096)
}

// arm sets entry key's deadline d from now.
func (c *core) arm(d sim.Duration, key uint64) sim.TimerHandle {
	return c.wheel.Arm(d, coreTimerEv, sim.Arg{Obj: c, U0: key})
}

// coreTimerEv hands a fired deadline to the arrival process (deletes
// cancel or consume the timer, so the entry exists). Arg.Obj is the
// *core, U0 the key.
func coreTimerEv(s *sim.Simulator, a sim.Arg) {
	c := a.Obj.(*core)
	c.onFire(s, a.U0, c.tbl.Ref(a.U0))
}

// transmit sends attempt e.attempt of entry key with deadline d: a pool
// packet stamped from the class template, UDP ports written in place.
func (c *core) transmit(s *sim.Simulator, key uint64, e *entry, d sim.Duration) {
	t := c.tmpls[e.class]
	p := c.pool.Get(t.FrameLen())
	t.Stamp(p, key<<16|uint64(e.attempt))
	udp := p.Frame[pkt.EthHeaderLen+pkt.IPv4HeaderLen:]
	udp[0], udp[1], udp[2], udp[3] = byte(e.port[0]>>8), byte(e.port[0]), byte(e.port[1]>>8), byte(e.port[1])
	now := s.Now()
	if !c.sentAny {
		c.sentAny, c.firstSend = true, now
	}
	if e.state&awaiting == 0 {
		e.sent = now
	}
	e.state |= awaiting
	e.timer = c.arm(d, key)
	c.up.Receive(s, p)
}

// Receive consumes one response from the fabric (implements
// Endpoint). Only an awaited attempt matches; any other response is
// Late. Latency runs from the oldest awaited attempt's send: a
// retransmission's own, a hedged request's original.
func (c *core) Receive(s *sim.Simulator, p *pkt.Packet) {
	key, att := p.Seq>>16, uint16(p.Seq)
	e := c.tbl.Ref(key)
	var bit uint8
	if e != nil && att == e.attempt {
		bit = awaiting
	} else if e != nil && att == e.attempt-1 {
		bit = pair
	}
	n := uint64(p.Len())
	p.Release()
	if e == nil || e.state&bit == 0 || e.state&answered != 0 {
		c.late++
		if e != nil && e.state&bit != 0 { // a hedge race's loser: nothing is awaited now
			c.wheel.Cancel(e.timer)
			c.tbl.Delete(key)
		}
		return
	}
	if e.state &^= bit; e.state == 0 {
		c.wheel.Cancel(e.timer)
	}
	now := s.Now()
	c.hist.Record(now.Sub(e.sent))
	if c.shared != nil {
		c.shared.Record(now.Sub(e.sent))
	}
	c.resp++
	c.rxBytes += n
	c.lastResp = now
	c.onAnswer(s, key, e)
}

// Done reports whether the budget is spent and no entry awaits a
// response, retry or timeout — the fabric idle check.
func (c *core) Done() bool { return c.issued >= c.budget && c.tbl.Len() == 0 }

// Issued returns requests (Client) or transmissions (ChurnClient) so far.
func (c *core) Issued() uint64 { return c.issued }

// Responses returns responses matched so far.
func (c *core) Responses() uint64 { return c.resp }

// RxBytes returns response bytes received (matched responses only).
func (c *core) RxBytes() uint64 { return c.rxBytes }

// FirstSend returns when the first request was sent.
func (c *core) FirstSend() sim.Time { return c.firstSend }

// LastResp returns when the last matched response arrived.
func (c *core) LastResp() sim.Time { return c.lastResp }

// Hist exposes the client's private latency histogram.
func (c *core) Hist() *stats.Histogram { return c.hist }

// summary returns goodput and p50/p99/p999 latency.
func (c *core) summary() (goodput float64, p50, p99, p999 sim.Duration) {
	if c.hist.Count() > 0 {
		p50, p99, p999 = c.hist.Quantile(0.50), c.hist.Quantile(0.99), c.hist.Quantile(0.999)
	}
	return GoodputBps(c.rxBytes, c.firstSend, c.lastResp), p50, p99, p999
}

// register registers the shared counters, then the client's own
// metrics (extra), then goodput and a pNN_us gauge per quantile name
// ("p50" is the 0.50 quantile, "p999" the 0.999).
func (c *core) register(reg *obs.Registry, prefix string, extra func(), names ...string) {
	reg.CounterFunc(prefix+"issued", func() uint64 { return c.issued })
	reg.CounterFunc(prefix+"responses", func() uint64 { return c.resp })
	reg.CounterFunc(prefix+"timeouts", func() uint64 { return c.timeouts })
	reg.CounterFunc(prefix+"late", func() uint64 { return c.late })
	extra()
	reg.GaugeFunc(prefix+"goodput_gbps", func() float64 { return GoodputBps(c.rxBytes, c.firstSend, c.lastResp) / 1e9 })
	for _, name := range names {
		q, _ := strconv.ParseFloat("0."+name[1:], 64)
		reg.GaugeFunc(prefix+name+"_us", func() float64 {
			if c.hist.Count() == 0 {
				return 0
			}
			return c.hist.Quantile(q).Microseconds()
		})
	}
}

// GoodputBps converts bytes received over a [first,last] span to bits
// per second (0 for an empty span) — the goodput definition every
// client and aggregate summary shares.
func GoodputBps(bytes uint64, first, last sim.Time) float64 {
	if last <= first {
		return 0
	}
	return float64(bytes) * 8 * float64(sim.Second) / float64(last.Sub(first))
}

// orDefault resolves a zero (or negative) config field to v.
func orDefault[T int | uint64 | float64 | sim.Duration](p *T, v T) {
	if *p <= 0 {
		*p = v
	}
}

// errIf returns the formatted error when bad holds, else nil.
func errIf(bad bool, format string, a ...any) error {
	if bad {
		return fmt.Errorf(format, a...)
	}
	return nil
}
