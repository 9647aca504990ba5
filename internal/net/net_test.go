package net

import (
	"strings"
	"testing"

	"idio/internal/pkt"
	"idio/internal/sim"
	"idio/internal/traffic"
)

// sink is a terminal endpoint counting deliveries.
type sink struct {
	n     uint64
	bytes uint64
}

func (k *sink) Receive(_ *sim.Simulator, p *pkt.Packet) {
	k.n++
	k.bytes += uint64(p.Len())
}

func testFlow(frameLen int) traffic.Flow {
	return traffic.Flow{
		Src: pkt.IPv4{10, 0, 2, 1}, Dst: pkt.IPv4{10, 0, 0, 1},
		SrcPort: 7000, DstPort: 9000, FrameLen: frameLen,
	}
}

// offer injects n back-to-back packets into the link at time zero.
func offer(t *testing.T, s *sim.Simulator, l *Link, flow traffic.Flow, n int) {
	t.Helper()
	s.At(0, func(sm *sim.Simulator) {
		for i := 0; i < n; i++ {
			p, err := flow.Packet(uint64(i))
			if err != nil {
				t.Fatalf("packet: %v", err)
			}
			l.Receive(sm, p)
		}
	})
}

// TestLinkConservation checks the fabric's packet-conservation
// invariant: every offered packet is exactly one of accepted
// (TxPackets) or dropped (tail/down), and after the fabric drains
// every accepted packet was delivered.
func TestLinkConservation(t *testing.T) {
	const offered = 100
	s := sim.New()
	dst := &sink{}
	l := NewLink(LinkConfig{Name: "t", RateBps: 10e9, Delay: sim.Microsecond, QueueDepth: 16}, dst)
	offer(t, s, l, testFlow(1514), offered)
	s.RunUntil(sim.Time(10 * sim.Millisecond))

	st := l.Stats()
	if st.TailDrops == 0 {
		t.Fatalf("expected tail drops with 16-deep queue and 100 back-to-back packets, got 0")
	}
	if got := st.TxPackets + st.TailDrops + st.DownDrops; got != offered {
		t.Fatalf("conservation: tx %d + tail %d + down %d = %d, want %d",
			st.TxPackets, st.TailDrops, st.DownDrops, got, offered)
	}
	if st.Delivered != st.TxPackets {
		t.Fatalf("drained link delivered %d of %d accepted", st.Delivered, st.TxPackets)
	}
	if dst.n != st.Delivered {
		t.Fatalf("sink saw %d, link says delivered %d", dst.n, st.Delivered)
	}
	if l.InFlight() != 0 {
		t.Fatalf("drained link reports %d in flight", l.InFlight())
	}
	if st.QueueHighWater != 16 {
		t.Fatalf("queue high-water %d, want the 16-packet bound", st.QueueHighWater)
	}
}

// TestLinkDownDrops checks that a downed link loses offered packets
// without breaking conservation, and recovers when raised.
func TestLinkDownDrops(t *testing.T) {
	s := sim.New()
	dst := &sink{}
	l := NewLink(LinkConfig{Name: "t", RateBps: 100e9}, dst)
	flow := testFlow(1514)
	s.At(0, func(sm *sim.Simulator) {
		l.SetDown(true)
		for i := 0; i < 5; i++ {
			p, _ := flow.Packet(uint64(i))
			l.Receive(sm, p)
		}
		l.SetDown(false)
		p, _ := flow.Packet(5)
		l.Receive(sm, p)
	})
	s.RunUntil(sim.Time(sim.Millisecond))
	st := l.Stats()
	if st.DownDrops != 5 || st.TxPackets != 1 || st.Delivered != 1 || dst.n != 1 {
		t.Fatalf("down=%d tx=%d delivered=%d sink=%d; want 5/1/1/1",
			st.DownDrops, st.TxPackets, st.Delivered, dst.n)
	}
}

// TestLinkRateDegradation checks that SetRateFactor stretches
// serialization time: the same burst takes proportionally longer to
// drain at a quarter of the rate.
func TestLinkRateDegradation(t *testing.T) {
	drainAt := func(factor float64) sim.Duration {
		s := sim.New()
		dst := &sink{}
		l := NewLink(LinkConfig{Name: "t", RateBps: 10e9, QueueDepth: 64}, dst)
		l.SetRateFactor(factor)
		offer(t, s, l, testFlow(1514), 32)
		s.RunUntil(sim.Time(10 * sim.Millisecond))
		if dst.n != 32 {
			t.Fatalf("factor %v: delivered %d of 32", factor, dst.n)
		}
		return l.Stats().BusyTime
	}
	full, quarter := drainAt(1), drainAt(0.25)
	if quarter != 4*full {
		t.Fatalf("busy time at 1/4 rate: %v, want 4x the full-rate %v", quarter, full)
	}
}

// TestSwitchRouting checks destination-IP forwarding and the graceful
// handling of unroutable and undecodable frames.
func TestSwitchRouting(t *testing.T) {
	s := sim.New()
	a, b := &sink{}, &sink{}
	sw := NewSwitch("sw0")
	pa := sw.AddPort(NewLink(LinkConfig{Name: "a", RateBps: 100e9}, a))
	pb := sw.AddPort(NewLink(LinkConfig{Name: "b", RateBps: 100e9}, b))
	ipA, ipB := pkt.IPv4{10, 0, 2, 1}, pkt.IPv4{10, 0, 2, 2}
	sw.Route(ipA, pa)
	sw.Route(ipB, pb)

	flowTo := func(ip pkt.IPv4) traffic.Flow {
		f := testFlow(256)
		f.Dst = ip
		return f
	}
	s.At(0, func(sm *sim.Simulator) {
		for i := 0; i < 3; i++ {
			p, _ := flowTo(ipA).Packet(uint64(i))
			sw.Receive(sm, p)
		}
		p, _ := flowTo(ipB).Packet(3)
		sw.Receive(sm, p)
		p, _ = flowTo(pkt.IPv4{192, 168, 0, 1}).Packet(4)
		sw.Receive(sm, p)
		sw.Receive(sm, &pkt.Packet{Frame: make([]byte, 8), Seq: 5})
	})
	s.RunUntil(sim.Time(sim.Millisecond))

	st := sw.Stats()
	if st.Forwarded != 4 || st.NoRoute != 1 || st.ParseDrops != 1 {
		t.Fatalf("forwarded=%d noroute=%d parse=%d; want 4/1/1", st.Forwarded, st.NoRoute, st.ParseDrops)
	}
	if a.n != 3 || b.n != 1 {
		t.Fatalf("port deliveries a=%d b=%d; want 3/1", a.n, b.n)
	}
}

// echoEndpoint bounces every request back as its response through a
// reply link — a one-packet-deep stand-in for the DUT.
type echoEndpoint struct{ reply *Link }

func (e *echoEndpoint) Receive(s *sim.Simulator, p *pkt.Packet) {
	e.reply.Receive(s, pkt.EchoResponse(p))
}

// TestClientClosedLoop runs a closed-loop client against a loopback
// echo and checks the window mechanics: the full budget issues, every
// request is answered, and the run is deterministic.
func TestClientClosedLoop(t *testing.T) {
	run := func() (ClientStats, sim.Time) {
		s := sim.New()
		echo := &echoEndpoint{}
		up := NewLink(LinkConfig{Name: "up", RateBps: 100e9, Delay: sim.Microsecond}, echo)
		c := NewClient(ClientConfig{
			Flow: testFlow(1514), Mode: ModeClosed, Outstanding: 4, Requests: 256,
		}, up)
		echo.reply = NewLink(LinkConfig{Name: "down", RateBps: 100e9, Delay: sim.Microsecond}, c)
		c.Start(s)
		s.RunUntil(sim.Time(100 * sim.Millisecond))
		if !c.Done() {
			t.Fatalf("client not done: issued=%d inflight=%d", c.Issued(), c.Issued()-c.Responses())
		}
		return c.Stats(), c.LastResp()
	}
	st, last := run()
	if st.Issued != 256 || st.Responses != 256 || st.Timeouts != 0 || st.Late != 0 {
		t.Fatalf("issued=%d resp=%d timeouts=%d late=%d; want 256/256/0/0",
			st.Issued, st.Responses, st.Timeouts, st.Late)
	}
	if st.GoodputBps <= 0 || st.P50 <= 0 || st.P999 < st.P50 {
		t.Fatalf("degenerate latency summary: goodput=%v p50=%v p999=%v", st.GoodputBps, st.P50, st.P999)
	}
	st2, last2 := run()
	if st != st2 || last != last2 {
		t.Fatalf("closed-loop replay diverged:\n  %+v @%v\n  %+v @%v", st, last, st2, last2)
	}
}

// TestClientTimeoutReissue checks that a lossy fabric cannot deadlock
// the closed loop: requests dropped by a downed link time out and the
// window slot reissues until the budget completes.
func TestClientTimeoutReissue(t *testing.T) {
	s := sim.New()
	echo := &echoEndpoint{}
	up := NewLink(LinkConfig{Name: "up", RateBps: 100e9}, echo)
	c := NewClient(ClientConfig{
		Flow: testFlow(1514), Mode: ModeClosed, Outstanding: 2, Requests: 8,
		Timeout: 10 * sim.Microsecond,
	}, up)
	echo.reply = NewLink(LinkConfig{Name: "down", RateBps: 100e9}, c)
	// Drop the first window: the link is down until after both initial
	// requests are offered.
	s.At(0, func(*sim.Simulator) { up.SetDown(true) })
	s.At(sim.Time(sim.Microsecond), func(*sim.Simulator) { up.SetDown(false) })
	c.Start(s)
	s.RunUntil(sim.Time(10 * sim.Millisecond))

	st := c.Stats()
	if !c.Done() {
		t.Fatalf("client not done after timeouts: %+v", st)
	}
	if st.Timeouts != 2 {
		t.Fatalf("timeouts=%d, want 2 (the dropped first window)", st.Timeouts)
	}
	// The budget counts issues, so the 2 dropped requests are spent:
	// 8 issued, 6 answered.
	if st.Issued != 8 || st.Responses != 6 {
		t.Fatalf("issued=%d responses=%d, want 8 issued / 6 answered", st.Issued, st.Responses)
	}
	if up.Stats().DownDrops != 2 {
		t.Fatalf("uplink down drops=%d, want 2", up.Stats().DownDrops)
	}
}

// TestOpenLoopPacing checks that an open-loop client offers at its
// configured rate independent of responses.
func TestOpenLoopPacing(t *testing.T) {
	s := sim.New()
	echo := &echoEndpoint{}
	up := NewLink(LinkConfig{Name: "up", RateBps: 100e9}, echo)
	c := NewClient(ClientConfig{
		Flow: testFlow(1514), Mode: ModeOpen, RateBps: traffic.Gbps(10), Requests: 100,
	}, up)
	echo.reply = NewLink(LinkConfig{Name: "down", RateBps: 100e9}, c)
	c.Start(s)
	// 100 MTU frames at 10 Gbps ≈ 121 us of inter-arrival spacing.
	s.RunUntil(sim.Time(60 * sim.Microsecond))
	if got := c.Issued(); got < 45 || got > 55 {
		t.Fatalf("issued %d after half the span, want about 50", got)
	}
	s.RunUntil(sim.Time(10 * sim.Millisecond))
	if c.Issued() != 100 || c.Responses() != 100 {
		t.Fatalf("issued=%d resp=%d, want 100/100", c.Issued(), c.Responses())
	}
}

// paceInto injects n packets into the link at a fixed inter-arrival
// gap starting at time zero — sustained offered load, unlike offer's
// single-instant burst (CoDel needs the queue excursion to persist
// across wall time before it sheds).
func paceInto(t *testing.T, s *sim.Simulator, l *Link, flow traffic.Flow, n int, gap sim.Duration) {
	t.Helper()
	var i int
	var tick sim.Event
	tick = func(sm *sim.Simulator) {
		p, err := flow.Packet(uint64(i))
		if err != nil {
			t.Fatalf("packet: %v", err)
		}
		l.Receive(sm, p)
		if i++; i < n {
			sm.After(gap, tick)
		}
	}
	s.At(0, tick)
}

// TestLinkAQMSheds checks the CoDel-style manager: offered load
// slightly above service rate builds a standing queue, the sojourn
// excursion persists past the interval, and the link sheds via
// AQMDrops long before the tail would — with packet conservation
// extended to the new drop class.
func TestLinkAQMSheds(t *testing.T) {
	const offered = 400
	s := sim.New()
	dst := &sink{}
	// 1514B at 10 Gbps serializes in ~1.21us; a 1us arrival gap grows
	// the backlog ~0.21us per packet, crossing the 5us target around
	// packet 24 and persisting from then on.
	l := NewLink(LinkConfig{
		Name: "t", RateBps: 10e9, QueueDepth: 1024,
		AQMTarget: 5 * sim.Microsecond, AQMInterval: 20 * sim.Microsecond,
	}, dst)
	paceInto(t, s, l, testFlow(1514), offered, sim.Microsecond)
	s.RunUntil(sim.Time(10 * sim.Millisecond))

	st := l.Stats()
	if st.AQMDrops == 0 {
		t.Fatal("standing queue above target never shed via AQM")
	}
	if st.TailDrops != 0 {
		t.Fatalf("AQM should shed before the 1024-deep tail: %d tail drops", st.TailDrops)
	}
	if got := st.TxPackets + st.TailDrops + st.DownDrops + st.AQMDrops; got != offered {
		t.Fatalf("conservation: tx %d + tail %d + down %d + aqm %d = %d, want %d",
			st.TxPackets, st.TailDrops, st.DownDrops, st.AQMDrops, got, offered)
	}
	if st.Delivered != st.TxPackets || dst.n != st.Delivered {
		t.Fatalf("delivered %d of %d accepted (sink saw %d)", st.Delivered, st.TxPackets, dst.n)
	}
}

// TestLinkAQMBelowTargetPasses: the same AQM config under load the
// link can absorb (sojourn stays under target) sheds nothing — the
// manager only acts on persistent standing queues.
func TestLinkAQMBelowTargetPasses(t *testing.T) {
	s := sim.New()
	dst := &sink{}
	l := NewLink(LinkConfig{
		Name: "t", RateBps: 10e9, QueueDepth: 1024,
		AQMTarget: 5 * sim.Microsecond, AQMInterval: 20 * sim.Microsecond,
	}, dst)
	// 2us gap > 1.21us service time: the queue never builds.
	paceInto(t, s, l, testFlow(1514), 200, 2*sim.Microsecond)
	s.RunUntil(sim.Time(10 * sim.Millisecond))
	st := l.Stats()
	if st.AQMDrops != 0 {
		t.Fatalf("%d AQM drops with no standing queue", st.AQMDrops)
	}
	if dst.n != 200 {
		t.Fatalf("delivered %d of 200", dst.n)
	}
}

// TestRetryConfigValidate covers every retry parameter bound.
func TestRetryConfigValidate(t *testing.T) {
	var nilCfg *RetryConfig
	if err := nilCfg.Validate(); err != nil {
		t.Fatalf("nil retry config: %v", err)
	}
	if err := (&RetryConfig{MaxRetries: 3, Backoff: sim.Microsecond, JitterFrac: 0.5}).Validate(); err != nil {
		t.Fatalf("valid retry config rejected: %v", err)
	}
	cases := []struct {
		name   string
		cfg    RetryConfig
		substr string
	}{
		{"negative retries", RetryConfig{MaxRetries: -1}, "MaxRetries"},
		{"negative backoff", RetryConfig{Backoff: -1}, "Backoff"},
		{"negative max backoff", RetryConfig{MaxBackoff: -1}, "MaxBackoff"},
		{"jitter >= 1", RetryConfig{JitterFrac: 1}, "JitterFrac"},
		{"negative jitter", RetryConfig{JitterFrac: -0.1}, "JitterFrac"},
		{"negative hedge", RetryConfig{Hedge: -1}, "Hedge"},
	}
	for _, tc := range cases {
		err := tc.cfg.Validate()
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.substr) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.substr)
		}
	}
}

// TestClientRetryBackoff: with a retry discipline, requests dropped by
// a transiently-down link are retransmitted (not abandoned as with no
// retry budget), so the full budget completes with Responses
// == Requests — and the run replays bit-identically.
func TestClientRetryBackoff(t *testing.T) {
	run := func() ClientStats {
		s := sim.New()
		echo := &echoEndpoint{}
		up := NewLink(LinkConfig{Name: "up", RateBps: 100e9}, echo)
		c := NewClient(ClientConfig{
			Flow: testFlow(1514), Mode: ModeClosed, Outstanding: 2, Requests: 8,
			Timeout: 10 * sim.Microsecond,
			Retry:   &RetryConfig{MaxRetries: 3, Backoff: 5 * sim.Microsecond, Seed: 1},
		}, up)
		echo.reply = NewLink(LinkConfig{Name: "down", RateBps: 100e9}, c)
		// Drop the first window: both initial requests are lost.
		s.At(0, func(*sim.Simulator) { up.SetDown(true) })
		s.At(sim.Time(sim.Microsecond), func(*sim.Simulator) { up.SetDown(false) })
		c.Start(s)
		s.RunUntil(sim.Time(10 * sim.Millisecond))
		if !c.Done() {
			t.Fatalf("client not done: %+v", c.Stats())
		}
		return c.Stats()
	}
	st := run()
	if st.Timeouts != 2 || st.Retries != 2 {
		t.Fatalf("timeouts=%d retries=%d, want 2/2 (one retransmission per dropped request)",
			st.Timeouts, st.Retries)
	}
	// The retransmissions recover the dropped requests: unlike a client
	// without retries (8 issued / 6 answered), every request is answered.
	if st.Issued != 8 || st.Responses != 8 || st.Failed != 0 || st.Late != 0 {
		t.Fatalf("issued=%d resp=%d failed=%d late=%d; want 8/8/0/0",
			st.Issued, st.Responses, st.Failed, st.Late)
	}
	if st2 := run(); st != st2 {
		t.Fatalf("retry replay diverged:\n  %+v\n  %+v", st, st2)
	}
}

// TestClientRetryBudgetExhausted: against a dead fabric every request
// spends its retry budget and is abandoned as Failed; the closed loop
// never deadlocks and the client drains to Done.
func TestClientRetryBudgetExhausted(t *testing.T) {
	s := sim.New()
	echo := &echoEndpoint{}
	up := NewLink(LinkConfig{Name: "up", RateBps: 100e9}, echo)
	c := NewClient(ClientConfig{
		Flow: testFlow(1514), Mode: ModeClosed, Outstanding: 2, Requests: 4,
		Timeout: 10 * sim.Microsecond,
		Retry:   &RetryConfig{MaxRetries: 1, Backoff: 5 * sim.Microsecond, Seed: 1},
	}, up)
	echo.reply = NewLink(LinkConfig{Name: "down", RateBps: 100e9}, c)
	s.At(0, func(*sim.Simulator) { up.SetDown(true) })
	c.Start(s)
	s.RunUntil(sim.Time(10 * sim.Millisecond))

	st := c.Stats()
	if !c.Done() {
		t.Fatalf("client wedged on a dead fabric: %+v", st)
	}
	// Each of the 4 requests: original + 1 retry, both time out.
	if st.Issued != 4 || st.Responses != 0 || st.Failed != 4 {
		t.Fatalf("issued=%d resp=%d failed=%d; want 4/0/4", st.Issued, st.Responses, st.Failed)
	}
	if st.Retries != 4 || st.Timeouts != 8 {
		t.Fatalf("retries=%d timeouts=%d; want 4/8", st.Retries, st.Timeouts)
	}
	if got := up.Stats().DownDrops; got != 8 {
		t.Fatalf("uplink swallowed %d attempts, want 8", got)
	}
}

// dropFirst swallows the first request it sees and echoes the rest —
// a server that loses exactly one request.
type dropFirst struct {
	reply   *Link
	dropped bool
}

func (d *dropFirst) Receive(s *sim.Simulator, p *pkt.Packet) {
	if !d.dropped {
		d.dropped = true
		p.Release()
		return
	}
	d.reply.Receive(s, pkt.EchoResponse(p))
}

// TestClientHedge: a hedged client covers a lost request with the
// speculative duplicate before the timeout fires, so the request
// completes without a retry; requests answered before the hedge delay
// send no duplicate.
func TestClientHedge(t *testing.T) {
	s := sim.New()
	srv := &dropFirst{}
	up := NewLink(LinkConfig{Name: "up", RateBps: 100e9, Delay: sim.Microsecond}, srv)
	c := NewClient(ClientConfig{
		Flow: testFlow(1514), Mode: ModeClosed, Outstanding: 1, Requests: 4,
		Timeout: 20 * sim.Microsecond,
		Retry: &RetryConfig{
			MaxRetries: 3, Backoff: 50 * sim.Microsecond, Seed: 1,
			Hedge: 5 * sim.Microsecond,
		},
	}, up)
	srv.reply = NewLink(LinkConfig{Name: "down", RateBps: 100e9, Delay: sim.Microsecond}, c)
	c.Start(s)
	s.RunUntil(sim.Time(10 * sim.Millisecond))

	st := c.Stats()
	if !c.Done() {
		t.Fatalf("client not done: %+v", st)
	}
	// Request 0's original was eaten; its hedge answered. Requests 1-3
	// complete in ~4.5us RTT, under the 5us hedge delay, so no further
	// duplicates go out.
	if st.Hedges != 1 {
		t.Fatalf("hedges=%d, want exactly 1 (the lost request's cover)", st.Hedges)
	}
	if st.Issued != 4 || st.Responses != 4 || st.Retries != 0 || st.Failed != 0 {
		t.Fatalf("issued=%d resp=%d retries=%d failed=%d; want 4/4/0/0",
			st.Issued, st.Responses, st.Retries, st.Failed)
	}
	// The eaten original still hit its timeout after the hedge had
	// already answered; that must not double-account the request.
	if st.Timeouts != 1 || st.Late != 0 {
		t.Fatalf("timeouts=%d late=%d; want 1/0", st.Timeouts, st.Late)
	}
}

// slowFirst delays the first response past the client's timeout and
// echoes the rest promptly — the retransmission-ambiguity scenario
// Karn's rule exists for.
type slowFirst struct {
	reply *Link
	delay sim.Duration
	seen  bool
}

func (e *slowFirst) Receive(s *sim.Simulator, p *pkt.Packet) {
	r := pkt.EchoResponse(p)
	if !e.seen {
		e.seen = true
		s.After(e.delay, func(sm *sim.Simulator) { e.reply.Receive(sm, r) })
		return
	}
	e.reply.Receive(s, r)
}

// TestClientKarnLateResponse: a response that arrives after its
// attempt timed out (the retry already answered) is counted Late and
// released, never recorded as a latency sample — per-attempt wire
// sequence numbers make the match unambiguous.
func TestClientKarnLateResponse(t *testing.T) {
	s := sim.New()
	srv := &slowFirst{delay: 50 * sim.Microsecond}
	up := NewLink(LinkConfig{Name: "up", RateBps: 100e9}, srv)
	c := NewClient(ClientConfig{
		Flow: testFlow(1514), Mode: ModeClosed, Outstanding: 1, Requests: 4,
		Timeout: 10 * sim.Microsecond,
		Retry:   &RetryConfig{MaxRetries: 3, Backoff: 5 * sim.Microsecond, Seed: 1},
	}, up)
	srv.reply = NewLink(LinkConfig{Name: "down", RateBps: 100e9}, c)
	c.Start(s)
	s.RunUntil(sim.Time(10 * sim.Millisecond))

	st := c.Stats()
	if !c.Done() {
		t.Fatalf("client not done: %+v", st)
	}
	// Request 0: original delayed past the timeout, retry answered
	// promptly, the stale response surfaced later as Late.
	if st.Timeouts != 1 || st.Retries != 1 || st.Late != 1 {
		t.Fatalf("timeouts=%d retries=%d late=%d; want 1/1/1", st.Timeouts, st.Retries, st.Late)
	}
	if st.Issued != 4 || st.Responses != 4 || st.Failed != 0 {
		t.Fatalf("issued=%d resp=%d failed=%d; want 4/4/0", st.Issued, st.Responses, st.Failed)
	}
	// Karn's rule: the sample comes from the retry's own send time
	// (~2.5us RTT), never the original's 50us round trip.
	if st.P999 >= 40*sim.Microsecond {
		t.Fatalf("p999 %v polluted by the superseded attempt's round trip", st.P999)
	}
}
