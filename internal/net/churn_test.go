package net

import (
	"testing"

	"idio/internal/pkt"
	"idio/internal/sim"
)

// churnHarness wires a churn client to a loopback echo through a pair
// of fast links and runs it until the horizon.
func churnHarness(t *testing.T, cfg ChurnConfig, echo func(reply *Link) Endpoint) *ChurnClient {
	t.Helper()
	s := sim.New()
	var srv endpointHolder
	up := NewLink(LinkConfig{Name: "up", RateBps: 100e9, Delay: sim.Microsecond}, &srv)
	cfg.Flow = testFlow(1514)
	c := NewChurnClient(cfg, up)
	down := NewLink(LinkConfig{Name: "down", RateBps: 100e9, Delay: sim.Microsecond}, c)
	srv.ep = echo(down)
	c.Start(s)
	s.RunUntil(sim.Time(200 * sim.Millisecond))
	return c
}

// endpointHolder lets the echo be built after the uplink (which needs
// an endpoint at construction).
type endpointHolder struct{ ep Endpoint }

func (h *endpointHolder) Receive(s *sim.Simulator, p *pkt.Packet) { h.ep.Receive(s, p) }

// TestChurnLoopback drains a lossless churn run and checks the
// conservation laws: the full budget issues and is answered, every
// arrived flow eventually departs, the wheel accounts for every
// deadline it armed, and the whole run replays bit-identically.
func TestChurnLoopback(t *testing.T) {
	run := func() (ChurnStats, sim.Time) {
		c := churnHarness(t, ChurnConfig{
			Flows: 64, Requests: 512, Think: 50 * sim.Microsecond, Seed: 5,
		}, func(reply *Link) Endpoint {
			return &echoEndpoint{reply: reply}
		})
		if !c.Done() {
			t.Fatalf("churn not drained: issued=%d resp=%d active=%d",
				c.Issued(), c.Responses(), c.Stats().ActiveFlows)
		}
		return c.Stats(), c.LastResp()
	}
	st, last := run()
	if st.Issued != 512 || st.Responses != 512 || st.Timeouts != 0 || st.Late != 0 {
		t.Fatalf("issued=%d resp=%d timeouts=%d late=%d; want 512/512/0/0",
			st.Issued, st.Responses, st.Timeouts, st.Late)
	}
	if st.Arrivals != st.Departures {
		t.Fatalf("drained run must balance arrivals (%d) and departures (%d)",
			st.Arrivals, st.Departures)
	}
	if st.Arrivals < 64 {
		t.Fatalf("arrivals %d never replaced the initial population", st.Arrivals)
	}
	if st.ActiveFlows != 0 {
		t.Fatalf("drained run left %d resident flows", st.ActiveFlows)
	}
	if st.Wheel.Fired+st.Wheel.Canceled != st.Wheel.Armed {
		t.Fatalf("wheel leaked deadlines: %+v", st.Wheel)
	}
	st2, last2 := run()
	if st != st2 || last != last2 {
		t.Fatalf("same seed diverged:\n%+v @ %v\n%+v @ %v", st, last, st2, last2)
	}
}

// dropNthEcho answers requests through reply but silently drops every
// nth one — the lossy server that forces the timeout/resend path.
type dropNthEcho struct {
	reply *Link
	n     uint64
	seen  uint64
}

func (e *dropNthEcho) Receive(s *sim.Simulator, p *pkt.Packet) {
	e.seen++
	if e.seen%e.n == 0 {
		p.Release()
		return
	}
	e.reply.Receive(s, pkt.EchoResponse(p))
}

// TestChurnTimeoutResend drops every 8th request and checks that each
// loss times out on the wheel, is resent under a fresh attempt number,
// and the run still drains with the budget fully issued.
func TestChurnTimeoutResend(t *testing.T) {
	c := churnHarness(t, ChurnConfig{
		Flows: 32, Requests: 512,
		Think: 50 * sim.Microsecond, Timeout: 200 * sim.Microsecond, Seed: 9,
	}, func(reply *Link) Endpoint {
		return &dropNthEcho{reply: reply, n: 8}
	})
	if !c.Done() {
		t.Fatalf("lossy churn not drained: issued=%d resp=%d active=%d",
			c.Issued(), c.Responses(), c.Stats().ActiveFlows)
	}
	st := c.Stats()
	if st.Issued != 512 {
		t.Fatalf("issued %d of 512 budget", st.Issued)
	}
	wantDropped := st.Issued / 8
	if st.Timeouts != wantDropped {
		t.Fatalf("timeouts %d, want one per dropped request (%d)", st.Timeouts, wantDropped)
	}
	if st.Responses != st.Issued-st.Timeouts {
		t.Fatalf("resp %d + timeouts %d != issued %d", st.Responses, st.Timeouts, st.Issued)
	}
	if st.Late != 0 {
		t.Fatalf("drops cannot produce late responses, got %d", st.Late)
	}
}

// lateEcho answers every request after the client's timeout has
// already fired — every response is superseded by a resend in flight.
type lateEcho struct {
	reply *Link
	delay sim.Duration
}

func (e *lateEcho) Receive(s *sim.Simulator, p *pkt.Packet) {
	r := pkt.EchoResponse(p)
	s.After(e.delay, func(sm *sim.Simulator) {
		e.reply.Receive(sm, r)
	})
}

// TestChurnLateResponse delays every echo past the timeout: each
// response arrives bearing a superseded attempt number and must count
// as late, never be mistaken for the resend that replaced it.
func TestChurnLateResponse(t *testing.T) {
	c := churnHarness(t, ChurnConfig{
		Flows: 8, Requests: 64,
		Think: 50 * sim.Microsecond, Timeout: 100 * sim.Microsecond, Seed: 3,
	}, func(reply *Link) Endpoint {
		return &lateEcho{reply: reply, delay: 500 * sim.Microsecond}
	})
	st := c.Stats()
	if st.Issued != 64 {
		t.Fatalf("issued %d of 64 budget", st.Issued)
	}
	if st.Late == 0 {
		t.Fatal("uniformly late echoes produced no late responses")
	}
	if st.Timeouts == 0 {
		t.Fatal("uniformly late echoes produced no timeouts")
	}
}
