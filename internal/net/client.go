package net

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"

	"idio/internal/flow"
	"idio/internal/obs"
	"idio/internal/pkt"
	"idio/internal/sim"
	"idio/internal/stats"
	"idio/internal/traffic"
)

// Mode selects how a Client offers load.
type Mode int

const (
	// ModeOpen issues requests at a fixed rate regardless of responses.
	ModeOpen Mode = iota
	// ModeClosed keeps Outstanding requests in flight: each answered or
	// abandoned request triggers the next.
	ModeClosed
	// ModeRamp sweeps the open-loop rate from RateBps to RampToBps.
	ModeRamp
)

func (m Mode) String() string {
	if names := [...]string{"open", "closed", "ramp"}; m >= 0 && int(m) < len(names) {
		return names[m]
	}
	return "unknown"
}

// RetryConfig is a client's retry discipline: a timed-out request is
// retransmitted after an exponential, deterministically jittered
// backoff up to MaxRetries times, then abandoned (Failed). A nil
// RetryConfig means MaxRetries 0.
type RetryConfig struct {
	// MaxRetries bounds retransmissions per request.
	MaxRetries int
	// Backoff is the delay before the first retry, doubling per retry
	// up to MaxBackoff; 0 means the client's Timeout, and a zero
	// MaxBackoff 8x Backoff.
	Backoff, MaxBackoff sim.Duration
	// JitterFrac scales each backoff by a factor drawn uniformly from
	// [1-JitterFrac, 1+JitterFrac); must be in [0,1).
	JitterFrac float64
	// Seed drives the jitter PRNG (distinct per client, or retries
	// phase-lock).
	Seed int64
	// Hedge, when > 0 and below the Timeout, sends one duplicate this
	// long after an unanswered original and restarts the deadline; the
	// first response wins, the loser is Late.
	Hedge sim.Duration
}

// Validate checks the retry parameters.
func (r *RetryConfig) Validate() error {
	if r == nil {
		return nil
	}
	return errors.Join(
		errIf(r.MaxRetries < 0 || r.MaxRetries >= math.MaxUint16,
			"net: retry MaxRetries %d outside [0,%d)", r.MaxRetries, math.MaxUint16),
		errIf(r.Backoff < 0, "net: retry Backoff %v must be >= 0", r.Backoff),
		errIf(r.MaxBackoff < 0, "net: retry MaxBackoff %v must be >= 0", r.MaxBackoff),
		errIf(r.JitterFrac < 0 || r.JitterFrac >= 1, "net: retry JitterFrac %v outside [0,1)", r.JitterFrac),
		errIf(r.Hedge < 0, "net: retry Hedge %v must be >= 0", r.Hedge))
}

// ClientConfig describes one RPC client.
type ClientConfig struct {
	// Flow is the request template: Src the client's address (responses
	// route back by it), Dst the server's.
	Flow traffic.Flow
	Mode Mode
	// RateBps is the offered rate for open/ramp modes; RampToBps the
	// final rate for ModeRamp.
	RateBps, RampToBps int64
	// Outstanding is the closed-loop window (ModeClosed).
	Outstanding int
	// Requests bounds the run: total requests this client issues.
	Requests uint64
	// Start delays the first request.
	Start sim.Time
	// Timeout bounds the wait per attempt; 0 means DefaultTimeout.
	Timeout sim.Duration
	// Hist, when non-nil, also records every response latency.
	Hist *stats.Histogram
	// Retry is the retry discipline; nil means no retries.
	Retry *RetryConfig
}

// ClientStats summarises one client's run.
type ClientStats struct {
	Issued, Responses uint64
	// Timeouts counts attempts that hit their deadline; Late counts
	// responses to a timed-out attempt or an answered request.
	Timeouts, Late uint64
	// Retries counts backoff retransmissions, Hedges duplicates, Failed
	// abandoned requests: Issued == Responses + Failed once done.
	Retries, Hedges, Failed uint64
	// GoodputBps is response bits/s from first send to last response.
	GoodputBps     float64
	P50, P99, P999 sim.Duration
}

// Client is one simulated client host (no cache hierarchy): an open,
// closed or ramp arrival process of requests on a request core.
type Client struct {
	core
	cfg         ClientConfig
	retry       RetryConfig // resolved defaults
	rng         *rand.Rand  // backoff jitter
	sendPacedFn sim.Event   // bound once so pacing allocates nothing
}

// NewClient builds a client sending requests into up; a malformed
// config panics here, not mid-run.
func NewClient(cfg ClientConfig, up *Link) *Client {
	if up == nil || cfg.Requests == 0 {
		panic("net: client needs an uplink and a request budget")
	}
	orDefault(&cfg.Flow.FrameLen, pkt.MTUFrameLen)
	orDefault(&cfg.Timeout, DefaultTimeout)
	tmpl := pkt.MustTemplate(cfg.Flow.Spec(0))
	switch {
	case cfg.Mode == ModeOpen && cfg.RateBps <= 0:
		panic("net: open-loop client needs RateBps")
	case cfg.Mode == ModeClosed && cfg.Outstanding <= 0:
		panic("net: closed-loop client needs Outstanding")
	case cfg.Mode == ModeRamp && (cfg.RateBps <= 0 || cfg.RampToBps <= 0):
		panic("net: ramping client needs RateBps and RampToBps")
	case cfg.Mode.String() == "unknown":
		panic(fmt.Sprintf("net: unknown client mode %d", cfg.Mode))
	}
	var r RetryConfig // a copy: the caller's may be shared
	if cfg.Retry != nil {
		if err := cfg.Retry.Validate(); err != nil {
			panic(fmt.Sprintf("net: client retry: %v", err))
		}
		r = *cfg.Retry
	}
	orDefault(&r.Backoff, cfg.Timeout)
	orDefault(&r.MaxBackoff, 8*r.Backoff)
	d := min(cfg.Timeout, sim.Duration(float64(r.Backoff)*(1-r.JitterFrac)))
	if r.Hedge >= cfg.Timeout {
		r.Hedge = 0 // the original always times out first
	} else if r.Hedge > 0 {
		d = min(d, r.Hedge)
	}
	c := &Client{cfg: cfg, retry: r, rng: rand.New(rand.NewSource(r.Seed))}
	c.core = core{onAnswer: c.answered, onFire: c.fire, up: up, tmpls: []*pkt.Template{tmpl},
		tbl: flow.New[entry](cfg.Outstanding), gran: wheelGran(d), hist: stats.NewHistogram(5),
		shared: cfg.Hist, timeout: cfg.Timeout, budget: cfg.Requests}
	return c
}

// Start schedules the first request(s) on s, the simulator of the
// client's event domain. Call once.
func (c *Client) Start(s *sim.Simulator) {
	c.start(s)
	c.sendPacedFn = c.sendPaced
	s.AtNamed(c.cfg.Start, "client-start", func(sm *sim.Simulator) {
		if c.cfg.Mode != ModeClosed {
			c.sendPaced(sm)
			return
		}
		for i := 0; i < c.cfg.Outstanding && c.issued < c.budget; i++ {
			c.issue(sm)
		}
	})
}

// gap returns the open-loop spacing before the next request (ramp mode
// interpolates the rate across the request budget).
func (c *Client) gap() sim.Duration {
	rate := c.cfg.RateBps
	if c.cfg.Mode == ModeRamp && c.cfg.Requests > 1 {
		rate = max(1, rate+int64(float64(c.cfg.RampToBps-c.cfg.RateBps)*
			float64(c.issued)/float64(c.cfg.Requests-1)))
	}
	return traffic.InterArrival(rate, c.cfg.Flow.FrameLen)
}

// sendPaced issues one open/ramp request and schedules the next.
func (c *Client) sendPaced(s *sim.Simulator) {
	c.issue(s)
	if c.issued < c.budget {
		s.After(c.gap(), c.sendPacedFn)
	}
}

// issue opens one request and sends its first attempt, whose first
// deadline is the hedge point when hedging.
func (c *Client) issue(s *sim.Simulator) {
	key := c.issued
	c.issued++
	c.tbl.Put(key, entry{left: uint32(c.retry.MaxRetries), port: [2]uint16{c.cfg.Flow.SrcPort, c.cfg.Flow.DstPort}})
	d := c.timeout
	if c.retry.Hedge > 0 {
		d = c.retry.Hedge
	}
	c.transmit(s, key, c.tbl.Ref(key), d)
}

// next keeps the closed-loop window full.
func (c *Client) next(s *sim.Simulator) {
	if c.cfg.Mode == ModeClosed && c.issued < c.budget {
		c.issue(s)
	}
}

// answered retires an answered request; with a hedge straggler still
// on the wire the entry stays until it answers (Late) or times out.
func (c *Client) answered(s *sim.Simulator, key uint64, e *entry) {
	if e.state |= answered; e.state == answered {
		c.tbl.Delete(key)
	}
	c.next(s)
}

// fire runs a request's deadline: a spent backoff retransmits, the
// hedge point sends the duplicate, and a response deadline times out
// every awaited attempt, then backs off to retry or abandons.
func (c *Client) fire(s *sim.Simulator, key uint64, e *entry) {
	switch {
	case e.state == 0:
		e.attempt++
		c.transmit(s, key, e, c.timeout)
	case e.attempt == 0 && c.retry.Hedge > 0:
		c.hedges++
		e.attempt++
		e.state |= pair
		c.transmit(s, key, e, c.timeout)
	default:
		c.timeouts += uint64(bits.OnesCount8(e.state & (awaiting | pair)))
		switch {
		case e.state&answered != 0:
			c.tbl.Delete(key)
		case e.left > 0:
			e.left--
			e.state = 0
			c.retries++
			e.timer = c.arm(c.backoff(c.retry.MaxRetries-int(e.left)), key)
		default:
			c.failed++
			c.tbl.Delete(key)
			c.next(s)
		}
	}
}

// backoff returns the jittered delay before retry n >= 1.
func (c *Client) backoff(n int) sim.Duration {
	r := &c.retry
	d := r.Backoff
	for i := 1; i < n && d < r.MaxBackoff; i++ {
		d *= 2
	}
	if d = min(d, r.MaxBackoff); r.JitterFrac > 0 {
		d = sim.Duration(float64(d) * (1 - r.JitterFrac + 2*r.JitterFrac*c.rng.Float64()))
	}
	return max(d, 1)
}

// Stats summarises the run so far.
func (c *Client) Stats() ClientStats {
	st := ClientStats{Issued: c.issued, Responses: c.resp, Timeouts: c.timeouts, Late: c.late,
		Retries: c.retries, Hedges: c.hedges, Failed: c.failed}
	st.GoodputBps, st.P50, st.P99, st.P999 = c.summary()
	return st
}

// RegisterMetrics registers the client's metrics under prefix (e.g.
// "rpc.c0.") into the observability registry.
func (c *Client) RegisterMetrics(reg *obs.Registry, prefix string) {
	c.register(reg, prefix, func() {
		reg.CounterFunc(prefix+"retries", func() uint64 { return c.retries })
		reg.CounterFunc(prefix+"hedges", func() uint64 { return c.hedges })
		reg.CounterFunc(prefix+"failed", func() uint64 { return c.failed })
	}, "p50", "p99", "p999")
}
