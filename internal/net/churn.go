package net

import (
	"errors"
	"fmt"
	"math/rand"

	"idio/internal/flow"
	"idio/internal/obs"
	"idio/internal/pkt"
	"idio/internal/sim"
	"idio/internal/stats"
	"idio/internal/traffic"
)

// ChurnConfig describes a flow-churn client: Flows concurrent flows,
// each issuing a Zipf-drawn budget of requests with exponential think
// times, departing when it is spent and replaced by a fresh flow after
// an exponential arrival gap — the Poisson churn of a server's
// connection table, at a million flows with no allocation per request.
type ChurnConfig struct {
	// Flow is the base template. Flow i sends from SrcPort+i%SrcPorts
	// to DstPort+(i/SrcPorts)%DstPorts, so the NIC's RSS hash spreads
	// the tuple space across cores.
	Flow traffic.Flow
	// Flows is the target concurrent flow population.
	Flows int
	// Requests bounds the run's wire transmissions, resends included.
	Requests uint64
	// Start is when the initial population arrives; first requests
	// follow a think draw each.
	Start sim.Time
	// Timeout bounds the wait per request (0 means DefaultTimeout); a
	// timed-out request is resent at once under a new attempt number.
	Timeout sim.Duration
	// Think is the mean exponential think time between a flow's
	// requests; 0 means 1ms.
	Think sim.Duration
	// ArrivalGap is the mean exponential delay between a departure and
	// its replacement arrival; 0 means Think.
	ArrivalGap sim.Duration
	// SizeZipfS is the Zipf skew of flow budgets (> 1; 0 means 1.2).
	SizeZipfS float64
	// MiceFrac is the fraction of arrivals classed as mice (0 means
	// 0.9); mice draw budgets in [1, MiceMax] (0 means 8), elephants
	// in (MiceMax, SizeMax] (0 means 128).
	MiceFrac         float64
	MiceMax, SizeMax uint64
	// DSCPs assigns service classes round-robin by flow id; empty
	// means Flow.DSCP.
	DSCPs []uint8
	// SrcPorts and DstPorts size the port spaces (0 means 16384, 1).
	SrcPorts, DstPorts int
	// Seed drives the size/think/arrival PRNG.
	Seed int64
	// Hist, when non-nil, additionally records every response latency.
	Hist *stats.Histogram
}

// Validate checks the churn parameters.
func (c *ChurnConfig) Validate() error {
	d := c.withDefaults()
	errs := []error{
		errIf(c.Flows <= 0, "net: churn Flows %d must be > 0", c.Flows),
		errIf(c.Requests == 0, "net: churn needs a request budget"),
		errIf(c.SizeZipfS != 0 && c.SizeZipfS <= 1, "net: churn SizeZipfS %v must be > 1", c.SizeZipfS),
		errIf(c.MiceFrac < 0 || c.MiceFrac > 1, "net: churn MiceFrac %v outside [0,1]", c.MiceFrac),
		errIf(d.SizeMax <= d.MiceMax, "net: churn SizeMax %d must exceed MiceMax %d", d.SizeMax, d.MiceMax),
		errIf(c.SrcPorts < 0 || int(c.Flow.SrcPort)+d.SrcPorts > 1<<16,
			"net: churn source ports [%d,%d) overflow", c.Flow.SrcPort, int(c.Flow.SrcPort)+d.SrcPorts),
		errIf(c.DstPorts < 0 || int(c.Flow.DstPort)+d.DstPorts > 1<<16,
			"net: churn destination ports [%d,%d) overflow", c.Flow.DstPort, int(c.Flow.DstPort)+d.DstPorts),
	}
	for _, x := range c.DSCPs {
		errs = append(errs, errIf(x > 63, "net: churn DSCP %d exceeds 6 bits", x))
	}
	return errors.Join(errs...)
}

// withDefaults resolves every zero field to its documented default.
func (c ChurnConfig) withDefaults() ChurnConfig {
	orDefault(&c.Flow.FrameLen, pkt.MTUFrameLen)
	orDefault(&c.Timeout, DefaultTimeout)
	orDefault(&c.Think, sim.Millisecond)
	orDefault(&c.ArrivalGap, c.Think)
	orDefault(&c.SizeZipfS, 1.2)
	orDefault(&c.MiceFrac, 0.9)
	orDefault(&c.MiceMax, 8)
	orDefault(&c.SizeMax, 128)
	orDefault(&c.SrcPorts, 16384)
	orDefault(&c.DstPorts, 1)
	if len(c.DSCPs) == 0 {
		c.DSCPs = []uint8{c.Flow.DSCP}
	}
	return c
}

// ChurnStats summarises one churn client's run.
type ChurnStats struct {
	// Issued counts wire transmissions: Responses == Issued - Timeouts
	// once every request has resolved.
	Issued, Responses, Timeouts, Late uint64
	// Arrivals/Departures count flow lifecycle events.
	Arrivals, Departures uint64
	ActiveFlows          int
	GoodputBps           float64
	P50, P99, P999       sim.Duration
	// Wheel is the timer wheel's activity, TableLoad the flow table's.
	Wheel     sim.TimerWheelStats
	TableLoad float64
}

// ChurnClient drives the flow-churn workload into an uplink: a Poisson
// flow population on a request core, one entry per resident flow.
type ChurnClient struct {
	core
	cfg                  ChurnConfig
	nextFlow             uint64
	rng                  *rand.Rand
	miceZipf, elepZipf   *rand.Zipf // budgets 1..MiceMax, MiceMax+1..SizeMax
	arrivals, departures uint64
}

// NewChurnClient builds a churn client sending into up.
func NewChurnClient(cfg ChurnConfig, up *Link) *ChurnClient {
	if err := errors.Join(errIf(up == nil, "no uplink"), cfg.Validate()); err != nil {
		panic(fmt.Sprintf("net: churn: %v", err))
	}
	cfg = cfg.withDefaults()
	c := &ChurnClient{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
	c.core = core{onAnswer: c.answered, onFire: c.fire, up: up, tbl: flow.New[entry](cfg.Flows),
		gran: wheelGran(cfg.Timeout), hist: stats.NewHistogram(5), shared: cfg.Hist,
		timeout: cfg.Timeout, budget: cfg.Requests}
	c.miceZipf = rand.NewZipf(c.rng, cfg.SizeZipfS, 1, cfg.MiceMax-1)
	c.elepZipf = rand.NewZipf(c.rng, cfg.SizeZipfS, 1, cfg.SizeMax-cfg.MiceMax-1)
	for _, d := range cfg.DSCPs {
		fl := cfg.Flow
		fl.DSCP = d
		c.tmpls = append(c.tmpls, pkt.MustTemplate(fl.Spec(0)))
	}
	return c
}

// Start schedules the population's arrival on s, the simulator of the
// client's event domain. Call once.
func (c *ChurnClient) Start(s *sim.Simulator) {
	c.start(s)
	s.AtNamed(c.cfg.Start, "churn-start", func(sm *sim.Simulator) {
		for i := 0; i < c.cfg.Flows; i++ {
			fid := c.admit()
			c.tbl.Ref(fid).timer = c.arm(c.expDraw(c.cfg.Think), fid)
		}
	})
}

// admit inserts one idle flow — id, budget draw, ports, class — and
// returns its id.
func (c *ChurnClient) admit() uint64 {
	fid := c.nextFlow
	c.nextFlow++
	var budget uint64
	if c.rng.Float64() < c.cfg.MiceFrac {
		budget = 1 + c.miceZipf.Uint64()
	} else {
		budget = c.cfg.MiceMax + 1 + c.elepZipf.Uint64()
	}
	c.arrivals++
	sp, dp := uint64(c.cfg.SrcPorts), uint64(c.cfg.DstPorts)
	c.tbl.Put(fid, entry{left: uint32(budget), class: uint8(fid % uint64(len(c.tmpls))),
		port: [2]uint16{c.cfg.Flow.SrcPort + uint16(fid%sp), c.cfg.Flow.DstPort + uint16(fid/sp%dp)}})
	return fid
}

// expDraw returns an exponential deviate (at least 1 ps).
func (c *ChurnClient) expDraw(mean sim.Duration) sim.Duration {
	return max(1, sim.Duration(c.rng.ExpFloat64()*float64(mean)))
}

// depart removes flow fid and arms a replacement arrival.
func (c *ChurnClient) depart(fid uint64) {
	c.tbl.Delete(fid)
	c.departures++
	if c.issued < c.budget {
		c.wheel.Arm(c.expDraw(c.cfg.ArrivalGap), churnArriveEv, sim.Arg{Obj: c})
	}
}

// fire runs a flow's deadline: a response deadline counts a timeout
// and resends at once (a zero-backoff retry), a spent think time sends
// the next request; with the budget spent the flow departs instead.
func (c *ChurnClient) fire(s *sim.Simulator, fid uint64, f *entry) {
	if f.state != 0 {
		c.timeouts++
		f.state = 0
		f.attempt++
	}
	if c.issued >= c.budget {
		c.depart(fid)
		return
	}
	c.issued++ // every transmission, resends included, spends budget
	c.transmit(s, fid, f, c.timeout)
}

// answered starts the flow's think time, or departs it.
func (c *ChurnClient) answered(_ *sim.Simulator, fid uint64, f *entry) {
	f.attempt++
	if f.left--; f.left == 0 || c.issued >= c.budget {
		c.depart(fid)
		return
	}
	f.timer = c.arm(c.expDraw(c.cfg.Think), fid)
}

// churnArriveEv admits a replacement flow, which sends at once.
// Arg.Obj is the *ChurnClient.
func churnArriveEv(sm *sim.Simulator, a sim.Arg) {
	if c := a.Obj.(*ChurnClient); c.issued < c.budget {
		fid := c.admit()
		c.issued++
		c.transmit(sm, fid, c.tbl.Ref(fid), c.timeout)
	}
}

// Stats summarises the run so far.
func (c *ChurnClient) Stats() ChurnStats {
	st := ChurnStats{Issued: c.issued, Responses: c.resp, Timeouts: c.timeouts, Late: c.late,
		Arrivals: c.arrivals, Departures: c.departures, ActiveFlows: c.tbl.Len(),
		Wheel: c.wheel.Stats(), TableLoad: c.tbl.LoadFactor()}
	st.GoodputBps, st.P50, st.P99, st.P999 = c.summary()
	return st
}

// RegisterMetrics registers the client's metrics under prefix (e.g.
// "churn.c0.") into the observability registry.
func (c *ChurnClient) RegisterMetrics(reg *obs.Registry, prefix string) {
	c.register(reg, prefix, func() {
		reg.CounterFunc(prefix+"arrivals", func() uint64 { return c.arrivals })
		reg.CounterFunc(prefix+"departures", func() uint64 { return c.departures })
		reg.GaugeFunc(prefix+"active_flows", func() float64 { return float64(c.tbl.Len()) })
		reg.GaugeFunc(prefix+"table_load", c.tbl.LoadFactor)
		reg.CounterFunc(prefix+"wheel_ticks", func() uint64 { return c.wheel.Stats().Ticks })
		reg.CounterFunc(prefix+"wheel_cascades", func() uint64 { return c.wheel.Stats().Cascades })
		reg.GaugeFunc(prefix+"wheel_pending", func() float64 { return float64(c.wheel.Len()) })
	}, "p99")
}
