package main

import (
	"fmt"
	"math/rand"
	"strings"

	"idio"
	"idio/internal/apps"
	idiocore "idio/internal/core"
	fnet "idio/internal/net"
	"idio/internal/sim"
	"idio/internal/traffic"
)

// unbounded is the budget of instances that are never drained: larger
// than any run can consume, so it never changes their behaviour.
const unbounded = uint64(1) << 40

// workload describes one benchmark input: how to build it and how its
// simulated time is cut into steps.
type workload struct {
	name string
	// step is the simulated time one step advances; period is how many
	// steps one traffic period spans (throughput takes medians per step
	// position within a period).
	step   sim.Duration
	period int
	// stepsPerSecond sets the timed step count of a run: --seconds
	// times this many. It is fixed, not measured, so both sides of an
	// A/B comparison simulate the same work. On the 2-vCPU Xeon VM the
	// values were set on, the timed steps took 0.5-2x --seconds as the
	// host's load varied.
	stepsPerSecond float64
	// warmup steps run before anything is measured; digest steps after
	// them end at the fixed point where the stats dump is hashed and
	// the per-layer simulated counters are differenced.
	warmup int
	digest int
	// slack is the share of extra budget on top of what the
	// timed steps use, so the budget always outlasts them.
	slack float64
	// setups is how many times a run sets the workload up (at least 2:
	// the reference copy and the timed one); setup_s is their median.
	setups int
	// ref names the workload whose digest this one must reproduce at
	// the same seed ("" for none).
	ref string
	// newInstance returns an unbuilt instance for a seed.
	newInstance func(seed int64) instance
}

// instance is one built copy of a workload. The driver calls build,
// attach and start once each, in that order, then advance repeatedly.
type instance interface {
	build() error
	// attach installs the apps and traffic sources; budget bounds the
	// work they offer, in the units consumed reports.
	attach(budget uint64)
	start()
	// advance runs the simulation to the given instant.
	advance(to sim.Time) error
	// rx is the DUT NIC's received packet count so far.
	rx() uint64
	// consumed is the budget used so far.
	consumed() uint64
	// pending is the number of scheduled events plus handoffs parked
	// between event domains.
	pending() int
	// results collects one Results per simulated host, tagged with its
	// placement policy.
	results() []hostResults
	// events is the number of events dispatched so far, summed over
	// every simulator.
	events(rs []hostResults) uint64
	// drained reports whether the budget is spent and no work is left
	// in flight, so the end-of-run invariants must hold.
	drained() bool
	// check verifies the end-of-run invariants.
	check(c *checker, rs []hostResults)
}

// hostResults is one host's collected results with its policy.
type hostResults struct {
	policy idiocore.Policy
	res    idio.Results
}

var workloads = []workload{
	{
		name: "host_burst", step: 200 * sim.Microsecond, period: 50, stepsPerSecond: 640,
		warmup: 100, digest: 50, slack: 0, setups: 5,
		newInstance: func(seed int64) instance { return &hostBurst{seed: seed} },
	},
	{
		name: "fabric_rpc", step: 100 * sim.Microsecond, period: 1, stepsPerSecond: 500,
		warmup: 20, digest: 50, slack: 0.1, setups: 5,
		newInstance: func(seed int64) instance { return &fabric{seed: seed, shards: 1} },
	},
	{
		name: "churn_1m", step: 500 * sim.Microsecond, period: 1, stepsPerSecond: 300,
		warmup: 10, digest: 20, slack: 0.1, setups: 3,
		newInstance: func(seed int64) instance { return &churn{seed: seed} },
	},
	{
		name: "fabric_sharded", step: 100 * sim.Microsecond, period: 1, stepsPerSecond: 200,
		warmup: 20, digest: 50, slack: 0.1, setups: 5, ref: "fabric_rpc",
		newInstance: func(seed int64) instance { return &fabric{seed: seed, shards: 2} },
	},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// watchdog arms the simulator's no-progress and event-storm detector,
// so a stuck or runaway run fails a check instead of hanging.
func watchdog() *sim.WatchdogConfig {
	wd := sim.DefaultWatchdogConfig()
	return &wd
}

// --- host_burst -------------------------------------------------------

// Burst shape: every NF receives one ring-size burst of MTU frames at
// 100 Gbps each 10 ms period (the paper's burst experiments).
const (
	burstCores   = 2
	burstRing    = 1024
	burstRateBps = 100e9
	burstPeriod  = 10 * sim.Millisecond
	// burstJitter bounds the seeded offset of each burst's start.
	burstJitter = sim.Microsecond
)

// hostBurst is one 2-core host built twice from identical config,
// once under DDIO and once under IDIO, stepped in lockstep on
// identical bursts.
type hostBurst struct {
	seed    int64
	rng     *rand.Rand
	systems []*idio.System
	flows   []traffic.Flow
	// budget and bursts count burst periods: each installs one burst
	// per NF on each system.
	budget uint64
	bursts uint64
	// lastBurst is when the most recent burst period began.
	lastBurst sim.Time
	sent      uint64 // packets installed per system
}

func (h *hostBurst) build() error {
	h.rng = rand.New(rand.NewSource(h.seed))
	for _, pol := range []idiocore.Policy{idiocore.PolicyDDIO, idiocore.PolicyIDIO} {
		cfg := idio.DefaultConfig(burstCores)
		cfg.Policy = pol
		cfg.NIC.RingSize = burstRing
		cfg.Watchdog = watchdog()
		s, err := idio.NewSystemE(cfg)
		if err != nil {
			return err
		}
		h.systems = append(h.systems, s)
	}
	// Seeded source ports: each seed offers a different tuple set.
	base := uint16(5000 + h.rng.Intn(20000))
	for c := 0; c < burstCores; c++ {
		f := h.systems[0].DefaultFlow(c)
		f.SrcPort = base + uint16(c)
		h.flows = append(h.flows, f)
	}
	return nil
}

func (h *hostBurst) attach(budget uint64) {
	h.budget = budget
	for _, s := range h.systems {
		for c, f := range h.flows {
			s.AddNF(c, apps.TouchDrop{}, f)
		}
	}
}

func (h *hostBurst) start() {
	for _, s := range h.systems {
		s.Start()
	}
}

func (h *hostBurst) advance(to sim.Time) error {
	now := h.systems[0].Sim.Now()
	if now%sim.Time(burstPeriod) == 0 && h.bursts < h.budget {
		// Both systems see the same burst: same start, same frames.
		at := now + sim.Time(h.rng.Int63n(int64(burstJitter)))
		for _, s := range h.systems {
			for _, f := range h.flows {
				traffic.Bursty{
					Flow: f, BurstRateBps: burstRateBps, Period: burstPeriod,
					PacketsPerBurst: burstRing, NumBursts: 1, Start: at,
				}.Install(s.Sim, s.NIC)
			}
		}
		h.bursts++
		h.lastBurst = now
		h.sent += uint64(len(h.flows) * burstRing)
	}
	for _, s := range h.systems {
		s.Sim.RunUntil(to)
		if err := s.Err(); err != nil {
			return fmt.Errorf("%v: %w", s.Cfg.Policy, err)
		}
	}
	return nil
}

func (h *hostBurst) rx() uint64 {
	var n uint64
	for _, s := range h.systems {
		n += s.NIC.Stats().RxPackets
	}
	return n
}

func (h *hostBurst) consumed() uint64 { return h.bursts }

func (h *hostBurst) pending() int {
	n := 0
	for _, s := range h.systems {
		n += s.Sim.Pending()
	}
	return n
}

func (h *hostBurst) results() []hostResults {
	var rs []hostResults
	for _, s := range h.systems {
		rs = append(rs, hostResults{policy: s.Cfg.Policy, res: s.Collect()})
	}
	return rs
}

func (h *hostBurst) events([]hostResults) uint64 {
	var n uint64
	for _, s := range h.systems {
		n += s.Sim.Processed()
	}
	return n
}

func (h *hostBurst) drained() bool {
	if h.bursts < h.budget {
		return false
	}
	for _, s := range h.systems {
		if s.Sim.Now() < h.lastBurst+sim.Time(burstPeriod) || !ringsEmpty(s) {
			return false
		}
	}
	return true
}

func (h *hostBurst) check(c *checker, rs []hostResults) {
	for i, s := range h.systems {
		r := rs[i].res
		name := s.Cfg.Policy.Name()
		c.noError(name+".watchdog", s.Err())
		c.expect(name+".pool_outstanding", r.PktPool.Outstanding == 0,
			"outstanding=%d", r.PktPool.Outstanding)
		c.expect(name+".rx_conserved", r.NIC.RxPackets+r.NIC.RxDrops == h.sent,
			"rx=%d drops=%d sent=%d", r.NIC.RxPackets, r.NIC.RxDrops, h.sent)
		c.expect(name+".all_processed", r.TotalProcessed() == r.NIC.RxPackets,
			"processed=%d rx=%d", r.TotalProcessed(), r.NIC.RxPackets)
	}
}

func ringsEmpty(s *idio.System) bool {
	for _, port := range s.Ports() {
		for q := 0; q < s.Cfg.NIC.NumQueues; q++ {
			if port.Ring(q).Occupancy() != 0 {
				return false
			}
		}
	}
	return true
}

// --- fabric_rpc / fabric_sharded ---------------------------------------

// RPC fabric shape: 32 closed-loop clients with 16 requests each in
// flight, 128 B frames, 10 us links, backoff retries and a 2 ms
// per-event timeout, served by L2Fwd on a 2-core DDIO DUT.
const (
	rpcCores       = 2
	rpcClients     = 32
	rpcOutstanding = 16
	rpcFrame       = 128
	rpcLinkDelay   = 10 * sim.Microsecond
	rpcTimeout     = 2 * sim.Millisecond
	rpcMaxRetries  = 4
	// rpcStartJitter bounds each client's seeded start offset.
	rpcStartJitter = 2 * sim.Microsecond
)

type fabric struct {
	seed   int64
	shards int
	cl     *idio.Cluster
}

func (f *fabric) build() error {
	cc := idio.DefaultClusterConfig(rpcCores, rpcClients)
	cc.ClientLink.Delay = rpcLinkDelay
	cc.ServerLink.Delay = rpcLinkDelay
	cc.Shards = f.shards
	cc.Host.Watchdog = watchdog()
	cl, err := idio.NewCluster(cc)
	if err != nil {
		return err
	}
	f.cl = cl
	return nil
}

func (f *fabric) attach(budget uint64) {
	for c := 0; c < rpcCores; c++ {
		f.cl.DUT.AddNF(c, apps.L2Fwd{}, f.cl.DUT.DefaultFlow(c))
	}
	rng := rand.New(rand.NewSource(f.seed))
	per := (budget + rpcClients - 1) / rpcClients
	for i := 0; i < rpcClients; i++ {
		core := i % rpcCores
		fl := f.cl.ClientFlow(i, core)
		fl.FrameLen = rpcFrame
		f.cl.AddRPCClient(i, core, fnet.ClientConfig{
			Flow:        fl,
			Mode:        fnet.ModeClosed,
			Outstanding: rpcOutstanding,
			Requests:    per,
			Start:       sim.Time(rng.Int63n(int64(rpcStartJitter))),
			Timeout:     rpcTimeout,
			Retry: &fnet.RetryConfig{
				MaxRetries: rpcMaxRetries, JitterFrac: 0.25, Seed: rng.Int63(),
			},
		})
	}
}

func (f *fabric) start() { f.cl.Start() }

// advance steps the unsharded cluster on its one simulator and the
// sharded one through Cluster.Run, the only way to drive its epoch
// engine (each call also collects results).
func (f *fabric) advance(to sim.Time) error {
	if f.shards > 1 {
		_, err := f.cl.Run(idio.RunOpts{Horizon: sim.Duration(to)})
		return err
	}
	f.cl.Sim.RunUntil(to)
	return f.cl.Sim.Err()
}

func (f *fabric) rx() uint64 { return f.cl.DUT.NIC.Stats().RxPackets }

func (f *fabric) consumed() uint64 {
	var n uint64
	for _, c := range f.cl.Clients {
		n += c.Issued()
	}
	return n
}

func (f *fabric) pending() int { return f.cl.Pending() }

func (f *fabric) results() []hostResults {
	return []hostResults{{policy: f.cl.DUT.Cfg.Policy, res: f.cl.Collect()}}
}

func (f *fabric) events(rs []hostResults) uint64 { return clusterEvents(f.cl, rs) }

func (f *fabric) drained() bool { return f.cl.Idle() }

func (f *fabric) check(c *checker, rs []hostResults) {
	r := rs[0].res
	checkFabric(c, f.cl, r)
	attempts := make([]uint64, len(f.cl.Clients))
	for j, cli := range f.cl.Clients {
		st := cli.Stats()
		attempts[j] = st.Issued + st.Retries + st.Hedges
		c.expect(fmt.Sprintf("rpc.c%d.down_delivered", j),
			f.cl.ClientDown[j].Stats().Delivered == st.Responses+st.Late,
			"delivered=%d responses=%d late=%d", f.cl.ClientDown[j].Stats().Delivered, st.Responses, st.Late)
	}
	checkUplinks(c, f.cl, attempts)
	rpc := r.RPC
	c.expect("rpc.accounted", rpc.Issued == rpc.Responses+rpc.Failed,
		"issued=%d responses=%d failed=%d timeouts=%d", rpc.Issued, rpc.Responses, rpc.Failed, rpc.Timeouts)
}

// clusterEvents sums dispatched events over a cluster's simulators:
// the one simulator unsharded, every domain's counter when sharded.
func clusterEvents(cl *idio.Cluster, rs []hostResults) uint64 {
	var n uint64
	found := false
	for _, m := range rs[0].res.Metrics {
		if strings.HasPrefix(m.Name, "domain.") && strings.HasSuffix(m.Name, ".events") {
			n += uint64(m.Value)
			found = true
		}
	}
	if !found {
		n = cl.Sim.Processed()
	}
	return n
}

// checkFabric verifies the link and switch conservation laws of a
// drained cluster: every link delivered what it transmitted and holds
// nothing, every packet offered to a link was sent or dropped, the
// switch forwarded or dropped everything it received, and no pooled
// packet is outstanding.
func checkFabric(c *checker, cl *idio.Cluster, r idio.Results) {
	c.expect("pool_outstanding", r.PktPool.Outstanding == 0, "outstanding=%d", r.PktPool.Outstanding)
	var egress, ingress uint64
	for _, lr := range r.Fabric.Links {
		st := lr.Stats
		c.expect("link."+lr.Name+".delivered", st.Delivered == st.TxPackets,
			"delivered=%d tx=%d", st.Delivered, st.TxPackets)
		offered := st.TxPackets + st.TailDrops + st.DownDrops + st.AQMDrops
		// Links named *.down leave the switch; *.up ones enter it.
		if strings.HasSuffix(lr.Name, ".down") {
			egress += offered
		} else {
			ingress += st.Delivered
		}
	}
	for _, l := range clusterLinks(cl) {
		c.expect("link."+l.Name()+".idle", l.InFlight() == 0, "inflight=%d", l.InFlight())
	}
	sw := r.Fabric.Switch
	c.expect("switch.egress", egress == sw.Forwarded, "offered=%d forwarded=%d", egress, sw.Forwarded)
	c.expect("switch.ingress", ingress == sw.Forwarded+sw.NoRoute+sw.ParseDrops,
		"received=%d forwarded=%d noroute=%d parse=%d", ingress, sw.Forwarded, sw.NoRoute, sw.ParseDrops)
	up := cl.ServerUp.Stats()
	c.expect("link.srv.up.offered", up.TxPackets+up.TailDrops+up.DownDrops+up.AQMDrops == r.NIC.TxPackets,
		"tx=%d drops=%d nic_tx=%d", up.TxPackets, up.TailDrops+up.DownDrops+up.AQMDrops, r.NIC.TxPackets)
}

// clusterLinks returns every link of a cluster that exists.
func clusterLinks(cl *idio.Cluster) []*fnet.Link {
	ls := []*fnet.Link{cl.ServerDown, cl.ServerUp}
	for i := range cl.ClientUp {
		ls = append(ls, cl.ClientUp[i])
		if cl.ClientDown[i] != nil {
			ls = append(ls, cl.ClientDown[i])
		}
	}
	return ls
}

// linksIdle reports whether no link holds a packet.
func linksIdle(cl *idio.Cluster) bool {
	for _, l := range clusterLinks(cl) {
		if l.InFlight() != 0 {
			return false
		}
	}
	return true
}

// checkUplinks verifies that each client uplink sent or dropped every
// attempt its client put on the wire.
func checkUplinks(c *checker, cl *idio.Cluster, attempts []uint64) {
	for j, a := range attempts {
		st := cl.ClientUp[j].Stats()
		c.expect("link."+cl.ClientUp[j].Name()+".offered", st.TxPackets+st.TailDrops+st.DownDrops+st.AQMDrops == a,
			"tx=%d drops=%d attempts=%d", st.TxPackets, st.TailDrops+st.DownDrops+st.AQMDrops, a)
	}
}

// --- churn_1m ----------------------------------------------------------

// Churn shape: one client holding a million concurrent flows with a
// 2 s mean think time (about 500k requests/s) against one IDIO core.
const (
	churnFlows = 1_000_000
	churnThink = 2 * sim.Second
	// churnSettle is how long after the budget is spent every request
	// still on the wire has been answered or has timed out: twice the
	// default timeout plus a millisecond of fabric and ring transit.
	churnSettle = 2*fnet.DefaultTimeout + sim.Millisecond
)

type churn struct {
	seed   int64
	cl     *idio.Cluster
	client *fnet.ChurnClient
	budget uint64
	// spentAt is when the budget ran out (valid once spent is set).
	spentAt sim.Time
	spent   bool
}

func (ch *churn) build() error {
	cc := idio.DefaultClusterConfig(1, 1)
	cc.Host.Policy = idiocore.PolicyIDIO
	cc.Host.Watchdog = watchdog()
	cl, err := idio.NewCluster(cc)
	if err != nil {
		return err
	}
	ch.cl = cl
	return nil
}

func (ch *churn) attach(budget uint64) {
	ch.budget = budget
	ch.cl.DUT.AddNF(0, apps.L2Fwd{}, ch.cl.DUT.DefaultFlow(0))
	ch.client = ch.cl.AddChurnClient(0, fnet.ChurnConfig{
		Flow:     ch.cl.ClientFlow(0, 0),
		Flows:    churnFlows,
		Requests: budget,
		Think:    churnThink,
		Seed:     ch.seed,
	})
}

func (ch *churn) start() { ch.cl.Start() }

func (ch *churn) advance(to sim.Time) error {
	ch.cl.Sim.RunUntil(to)
	if !ch.spent && ch.client.Issued() >= ch.budget {
		ch.spent, ch.spentAt = true, to
	}
	return ch.cl.Sim.Err()
}

func (ch *churn) rx() uint64 { return ch.cl.DUT.NIC.Stats().RxPackets }

func (ch *churn) consumed() uint64 { return ch.client.Issued() }

func (ch *churn) pending() int { return ch.cl.Pending() }

func (ch *churn) results() []hostResults {
	return []hostResults{{policy: ch.cl.DUT.Cfg.Policy, res: ch.cl.Collect()}}
}

func (ch *churn) events(rs []hostResults) uint64 { return clusterEvents(ch.cl, rs) }

// drained: idle flows keep their think timers after the budget is
// spent and leave only as those fire (seconds of simulated time), but
// they hold no packets; what must settle is every request on the wire.
func (ch *churn) drained() bool {
	if !ch.spent || ch.cl.Sim.Now() < ch.spentAt+sim.Time(churnSettle) {
		return false
	}
	return ringsEmpty(ch.cl.DUT) && linksIdle(ch.cl)
}

func (ch *churn) check(c *checker, rs []hostResults) {
	r := rs[0].res
	checkFabric(c, ch.cl, r)
	st := ch.client.Stats()
	checkUplinks(c, ch.cl, []uint64{st.Issued})
	c.expect("churn.c0.down_delivered", ch.cl.ClientDown[0].Stats().Delivered == st.Responses+st.Late,
		"delivered=%d responses=%d late=%d", ch.cl.ClientDown[0].Stats().Delivered, st.Responses, st.Late)
	c.expect("churn.accounted", st.Responses == st.Issued-st.Timeouts,
		"responses=%d issued=%d timeouts=%d", st.Responses, st.Issued, st.Timeouts)
}
