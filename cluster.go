package idio

import (
	"fmt"

	"idio/internal/fault"
	fnet "idio/internal/net"
	"idio/internal/nic"
	"idio/internal/pkt"
	"idio/internal/qos"
	"idio/internal/sim"
	"idio/internal/stats"
	"idio/internal/traffic"
)

// ServerIP is the DUT's address on the fabric (DefaultFlow's Dst).
var ServerIP = pkt.IPv4{10, 0, 0, 1}

// ClientIP returns client host i's fabric address. The 10.0.2/24
// range is disjoint from DefaultFlow's 10.0.1/24 sources, so direct
// injection and fabric traffic can coexist without tuple collisions.
func ClientIP(i int) pkt.IPv4 { return pkt.IPv4{10, 0, 2, byte(i + 1)} }

// Cluster is a multi-host topology: N lightweight client hosts
// reaching one fully-modelled DUT server through an output-queued
// switch. Requests travel client → uplink → switch → server downlink
// → DUT NIC; the DUT's NF processes them and its TX path hands
// completions to the wire hook, which echoes the frame (addresses
// swapped) back through the switch to the owning client.
//
//	client0 ──up──▶          ┌─▶ down ──▶ client0
//	client1 ──up──▶  switch ─┼─▶ down ──▶ client1
//	   ...           ▲    │  └─▶ ...
//	                 │    └─ srv.down ─▶ [DUT NIC → cores → TX]
//	                 └────── srv.up ◀────────────┘
//
// With ClusterConfig.Shards <= 1 every host shares one simulator —
// the exact historical run. With Shards >= 2 the DUT, the switch and
// groups of clients each own a private event domain advancing on its
// own goroutine, synchronized conservatively at the links (the only
// legal cross-domain edges); outputs stay byte-identical.
type Cluster struct {
	// Sim is the DUT's simulator — the only simulator when unsharded.
	Sim *sim.Simulator
	// DUT is the server host: the full System (hierarchy, NIC, IDIO).
	DUT *System
	// Switch connects every host; routes are keyed by destination IP.
	Switch *fnet.Switch
	// Clients holds the RPC clients installed via AddRPCClient, in
	// installation order (nil-free; index is NOT the client slot).
	Clients []*fnet.Client
	// ChurnClients holds the flow-churn clients installed via
	// AddChurnClient, in installation order.
	ChurnClients []*fnet.ChurnClient
	// ClientUp[i] carries client slot i's traffic toward the switch;
	// ClientDown[i] is non-nil once slot i has an RPC client.
	ClientUp   []*fnet.Link
	ClientDown []*fnet.Link
	// ServerUp carries DUT responses to the switch; ServerDown carries
	// switch traffic into the DUT NIC.
	ServerUp   *fnet.Link
	ServerDown *fnet.Link
	// Hist aggregates end-to-end RPC latency across all clients. It is
	// rebuilt at Collect time by merging the per-client histograms
	// (bucket addition — the same final state shared recording would
	// have produced, in sharded and unsharded runs alike).
	Hist *stats.Histogram

	cfg     ClusterConfig
	started bool

	// qosMap is the cluster-wide DSCP→class map when ClusterConfig.QoS
	// is set (nil otherwise); clientClass records each RPC client's
	// service class (parallel to Clients) for per-class Collect.
	qosMap      *qos.Map
	clientClass []qos.Class

	// clients holds every installed client of either kind in
	// installation order; clientSlot[j] is clients[j]'s slot.
	clients    []fabricClient
	clientSlot []int

	// Sharded-mode state; engine is nil when Shards <= 1.
	engine       *sim.Engine
	doms         []*clusterDomain // [0]=dut, [1]=switch, [2..]=client groups
	clientDomOf  []int            // client slot -> domain index
	faultLinkDom []int            // fault AttachLink order -> owning domain
	outboxes     []*fnet.Outbox
	flushScratch []fnet.XEntry
}

// clusterDomain is one event domain of a sharded cluster: a private
// simulator, a private packet pool (pkt.Pool is deliberately not
// concurrency-safe) and the outbox collecting its cross-domain
// handoffs between barriers.
type clusterDomain struct {
	name string
	sm   *sim.Simulator
	pool *pkt.Pool
	out  *fnet.Outbox
}

// runStep is the until-idle checkpoint period, shared by the
// single-simulator slicing loop and the sharded epoch engine so both
// stop at identical instants (see System.RunUntilIdle).
const runStep = 100 * sim.Microsecond

// NewCluster wires the topology: the DUT server (full System) and
// nClients client slots. Client slots start empty — attach an RPC
// client with AddRPCClient, or feed a slot's uplink directly via
// ClientIngress (generator traffic through the fabric; install on
// ClientSim(i)). The DUT's port-0 TX path is wired to echo processed
// frames back through the switch.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// A cluster-level QoS policy flows down into the host (NIC filter
	// table, placement policy) unless the host already carries its own.
	if cfg.QoS != nil && cfg.Host.QoS == nil {
		cfg.Host.QoS = cfg.QoS
	}
	sm := sim.New()
	dut, err := NewHostE(sm, cfg.Host)
	if err != nil {
		return nil, err
	}
	cl := &Cluster{
		Sim:    sm,
		DUT:    dut,
		Switch: fnet.NewSwitch("sw0"),
		Hist:   stats.NewHistogram(5),
		cfg:    cfg,
	}
	if cfg.QoS != nil {
		qm, err := cfg.QoS.BuildMap()
		if err != nil {
			return nil, err
		}
		cl.qosMap = qm
		// Arm before any port attaches: every switch egress — the server
		// downlink now, client downlinks as AddRPCClient creates them —
		// replaces its FIFO with the scheduled per-class queues.
		cl.Switch.ArmQoS(cfg.QoS, qm)
	}
	if cfg.Shards > 1 {
		cl.buildDomains()
	}
	o := dut.Observe()
	cl.Switch.SetObserver(o)
	reg := o.Registry()

	// Server downlink: switch → DUT NIC (port 0 receives like a
	// generator would — *nic.NIC satisfies fnet.Endpoint). The switch
	// domain owns it; the DUT domain is the delivery side.
	down := cfg.ServerLink
	down.Name = "srv.down"
	cl.ServerDown = fnet.NewLink(down, dut.NIC)
	cl.ServerDown.SetObserver(o)
	// AddPort arms the link too (idempotently), but only after metrics
	// registration below — arm here so the per-class keys land in the
	// registry alongside the link's own.
	if cl.qosMap != nil {
		cl.ServerDown.ArmQoS(cfg.QoS, cl.qosMap)
	}
	cl.bindLink(cl.ServerDown, domSwitch, domDUT)
	cl.ServerDown.RegisterMetrics(reg, "fabric.srv.down.")
	cl.Switch.Route(ServerIP, cl.Switch.AddPort(cl.ServerDown))

	// Server uplink: DUT TX → switch. The wire hook echoes each
	// transmitted frame with Ethernet/IP/UDP addresses swapped, so the
	// switch routes it back to the requesting client.
	up := cfg.ServerLink
	up.Name = "srv.up"
	cl.ServerUp = fnet.NewLink(up, cl.Switch)
	cl.ServerUp.SetObserver(o)
	cl.bindLink(cl.ServerUp, domDUT, domSwitch)
	cl.ServerUp.RegisterMetrics(reg, "fabric.srv.up.")
	// The echo response is drawn from the host pool — usually the very
	// request packet just released by the slot free in this same event,
	// so the fabric's steady state recycles one packet per in-flight
	// request and allocates nothing.
	dut.NIC.SetWire(func(s *sim.Simulator, p *pkt.Packet) {
		// Capture the request's identity before Get: the pool may hand
		// back p itself (it was released by the slot free moments ago in
		// this same event), and Get resets the recycled packet's Seq.
		seq := p.Seq
		r := dut.PktPool.Get(len(p.Frame))
		pkt.EchoInto(r, p)
		r.Seq = seq
		cl.ServerUp.Receive(s, r)
	})

	// Client uplinks: slot i → switch. Downlinks are created lazily by
	// AddRPCClient (their endpoint is the client itself).
	cl.ClientUp = make([]*fnet.Link, cfg.Clients)
	cl.ClientDown = make([]*fnet.Link, cfg.Clients)
	for i := 0; i < cfg.Clients; i++ {
		lc := cfg.ClientLink
		lc.Name = fmt.Sprintf("c%d.up", i)
		cl.ClientUp[i] = fnet.NewLink(lc, cl.Switch)
		cl.ClientUp[i].SetObserver(o)
		// Clients and generators feeding this uplink draw their request
		// packets from the owning domain's pool (the host pool when
		// unsharded — central leak accounting either way).
		cl.ClientUp[i].SetPacketPool(cl.clientPool(i))
		cl.bindLink(cl.ClientUp[i], cl.clientDomain(i), domSwitch)
		cl.ClientUp[i].RegisterMetrics(reg, fmt.Sprintf("fabric.c%d.up.", i))
	}
	cl.Switch.RegisterMetrics(reg, "fabric.switch.")

	// Fabric links are fault targets; attach in slot order so the
	// injector's victim choice is deterministic.
	if dut.Faults != nil {
		cl.attachFaultLink(cl.ServerDown, domSwitch)
		cl.attachFaultLink(cl.ServerUp, domDUT)
		for i, l := range cl.ClientUp {
			cl.attachFaultLink(l, cl.clientDomain(i))
		}
	}
	if cl.engine != nil {
		// Per-domain progress counters land in the registry after every
		// historical key, so unsharded registry output is unchanged.
		for _, d := range cl.doms {
			d := d
			reg.CounterFunc("domain."+d.name+".events", func() uint64 { return d.sm.Processed() })
		}
		reg.CounterFunc("domain.epochs", func() uint64 { return cl.engine.Epochs() })
	}
	return cl, nil
}

// Domain indices: the DUT always owns domain 0 (it is the heaviest
// host, so the epoch coordinator runs it inline), the switch domain 1,
// and client groups fill 2..N-1.
const (
	domDUT    = 0
	domSwitch = 1
)

// buildDomains partitions the cluster into Shards event domains and
// builds the barrier-epoch engine. The conservative lookahead is the
// minimum link propagation delay: a handoff produced during an epoch
// always lands strictly after the next barrier, so flushing mailboxes
// at every barrier is always in time.
func (cl *Cluster) buildDomains() {
	cfg := cl.cfg
	groups := cfg.Shards - 2
	if groups < 1 {
		groups = 1
	}
	if groups > cfg.Clients {
		groups = cfg.Clients
	}
	names := []string{"dut", "switch"}
	for g := 0; g < groups; g++ {
		names = append(names, fmt.Sprintf("clients.%d", g))
	}
	for i, name := range names {
		d := &clusterDomain{name: name, out: fnet.NewOutbox(i)}
		if i == domDUT {
			d.sm, d.pool = cl.Sim, cl.DUT.PktPool
		} else {
			d.sm, d.pool = sim.New(), pkt.NewPool(0)
			if cfg.Host.Watchdog != nil {
				d.sm.SetWatchdog(*cfg.Host.Watchdog)
			}
		}
		cl.doms = append(cl.doms, d)
		cl.outboxes = append(cl.outboxes, d.out)
	}
	// Client slots map onto groups in contiguous blocks, so clients
	// that send at the same instant merge in slot order — the order
	// the shared simulator's FIFO would have produced.
	per := (cfg.Clients + groups - 1) / groups
	cl.clientDomOf = make([]int, cfg.Clients)
	for i := range cl.clientDomOf {
		cl.clientDomOf[i] = 2 + i/per
	}
	lookahead := cfg.ClientLink.Delay
	if cfg.ServerLink.Delay < lookahead {
		lookahead = cfg.ServerLink.Delay
	}
	cl.engine = sim.NewEngine(lookahead, func() {
		fnet.Flush(cl.outboxes, &cl.flushScratch)
	})
	for _, d := range cl.doms {
		cl.engine.AddDomain(&sim.Domain{Name: d.name, Sim: d.sm, PendingExternal: d.out.Pending})
	}
	if cl.DUT.Faults != nil {
		// Timeline phases are scheduled per owning domain in Start;
		// everything else the injector runs stays DUT-local.
		cl.DUT.Faults.ScheduleTimelineExternally()
	}
}

// clientDomain returns the domain index owning client slot i.
func (cl *Cluster) clientDomain(i int) int {
	if cl.engine == nil {
		return domDUT
	}
	return cl.clientDomOf[i]
}

// clientPool returns the packet pool client slot i draws from.
func (cl *Cluster) clientPool(i int) *pkt.Pool {
	if cl.engine == nil {
		return cl.DUT.PktPool
	}
	return cl.doms[cl.clientDomOf[i]].pool
}

// bindLink marks l as a cross-domain edge from src to dst when the
// cluster is sharded; unsharded clusters leave the link untouched.
func (cl *Cluster) bindLink(l *fnet.Link, src, dst int) {
	if cl.engine == nil {
		return
	}
	l.BindCrossDomain(cl.doms[src].out, cl.doms[dst].sm, cl.doms[dst].pool)
}

// attachFaultLink registers l as a fault target and records its
// owning domain so timeline phases can be scheduled there.
func (cl *Cluster) attachFaultLink(l *fnet.Link, dom int) {
	cl.DUT.Faults.AttachLink(l)
	cl.faultLinkDom = append(cl.faultLinkDom, dom)
}

// ClientIngress returns slot i's uplink as a traffic.Receiver, so any
// internal/traffic generator can be Installed onto the fabric instead
// of injecting directly into the DUT NIC: generator → uplink → switch
// → server downlink → NIC. Install onto ClientSim(i)'s simulator.
func (cl *Cluster) ClientIngress(i int) traffic.Receiver { return cl.ClientUp[i] }

// ClientSim returns the simulator owning client slot i: the shared
// simulator when unsharded, the slot's client-group domain when
// sharded. Anything generating traffic into ClientIngress(i) must
// schedule its events here.
func (cl *Cluster) ClientSim(i int) *sim.Simulator {
	if cl.engine == nil {
		return cl.Sim
	}
	return cl.doms[cl.clientDomOf[i]].sm
}

// ClientFlow returns the canonical request flow for client slot i
// targeting the NF on the given DUT core: source is the client's own
// fabric address (responses route back by it), destination the DUT.
func (cl *Cluster) ClientFlow(i, core int) traffic.Flow {
	return traffic.Flow{
		Src: ClientIP(i), Dst: ServerIP,
		SrcPort: uint16(7000 + i), DstPort: uint16(9000 + core),
		FrameLen: pkt.MTUFrameLen,
	}
}

// fabricClient is what the cluster drives and collects on either
// client kind; both run on internal/net's request core.
type fabricClient interface {
	fnet.Endpoint
	Start(s *sim.Simulator)
	Done() bool
	RxBytes() uint64
	FirstSend() sim.Time
	LastResp() sim.Time
	Hist() *stats.Histogram
}

// AddRPCClient installs an RPC client on slot i whose requests are
// served by the NF on the given DUT core: it builds the slot's
// downlink, routes the client's address to it, and pins the flow to
// the core with an EP Flow Director rule. A zero ccfg.Flow defaults
// to ClientFlow(i, core). Every client records into its own latency
// histogram; Collect merges them into Hist.
func (cl *Cluster) AddRPCClient(i, core int, ccfg fnet.ClientConfig) *fnet.Client {
	if ccfg.Flow == (traffic.Flow{}) {
		ccfg.Flow = cl.ClientFlow(i, core)
	}
	cl.checkSharedHist(ccfg.Hist)
	c := fnet.NewClient(ccfg, cl.ClientUp[i])
	cl.installClient(i, ccfg.Flow.Src, c)
	cl.DUT.FlowDir.AddEPRule(ccfg.Flow.Tuple(), core)
	c.RegisterMetrics(cl.DUT.Observe().Registry(), fmt.Sprintf("rpc.c%d.", i))
	cl.Clients = append(cl.Clients, c)
	if cl.qosMap != nil {
		cl.clientClass = append(cl.clientClass, cl.qosMap.Class(ccfg.Flow.DSCP))
	}
	return c
}

// AddChurnClient installs a flow-churn client on slot i: it builds
// the slot's downlink and routes the client's address to it, exactly
// like AddRPCClient — but installs NO Flow Director rule. A churn
// client's million-key 5-tuple space cannot be pinned with per-flow
// EP rules (the point of the workload); its flows spread across DUT
// cores through the Toeplitz RSS fallback, as unpinned traffic does
// on real hardware. The first churn client also arms the NIC's
// per-flow statistics table (capacity nic.DefaultFlowStatsEntries —
// at a million flows the refusal counter exposes the hardware bound).
// A zero ccfg.Flow defaults to ClientFlow(i, 0).
func (cl *Cluster) AddChurnClient(i int, ccfg fnet.ChurnConfig) *fnet.ChurnClient {
	if ccfg.Flow == (traffic.Flow{}) {
		ccfg.Flow = cl.ClientFlow(i, 0)
	}
	cl.checkSharedHist(ccfg.Hist)
	c := fnet.NewChurnClient(ccfg, cl.ClientUp[i])
	cl.installClient(i, ccfg.Flow.Src, c)
	reg := cl.DUT.Observe().Registry()
	if fd := cl.DUT.FlowDir; !fd.FlowStatsEnabled() {
		fd.EnableFlowStats(nic.DefaultFlowStatsEntries)
		reg.GaugeFunc("nic.flows_tracked", func() float64 { return float64(fd.TrackedFlows()) })
		reg.GaugeFunc("nic.flow_table_load", fd.FlowStatsLoad)
		reg.CounterFunc("nic.flow_refusals", fd.FlowRefusals)
	}
	c.RegisterMetrics(reg, fmt.Sprintf("churn.c%d.", i))
	cl.ChurnClients = append(cl.ChurnClients, c)
	return c
}

// checkSharedHist refuses a histogram shared across a sharded
// cluster's client domains (concurrent writes); per-client histograms
// merge at Collect instead.
func (cl *Cluster) checkSharedHist(h *stats.Histogram) {
	if cl.engine != nil && h != nil {
		panic("idio: a sharded cluster cannot share one histogram across client domains; leave the client config's Hist nil")
	}
}

// installClient wires client c onto slot i: the slot's downlink (QoS
// scheduled when the cluster is), the switch route for the client's
// address src, the downlink's metrics and fault-target registration.
func (cl *Cluster) installClient(i int, src pkt.IPv4, c fabricClient) {
	if cl.ClientDown[i] != nil {
		panic(fmt.Sprintf("idio: client slot %d already has a client", i))
	}
	o := cl.DUT.Observe()
	lc := cl.cfg.ClientLink
	lc.Name = fmt.Sprintf("c%d.down", i)
	down := fnet.NewLink(lc, c)
	cl.ClientDown[i] = down
	down.SetObserver(o)
	if cl.qosMap != nil {
		down.ArmQoS(cl.cfg.QoS, cl.qosMap)
	}
	cl.bindLink(down, domSwitch, cl.clientDomain(i))
	down.RegisterMetrics(o.Registry(), fmt.Sprintf("fabric.c%d.down.", i))
	cl.Switch.Route(src, cl.Switch.AddPort(down))
	if cl.DUT.Faults != nil {
		cl.attachFaultLink(down, domSwitch)
	}
	cl.clients = append(cl.clients, c)
	cl.clientSlot = append(cl.clientSlot, i)
}

// Start launches the DUT (cores, controller, injectors) and every
// installed client, each on its owning domain's simulator.
// Calling it more than once is a no-op.
func (cl *Cluster) Start() {
	if cl.started {
		return
	}
	cl.started = true
	cl.DUT.Start()
	if cl.engine != nil && cl.DUT.Faults != nil {
		// Every timeline phase runs on the domain owning its target, at
		// exactly its declared instant of that domain's timeline.
		for di := range cl.doms {
			di := di
			cl.DUT.Faults.SchedulePhases(cl.doms[di].sm, func(ph fault.Phase) bool {
				return cl.phaseDomain(ph) == di
			})
		}
	}
	for j, c := range cl.clients {
		c.Start(cl.ClientSim(cl.clientSlot[j]))
	}
}

// phaseDomain resolves the domain that owns a timeline phase's
// target: fabric phases belong to the domain whose events feed the
// victim link; every other layer perturbs DUT components.
func (cl *Cluster) phaseDomain(ph fault.Phase) int {
	if ph.Layer == "fabric" && ph.Target >= 0 && ph.Target < len(cl.faultLinkDom) {
		return cl.faultLinkDom[ph.Target]
	}
	return domDUT
}

// validatePhases cross-checks explicitly named phase domains against
// the targets' actual owners (sharded clusters only — on one shared
// simulator the name is advisory).
func (cl *Cluster) validatePhases() error {
	if cl.engine == nil || cl.DUT.Faults == nil || cl.cfg.Host.Faults == nil {
		return nil
	}
	for i, ph := range cl.cfg.Host.Faults.Timeline {
		if ph.Domain == "" {
			continue
		}
		if want := cl.doms[cl.phaseDomain(ph)].name; ph.Domain != want {
			return fmt.Errorf("idio: fault timeline[%d] names domain %q but its %s target %d belongs to domain %q",
				i, ph.Domain, ph.Layer, ph.Target, want)
		}
	}
	return nil
}

// Idle reports whether the whole topology has drained: DUT rings
// empty, no packet queued/serializing/propagating on any link, no
// handoff parked in a cross-domain mailbox, and every RPC client out
// of budget with no request awaiting a response or timeout.
func (cl *Cluster) Idle() bool {
	for _, o := range cl.outboxes {
		if o.Pending() != 0 {
			return false
		}
	}
	if !cl.DUT.idle() {
		return false
	}
	for _, l := range cl.links() {
		if l.InFlight() != 0 {
			return false
		}
	}
	for _, c := range cl.clients {
		if !c.Done() {
			return false
		}
	}
	return true
}

// Pending sums schedulable work across the whole cluster: every
// domain's event queue plus cross-domain mailbox entries not yet
// injected — so a sharded and an unsharded cluster agree on whether
// anything is still in flight (a packet parked in a mailbox counts).
func (cl *Cluster) Pending() int {
	if cl.engine != nil {
		return cl.engine.Pending()
	}
	return cl.Sim.Pending()
}

// links returns every fabric link in slot order (nil downlinks of
// empty client slots are skipped).
func (cl *Cluster) links() []*fnet.Link {
	ls := []*fnet.Link{cl.ServerDown, cl.ServerUp}
	for _, l := range cl.ClientUp {
		ls = append(ls, l)
	}
	for _, l := range cl.ClientDown {
		if l != nil {
			ls = append(ls, l)
		}
	}
	return ls
}

// RunOpts selects how Cluster.Run executes.
type RunOpts struct {
	// Horizon bounds the run in simulated time.
	Horizon sim.Duration
	// UntilIdle stops early at the first 100 µs checkpoint where the
	// topology has drained (all clients done, fabric, mailboxes and
	// rings empty) — the natural mode for fixed request budgets. The
	// checkpoint granularity is identical in sharded and unsharded
	// runs, so both stop at the same instant.
	UntilIdle bool
}

// Run starts the cluster (if needed) and executes to opts.Horizon —
// on the single shared simulator when ClusterConfig.Shards <= 1, or
// as conservative barrier epochs across the per-host domains when
// sharded. It returns the collected results and the first structured
// abort (watchdog trip, named by domain when sharded), nil on a
// clean run.
func (cl *Cluster) Run(opts RunOpts) (Results, error) {
	if err := cl.validatePhases(); err != nil {
		return Results{}, err
	}
	cl.Start()
	if cl.engine == nil {
		if opts.UntilIdle {
			// The DUT's polling loops never terminate, so run in slices
			// and stop when the topology has drained (see
			// System.RunUntilIdle). A tripped watchdog stops the clock;
			// keeping on slicing would spin through the horizon.
			for t := sim.Duration(0); t < opts.Horizon; t += runStep {
				cl.Sim.RunUntil(sim.Time(t + runStep))
				if cl.Sim.Err() != nil || cl.Idle() {
					break
				}
			}
		} else {
			cl.Sim.RunUntil(sim.Time(opts.Horizon))
		}
		return cl.Collect(), cl.Sim.Err()
	}
	var err error
	if opts.UntilIdle {
		// Mirror the slicing loop exactly: the effective end is the
		// horizon rounded up to the next checkpoint, and idleness is
		// evaluated only at checkpoint multiples.
		eff := sim.Time(opts.Horizon)
		if r := eff % sim.Time(runStep); r != 0 {
			eff += sim.Time(runStep) - r
		}
		err = cl.engine.Run(eff, runStep, cl.Idle)
	} else {
		err = cl.engine.Run(sim.Time(opts.Horizon), 0, nil)
	}
	return cl.Collect(), err
}

// Collect snapshots the DUT's results and attaches the fabric, RPC
// and churn summaries. Run calls it; it remains exported for callers
// that need to re-snapshot after a run.
func (cl *Cluster) Collect() Results {
	r := cl.DUT.Collect()
	f := &FabricResults{Switch: cl.Switch.Stats()}
	for _, l := range cl.links() {
		lr := LinkResult{Name: l.Name(), Stats: l.Stats()}
		if l.QoSArmed() {
			cs := l.ClassStats()
			for c := range cs {
				lr.Classes = append(lr.Classes, LinkClassResult{
					Class: qos.Class(c).String(), Stats: cs[c],
				})
			}
		}
		f.Links = append(f.Links, lr)
	}
	r.Fabric = f
	// The aggregate RPC histogram is rebuilt from the per-client ones.
	cl.Hist.Reset()
	rpcSpan := clientSpan{hist: cl.Hist}
	churnSpan := clientSpan{hist: stats.NewHistogram(5)}
	var rpc RPCResults
	ch := ChurnResults{
		NICFlowsTracked: cl.DUT.FlowDir.TrackedFlows(),
		NICFlowRefusals: cl.DUT.FlowDir.FlowRefusals(),
	}
	for _, c := range cl.clients {
		switch c := c.(type) {
		case *fnet.Client:
			st := c.Stats()
			rpc.Issued += st.Issued
			rpc.Responses += st.Responses
			rpc.Timeouts += st.Timeouts
			rpc.Late += st.Late
			rpc.Retries += st.Retries
			rpc.Hedges += st.Hedges
			rpc.Failed += st.Failed
			rpcSpan.add(c)
		case *fnet.ChurnClient:
			st := c.Stats()
			ch.Issued += st.Issued
			ch.Responses += st.Responses
			ch.Timeouts += st.Timeouts
			ch.Late += st.Late
			ch.Arrivals += st.Arrivals
			ch.Departures += st.Departures
			ch.ActiveFlows += st.ActiveFlows
			ch.WheelTicks += st.Wheel.Ticks
			ch.WheelCascades += st.Wheel.Cascades
			ch.TableLoad = max(ch.TableLoad, st.TableLoad)
			churnSpan.add(c)
		}
	}
	if rpcSpan.n > 0 {
		rpc.GoodputBps, rpc.P50, rpc.P99, rpc.P999 = rpcSpan.summary()
		if cl.qosMap != nil {
			rpc.Classes = cl.collectClasses()
		}
		r.RPC = &rpc
	}
	if churnSpan.n > 0 {
		ch.GoodputBps, ch.P50, ch.P99, ch.P999 = churnSpan.summary()
		r.Churn = &ch
	}
	return r
}

// clientSpan accumulates a client group's goodput window and latency.
type clientSpan struct {
	n           int
	rxBytes     uint64
	first, last sim.Time
	hist        *stats.Histogram
}

func (a *clientSpan) add(c fabricClient) {
	if fs := c.FirstSend(); a.n == 0 || fs < a.first {
		a.first = fs
	}
	a.last = max(a.last, c.LastResp())
	a.rxBytes += c.RxBytes()
	a.hist.Merge(c.Hist())
	a.n++
}

// summary returns the group's goodput and latency percentiles (zero
// before the first response).
func (a *clientSpan) summary() (goodput float64, p50, p99, p999 sim.Duration) {
	goodput = fnet.GoodputBps(a.rxBytes, a.first, a.last)
	if a.hist.Count() > 0 {
		p50, p99, p999 = a.hist.Quantile(0.50), a.hist.Quantile(0.99), a.hist.Quantile(0.999)
	}
	return goodput, p50, p99, p999
}

// collectClasses builds the per-service-class RPC summary by grouping
// clients on their (Collect-time) class and merging their private
// latency histograms — bucket addition is order-independent, so the
// result is identical across shard counts. Classes with no clients are
// omitted.
func (cl *Cluster) collectClasses() []RPCClassResult {
	var out []RPCClassResult
	for class := 0; class < qos.NumClasses; class++ {
		cr := RPCClassResult{Class: qos.Class(class).String()}
		span := clientSpan{hist: stats.NewHistogram(5)}
		for j, c := range cl.Clients {
			if int(cl.clientClass[j]) != class {
				continue
			}
			st := c.Stats()
			cr.Issued += st.Issued
			cr.Responses += st.Responses
			cr.Timeouts += st.Timeouts
			span.add(c)
		}
		if span.n == 0 {
			continue
		}
		cr.Clients = span.n
		cr.GoodputBps, cr.P50, cr.P99, cr.P999 = span.summary()
		out = append(out, cr)
	}
	return out
}
