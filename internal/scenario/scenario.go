// Package scenario loads declarative simulation scenarios from JSON,
// so users can describe custom systems and workloads without writing
// Go. The schema covers the knobs the paper's evaluation varies:
// policy, cache geometry, ring size, thresholds, workloads per core,
// traffic shapes, and the optional LLC antagonist.
//
// Example:
//
//	{
//	  "name": "two-touchdrop-idio",
//	  "policy": "IDIO",
//	  "cores": 2,
//	  "ringSize": 1024,
//	  "horizonMS": 9,
//	  "nfs": [
//	    {"core": 0, "app": "TouchDrop", "frameLen": 1514,
//	     "traffic": {"kind": "bursty", "gbps": 25, "packetsPerBurst": 1024, "numBursts": 1}},
//	    {"core": 1, "app": "L2Fwd", "frameLen": 1024,
//	     "traffic": {"kind": "steady", "gbps": 10, "count": 4096}}
//	  ]
//	}
package scenario

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"idio"
	"idio/internal/apps"
	idiocore "idio/internal/core"
	"idio/internal/cpu"
	"idio/internal/fault"
	fnet "idio/internal/net"
	"idio/internal/obs"
	"idio/internal/qos"
	"idio/internal/sim"
	"idio/internal/traffic"
)

// Traffic describes one flow's arrival process.
type Traffic struct {
	// Kind is "steady" or "bursty".
	Kind string  `json:"kind"`
	Gbps float64 `json:"gbps"`
	// Count bounds a steady stream (packets).
	Count uint64 `json:"count,omitempty"`
	// PacketsPerBurst/NumBursts/PeriodMS shape a bursty stream.
	PacketsPerBurst int     `json:"packetsPerBurst,omitempty"`
	NumBursts       int     `json:"numBursts,omitempty"`
	PeriodMS        float64 `json:"periodMS,omitempty"`
}

// NF binds an application and its traffic to a core.
type NF struct {
	Core     int     `json:"core"`
	App      string  `json:"app"` // TouchDrop | L2Fwd | L2FwdQueued | L2FwdDropPayload | CopyNF | NAT | ReallocNF
	FrameLen int     `json:"frameLen,omitempty"`
	DSCP     uint8   `json:"dscp,omitempty"`
	Traffic  Traffic `json:"traffic"`
}

// Antagonist adds the LLC-thrashing co-runner.
type Antagonist struct {
	Core  int `json:"core"`
	BufKB int `json:"bufKB"`
	MLCKB int `json:"mlcKB,omitempty"`
}

// TopoLink describes one fabric link class.
type TopoLink struct {
	Gbps float64 `json:"gbps"`
	// DelayUS is the one-way propagation delay in microseconds.
	DelayUS float64 `json:"delayUS,omitempty"`
	// Queue bounds the egress queue in packets (0 = default 256).
	Queue int `json:"queue,omitempty"`
	// AQMTargetUS > 0 enables the CoDel-style queue manager on links
	// of this class (sojourn target, microseconds); AQMIntervalUS is
	// its observation interval (0 = 100us default).
	AQMTargetUS   float64 `json:"aqmTargetUS,omitempty"`
	AQMIntervalUS float64 `json:"aqmIntervalUS,omitempty"`
}

// LinkConfig converts to the fabric's link template (Name assigned
// per slot by the cluster).
func (l TopoLink) LinkConfig() fnet.LinkConfig {
	return fnet.LinkConfig{
		RateBps:     traffic.Gbps(l.Gbps),
		Delay:       sim.Duration(l.DelayUS * float64(sim.Microsecond)),
		QueueDepth:  l.Queue,
		AQMTarget:   sim.Duration(l.AQMTargetUS * float64(sim.Microsecond)),
		AQMInterval: sim.Duration(l.AQMIntervalUS * float64(sim.Microsecond)),
	}
}

// RPCSpec installs a closed/open-loop RPC client on every client host:
// requests travel the fabric to the DUT, each NF core echoes them
// back, and end-to-end latency is measured at the clients. Clients
// round-robin over the NF cores.
type RPCSpec struct {
	// Mode is "open", "closed", or "ramp".
	Mode string `json:"mode"`
	// Gbps is the aggregate open-loop offered load across clients
	// (open/ramp); RampToGbps is the final aggregate rate for ramp.
	Gbps       float64 `json:"gbps,omitempty"`
	RampToGbps float64 `json:"rampToGbps,omitempty"`
	// Outstanding is the per-client closed-loop window.
	Outstanding int `json:"outstanding,omitempty"`
	// Requests is the per-client request budget.
	Requests uint64 `json:"requests"`
	FrameLen int    `json:"frameLen,omitempty"`
	// TimeoutUS bounds the per-request response wait (0 = 1000).
	TimeoutUS float64 `json:"timeoutUS,omitempty"`
	// Retry enables exponential-backoff retransmission (and optional
	// hedging) on every client; omitted means no retries (a timed-out
	// request fails).
	Retry *RetrySpec `json:"retry,omitempty"`
}

// RetrySpec is the JSON form of fnet.RetryConfig. Client i derives its
// jitter stream from Seed+i so concurrent clients do not phase-lock.
type RetrySpec struct {
	MaxRetries   int     `json:"maxRetries"`
	BackoffUS    float64 `json:"backoffUS,omitempty"`
	MaxBackoffUS float64 `json:"maxBackoffUS,omitempty"`
	JitterFrac   float64 `json:"jitterFrac,omitempty"`
	Seed         int64   `json:"seed,omitempty"`
	HedgeUS      float64 `json:"hedgeUS,omitempty"`
}

// config converts to the client-level retry config for client i.
func (r *RetrySpec) config(i int) *fnet.RetryConfig {
	return &fnet.RetryConfig{
		MaxRetries: r.MaxRetries,
		Backoff:    sim.Duration(r.BackoffUS * float64(sim.Microsecond)),
		MaxBackoff: sim.Duration(r.MaxBackoffUS * float64(sim.Microsecond)),
		JitterFrac: r.JitterFrac,
		Seed:       r.Seed + int64(i),
		Hedge:      sim.Duration(r.HedgeUS * float64(sim.Microsecond)),
	}
}

// ChurnSpec installs a flow-churn client on every client host (see
// fnet.ChurnConfig): Flows concurrent flows in aggregate — split
// evenly across clients — each issuing a Zipf-drawn request budget
// with exponential think times, departing when spent and replaced by
// a fresh flow after an exponential gap. Flow state lives in compact
// flow tables and every deadline on hashed timer wheels, so the
// population scales to a million flows. Churn flows are steered by
// RSS (no per-flow filter rules — the key space is too large), and
// the first churn client arms the NIC's per-flow statistics table.
// Mutually exclusive with the rpc section (both claim client slots).
type ChurnSpec struct {
	// Flows is the aggregate concurrent flow population; Requests the
	// aggregate wire-transmission budget. Both split evenly across the
	// topology's clients (remainders to the lowest slots).
	Flows    int    `json:"flows"`
	Requests uint64 `json:"requests"`
	// TimeoutUS bounds the per-request response wait (0 = 1000).
	TimeoutUS float64 `json:"timeoutUS,omitempty"`
	// ThinkUS is the mean think time between a flow's requests
	// (0 = 1000); ArrivalGapUS the mean departure→replacement gap
	// (0 = ThinkUS).
	ThinkUS      float64 `json:"thinkUS,omitempty"`
	ArrivalGapUS float64 `json:"arrivalGapUS,omitempty"`
	// SizeZipfS (>1, 0 = 1.2), MiceFrac (0 = 0.9), MiceMax (0 = 8) and
	// SizeMax (0 = 128) shape the per-flow budget distribution.
	SizeZipfS float64 `json:"sizeZipfS,omitempty"`
	MiceFrac  float64 `json:"miceFrac,omitempty"`
	MiceMax   uint64  `json:"miceMax,omitempty"`
	SizeMax   uint64  `json:"sizeMax,omitempty"`
	// DSCPs round-robin per-flow service classes (empty = DSCP 0).
	DSCPs []uint8 `json:"dscps,omitempty"`
	// SrcPorts/DstPorts size the per-flow port spaces (0 = 16384/1).
	SrcPorts int `json:"srcPorts,omitempty"`
	DstPorts int `json:"dstPorts,omitempty"`
	// Seed drives each client's PRNG (client i uses Seed+i).
	Seed     int64 `json:"seed,omitempty"`
	FrameLen int   `json:"frameLen,omitempty"`
}

// config converts to the client-level churn config for client i of
// nClients (splitting the aggregate population and budget).
func (c *ChurnSpec) config(i, nClients int) fnet.ChurnConfig {
	share := func(total uint64) uint64 {
		n := total / uint64(nClients)
		if uint64(i) < total%uint64(nClients) {
			n++
		}
		return n
	}
	return fnet.ChurnConfig{
		Flows:      int(share(uint64(c.Flows))),
		Requests:   share(c.Requests),
		Timeout:    sim.Duration(c.TimeoutUS * float64(sim.Microsecond)),
		Think:      sim.Duration(c.ThinkUS * float64(sim.Microsecond)),
		ArrivalGap: sim.Duration(c.ArrivalGapUS * float64(sim.Microsecond)),
		SizeZipfS:  c.SizeZipfS,
		MiceFrac:   c.MiceFrac,
		MiceMax:    c.MiceMax,
		SizeMax:    c.SizeMax,
		DSCPs:      c.DSCPs,
		SrcPorts:   c.SrcPorts,
		DstPorts:   c.DstPorts,
		Seed:       c.Seed + int64(i),
	}
}

// Topology switches the scenario from a single host to a multi-host
// cluster: N client hosts reach the DUT through a switch over
// point-to-point links. NF generator traffic (when present) is routed
// through the fabric — client uplink → switch → server downlink → NIC
// — instead of injected directly, and an optional RPC section drives
// request/response load measured end to end.
type Topology struct {
	Clients    int        `json:"clients"`
	ClientLink TopoLink   `json:"clientLink"`
	ServerLink TopoLink   `json:"serverLink"`
	RPC        *RPCSpec   `json:"rpc,omitempty"`
	Churn      *ChurnSpec `json:"churn,omitempty"`
	// Shards partitions the cluster into parallel event domains (see
	// idio.ClusterConfig.Shards); 0 or 1 run everything on one
	// simulator. Output is byte-identical either way. The -shards CLI
	// flag overrides this field.
	Shards int `json:"shards,omitempty"`
}

// Scenario is the root document.
type Scenario struct {
	Name   string `json:"name"`
	Policy string `json:"policy"` // DDIO | Invalidate | Prefetch | Static | IDIO
	Cores  int    `json:"cores"`

	RingSize  int     `json:"ringSize,omitempty"`
	LLCSizeKB int     `json:"llcSizeKB,omitempty"`
	MLCSizeKB int     `json:"mlcSizeKB,omitempty"`
	DDIOWays  int     `json:"ddioWays,omitempty"`
	MLCTHR    uint64  `json:"mlcTHR,omitempty"`
	Driver    string  `json:"driver,omitempty"` // polling (default) | interrupt
	HorizonMS float64 `json:"horizonMS"`
	// ClassOneDSCPs marks application-class-1 code points.
	ClassOneDSCPs []uint8 `json:"classOneDSCPs,omitempty"`
	// TracePackets enables per-packet stage tracing, retaining up to
	// this many records per core.
	TracePackets int `json:"tracePackets,omitempty"`

	NFs        []NF        `json:"nfs"`
	Antagonist *Antagonist `json:"antagonist,omitempty"`
	Topology   *Topology   `json:"topology,omitempty"`

	// QoS arms the service-class pipeline; omit for the single-class
	// legacy data plane (see QoSSpec).
	QoS *QoSSpec `json:"qos,omitempty"`

	// Chaos schedules deterministic fault phases (fault.Phase) across
	// the run. Fabric-layer phases need a topology section: Target
	// indexes the fabric links in attach order (0 = server downlink,
	// 1 = server uplink, 2..N+1 = client uplinks, then client
	// downlinks).
	Chaos []ChaosPhase `json:"chaos,omitempty"`
	// AdmissionWatermark > 0 enables DUT admission control: packets
	// steered to an RX ring at or above this occupancy are shed.
	AdmissionWatermark int `json:"admissionWatermark,omitempty"`
}

// QoSSpec arms the service-class pipeline (internal/qos): the DSCP→
// class map in the NIC filter table, per-class placement policy (LLC
// way quota, prefetch stride, direct-to-DRAM), and — with a topology —
// the strict-priority/WRR scheduler on every switch egress port.
// Omitting the section keeps the single-class data plane and
// byte-identical legacy outputs.
type QoSSpec struct {
	// Classes overrides individual classes of the default policy by
	// name ("ef", "af41", "af21", "cs1"); omitted classes and omitted
	// fields keep their defaults.
	Classes []QoSClassSpec `json:"classes,omitempty"`
	// QuantumBytes is the WRR byte quantum per weight unit (0 = 2048).
	QuantumBytes int `json:"quantumBytes,omitempty"`
	// ClientDSCPs assigns request-flow DSCPs to topology RPC clients
	// round-robin, mixing service classes across client hosts. Empty
	// leaves every client at DSCP 0 (the default class).
	ClientDSCPs []uint8 `json:"clientDSCPs,omitempty"`
}

// QoSClassSpec overrides one service class's policy. Pointer fields
// distinguish "set to zero" from "keep the default".
type QoSClassSpec struct {
	Class         string  `json:"class"`
	DSCPs         []uint8 `json:"dscps,omitempty"`
	Priority      *bool   `json:"priority,omitempty"`
	Weight        *int    `json:"weight,omitempty"`
	Queue         int     `json:"queue,omitempty"`
	LLCWays       *int    `json:"llcWays,omitempty"`
	PrefetchEvery *int    `json:"prefetchEvery,omitempty"`
	DirectDRAM    *bool   `json:"directDRAM,omitempty"`
}

// qosClassIndex resolves a class name to its index.
func qosClassIndex(name string) (int, error) {
	for c := 0; c < qos.NumClasses; c++ {
		if qos.Class(c).String() == name {
			return c, nil
		}
	}
	return 0, fmt.Errorf("unknown qos class %q (want ef, af41, af21, or cs1)", name)
}

// config compiles the spec into the policy table: the default
// four-class policy with the listed overrides applied.
func (q *QoSSpec) config() (*qos.Config, error) {
	cfg := qos.DefaultConfig()
	cfg.Quantum = q.QuantumBytes
	for _, cs := range q.Classes {
		ci, err := qosClassIndex(cs.Class)
		if err != nil {
			return nil, err
		}
		p := &cfg.Classes[ci]
		if cs.DSCPs != nil {
			p.DSCPs = cs.DSCPs
		}
		if cs.Priority != nil {
			p.Priority = *cs.Priority
		}
		if cs.Weight != nil {
			p.Weight = *cs.Weight
		}
		if cs.Queue > 0 {
			p.QueueDepth = cs.Queue
		}
		if cs.LLCWays != nil {
			p.LLCWays = *cs.LLCWays
		}
		if cs.PrefetchEvery != nil {
			p.PrefetchEvery = *cs.PrefetchEvery
		}
		if cs.DirectDRAM != nil {
			p.DirectDRAM = *cs.DirectDRAM
		}
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return cfg, nil
}

// ChaosPhase is the JSON form of one scheduled fault phase.
type ChaosPhase struct {
	Layer string `json:"layer"` // fabric | nic | dram | core
	Kind  string `json:"kind"`  // down | degrade | dma-stall | spike | stall
	// StartMS / DurationMS bound the phase in milliseconds of sim time.
	StartMS    float64 `json:"startMS"`
	DurationMS float64 `json:"durationMS"`
	// Magnitude is kind-specific: fabric/degrade rate factor in (0,1),
	// dram/spike extra latency in nanoseconds; unused otherwise.
	Magnitude float64 `json:"magnitude,omitempty"`
	// Target selects the victim by attach order (link index, NIC port,
	// or core).
	Target int `json:"target,omitempty"`
	// Domain optionally names the event domain expected to own the
	// target in a sharded run ("dut", "switch", "clients.<g>"); a
	// mismatch fails the run instead of perturbing the wrong domain.
	Domain string `json:"domain,omitempty"`
}

// chaosTimeline converts the chaos section to fault phases.
func (sc Scenario) chaosTimeline() []fault.Phase {
	if len(sc.Chaos) == 0 {
		return nil
	}
	tl := make([]fault.Phase, len(sc.Chaos))
	for i, p := range sc.Chaos {
		tl[i] = fault.Phase{
			Layer:     p.Layer,
			Kind:      p.Kind,
			Start:     sim.Time(p.StartMS * float64(sim.Millisecond)),
			Duration:  sim.Duration(p.DurationMS * float64(sim.Millisecond)),
			Magnitude: p.Magnitude,
			Target:    p.Target,
			Domain:    p.Domain,
		}
	}
	return tl
}

// Save writes the scenario as indented JSON (the inverse of Load).
func (sc Scenario) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(sc)
}

// Load parses and validates a scenario document.
func Load(r io.Reader) (Scenario, error) {
	var sc Scenario
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sc); err != nil {
		return sc, fmt.Errorf("scenario: %w", err)
	}
	if err := sc.Validate(); err != nil {
		return sc, err
	}
	return sc, nil
}

// Validate checks internal consistency.
func (sc Scenario) Validate() error {
	if sc.Cores <= 0 {
		return fmt.Errorf("scenario %q: cores must be positive", sc.Name)
	}
	if _, err := sc.policy(); err != nil {
		return err
	}
	if sc.HorizonMS <= 0 {
		return fmt.Errorf("scenario %q: horizonMS must be positive", sc.Name)
	}
	if len(sc.NFs) == 0 {
		return fmt.Errorf("scenario %q: at least one NF required", sc.Name)
	}
	switch sc.Driver {
	case "", "polling", "interrupt":
	default:
		return fmt.Errorf("scenario %q: unknown driver %q", sc.Name, sc.Driver)
	}
	seen := map[int]bool{}
	for i, nf := range sc.NFs {
		if nf.Core < 0 || nf.Core >= sc.Cores {
			return fmt.Errorf("scenario %q: nf %d core %d out of range", sc.Name, i, nf.Core)
		}
		if seen[nf.Core] {
			return fmt.Errorf("scenario %q: core %d has two NFs", sc.Name, nf.Core)
		}
		seen[nf.Core] = true
		if _, err := appFor(nf.App, nil); err != nil {
			return fmt.Errorf("scenario %q: nf %d: %w", sc.Name, i, err)
		}
		switch nf.Traffic.Kind {
		case "steady":
			if nf.Traffic.Count == 0 {
				return fmt.Errorf("scenario %q: nf %d steady traffic needs count", sc.Name, i)
			}
		case "bursty":
			if nf.Traffic.PacketsPerBurst <= 0 || nf.Traffic.NumBursts <= 0 {
				return fmt.Errorf("scenario %q: nf %d bursty traffic needs packetsPerBurst and numBursts", sc.Name, i)
			}
		case "":
			// An NF may omit generator traffic only when topology RPC or
			// churn clients drive it instead.
			if sc.Topology == nil || (sc.Topology.RPC == nil && sc.Topology.Churn == nil) {
				return fmt.Errorf("scenario %q: nf %d needs traffic (or a topology rpc/churn section)", sc.Name, i)
			}
		default:
			return fmt.Errorf("scenario %q: nf %d unknown traffic kind %q", sc.Name, i, nf.Traffic.Kind)
		}
		if nf.Traffic.Kind != "" && nf.Traffic.Gbps <= 0 {
			return fmt.Errorf("scenario %q: nf %d needs a positive rate", sc.Name, i)
		}
	}
	if t := sc.Topology; t != nil {
		if t.Clients <= 0 {
			return fmt.Errorf("scenario %q: topology needs at least one client", sc.Name)
		}
		if t.ClientLink.Gbps <= 0 || t.ServerLink.Gbps <= 0 {
			return fmt.Errorf("scenario %q: topology links need positive gbps", sc.Name)
		}
		if rpc := t.RPC; rpc != nil {
			if rpc.Requests == 0 {
				return fmt.Errorf("scenario %q: topology rpc needs requests", sc.Name)
			}
			switch rpc.Mode {
			case "open":
				if rpc.Gbps <= 0 {
					return fmt.Errorf("scenario %q: open-loop rpc needs gbps", sc.Name)
				}
			case "closed":
				if rpc.Outstanding <= 0 {
					return fmt.Errorf("scenario %q: closed-loop rpc needs outstanding", sc.Name)
				}
			case "ramp":
				if rpc.Gbps <= 0 || rpc.RampToGbps <= 0 {
					return fmt.Errorf("scenario %q: ramp rpc needs gbps and rampToGbps", sc.Name)
				}
			default:
				return fmt.Errorf("scenario %q: unknown rpc mode %q", sc.Name, rpc.Mode)
			}
			if rpc.Retry != nil {
				if err := rpc.Retry.config(0).Validate(); err != nil {
					return fmt.Errorf("scenario %q: rpc retry: %w", sc.Name, err)
				}
			}
		}
		if ch := t.Churn; ch != nil {
			if t.RPC != nil {
				return fmt.Errorf("scenario %q: topology rpc and churn sections are mutually exclusive", sc.Name)
			}
			if ch.Flows < t.Clients {
				return fmt.Errorf("scenario %q: topology churn needs flows >= clients (%d < %d)", sc.Name, ch.Flows, t.Clients)
			}
			if ch.Requests == 0 {
				return fmt.Errorf("scenario %q: topology churn needs requests", sc.Name)
			}
			cc := ch.config(0, t.Clients)
			if err := cc.Validate(); err != nil {
				return fmt.Errorf("scenario %q: churn: %w", sc.Name, err)
			}
		}
		if t.ClientLink.AQMTargetUS < 0 || t.ServerLink.AQMTargetUS < 0 ||
			t.ClientLink.AQMIntervalUS < 0 || t.ServerLink.AQMIntervalUS < 0 {
			return fmt.Errorf("scenario %q: link AQM target/interval must be >= 0", sc.Name)
		}
	}
	if sc.AdmissionWatermark < 0 {
		return fmt.Errorf("scenario %q: admissionWatermark must be >= 0, got %d", sc.Name, sc.AdmissionWatermark)
	}
	if sc.QoS != nil {
		if _, err := sc.QoS.config(); err != nil {
			return fmt.Errorf("scenario %q: qos: %w", sc.Name, err)
		}
		if len(sc.QoS.ClientDSCPs) > 0 && (sc.Topology == nil || sc.Topology.RPC == nil) {
			return fmt.Errorf("scenario %q: qos clientDSCPs need a topology rpc section", sc.Name)
		}
	}
	if len(sc.Chaos) > 0 {
		// Delegate phase-shape checks (unknown layer/kind, negative
		// start, non-positive duration, overlapping same-target phases,
		// magnitude ranges) to the fault layer, which owns the rules.
		fc := fault.Config{Timeline: sc.chaosTimeline()}
		if err := fc.Validate(); err != nil {
			return fmt.Errorf("scenario %q: chaos: %w", sc.Name, err)
		}
		for i, p := range sc.Chaos {
			if p.Layer == "fabric" && sc.Topology == nil {
				return fmt.Errorf("scenario %q: chaos[%d] targets the fabric but no topology is declared", sc.Name, i)
			}
			if p.Layer == "core" && p.Target >= sc.Cores {
				return fmt.Errorf("scenario %q: chaos[%d] core target %d out of range", sc.Name, i, p.Target)
			}
		}
	}
	if sc.Antagonist != nil {
		if sc.Antagonist.Core < 0 || sc.Antagonist.Core >= sc.Cores {
			return fmt.Errorf("scenario %q: antagonist core out of range", sc.Name)
		}
		if seen[sc.Antagonist.Core] {
			return fmt.Errorf("scenario %q: antagonist shares core %d with an NF", sc.Name, sc.Antagonist.Core)
		}
		if sc.Antagonist.BufKB <= 0 {
			return fmt.Errorf("scenario %q: antagonist needs bufKB", sc.Name)
		}
	}
	return nil
}

func (sc Scenario) policy() (idiocore.Policy, error) {
	switch sc.Policy {
	case "DDIO", "":
		return idiocore.PolicyDDIO, nil
	case "Invalidate":
		return idiocore.PolicyInvalidate, nil
	case "Prefetch":
		return idiocore.PolicyPrefetch, nil
	case "Static":
		return idiocore.PolicyStatic, nil
	case "IDIO":
		return idiocore.PolicyIDIO, nil
	default:
		return idiocore.Policy{}, fmt.Errorf("scenario %q: unknown policy %q", sc.Name, sc.Policy)
	}
}

func appFor(name string, sys *idio.System) (cpu.App, error) {
	switch name {
	case "TouchDrop":
		return apps.TouchDrop{}, nil
	case "L2Fwd":
		return apps.L2Fwd{}, nil
	case "L2FwdQueued":
		return &apps.L2FwdQueued{}, nil
	case "L2FwdDropPayload":
		return apps.L2FwdDropPayload{}, nil
	case "CopyNF":
		if sys == nil {
			return &apps.CopyNF{}, nil // validation pass
		}
		return &apps.CopyNF{Dst: sys.AllocRegion(1 << 20)}, nil
	case "NAT":
		if sys == nil {
			return &apps.NAT{}, nil // validation pass
		}
		return &apps.NAT{Table: sys.AllocRegion(4 << 20)}, nil
	case "ReallocNF":
		return &apps.ReallocNF{}, nil
	default:
		return nil, fmt.Errorf("unknown app %q", name)
	}
}

// RunOpts carries run-time observability options that are deliberately
// not part of the scenario document: the same scenario file can be run
// untraced (production figures) or traced (debugging) without edits.
type RunOpts struct {
	// TraceSampleN > 0 enables the packet-journey tracer, following
	// every Nth packet (1 = all).
	TraceSampleN int
	// TraceSink receives trace events when tracing is enabled; nil
	// leaves the counting NullSink. The caller owns closing it.
	TraceSink obs.Sink
	// MetricsInterval > 0 records a metric-registry snapshot at this
	// period (see Results.MetricSeries).
	MetricsInterval sim.Duration
	// Shards overrides the topology's shard count when > 0 (so one
	// scenario file can be run single-domain or sharded without edits).
	// Ignored for single-host scenarios.
	Shards int
}

// Run builds, executes, and summarises the scenario. It returns the
// run results and the antagonist's CPI (zero when not configured).
func Run(sc Scenario) (idio.Results, float64, error) {
	_, res, cpi, err := RunSystem(sc)
	return res, cpi, err
}

// RunSystem is Run but additionally returns the live system so callers
// can inspect post-run state (per-packet traces, cache occupancies).
func RunSystem(sc Scenario) (*idio.System, idio.Results, float64, error) {
	return RunSystemOpts(sc, RunOpts{})
}

// RunSystemOpts is RunSystem with observability options layered on
// top of the scenario document.
func RunSystemOpts(sc Scenario, opts RunOpts) (*idio.System, idio.Results, float64, error) {
	pol, err := sc.policy()
	if err != nil {
		return nil, idio.Results{}, 0, err
	}
	cfg := idio.DefaultConfig(sc.Cores)
	cfg.Policy = pol
	if sc.RingSize > 0 {
		cfg.NIC.RingSize = sc.RingSize
	}
	if sc.LLCSizeKB > 0 {
		cfg.Hier.LLCSize = sc.LLCSizeKB << 10
	}
	if sc.MLCSizeKB > 0 {
		cfg.Hier.MLCSize = sc.MLCSizeKB << 10
	}
	if sc.DDIOWays > 0 {
		cfg.Hier.DDIOWays = sc.DDIOWays
	}
	if sc.MLCTHR > 0 {
		cfg.Controller.MLCTHR = sc.MLCTHR
	}
	if len(sc.ClassOneDSCPs) > 0 {
		cfg.Classifier.ClassOneDSCPs = sc.ClassOneDSCPs
	}
	if sc.Driver == "interrupt" {
		cfg.CPU.Driver = cpu.DriverInterrupt
	}
	if sc.TracePackets > 0 {
		cfg.CPU.TraceCapacity = sc.TracePackets
	}
	if sc.Antagonist != nil && sc.Antagonist.MLCKB > 0 {
		sizes := make([]int, sc.Cores)
		sizes[sc.Antagonist.Core] = sc.Antagonist.MLCKB << 10
		cfg.Hier.MLCSizePerCore = sizes
	}
	if sc.AdmissionWatermark > 0 {
		cfg.NIC.AdmissionWatermark = sc.AdmissionWatermark
	}
	if tl := sc.chaosTimeline(); tl != nil {
		cfg.Faults = &fault.Config{Timeline: tl}
	}
	cfg.Obs.TraceSampleN = opts.TraceSampleN
	cfg.Obs.MetricsInterval = opts.MetricsInterval
	var qcfg *qos.Config
	if sc.QoS != nil {
		var err error
		if qcfg, err = sc.QoS.config(); err != nil {
			return nil, idio.Results{}, 0, err
		}
	}

	// A topology section switches the run from a bare System to a
	// Cluster: same DUT, but traffic reaches it over the fabric.
	var (
		sys *idio.System
		cl  *idio.Cluster
	)
	if topo := sc.Topology; topo != nil {
		shards := topo.Shards
		if opts.Shards > 0 {
			shards = opts.Shards
		}
		c, err := idio.NewCluster(idio.ClusterConfig{
			Host:       cfg,
			Clients:    topo.Clients,
			ClientLink: topo.ClientLink.LinkConfig(),
			ServerLink: topo.ServerLink.LinkConfig(),
			QoS:        qcfg,
			Shards:     shards,
		})
		if err != nil {
			return nil, idio.Results{}, 0, err
		}
		cl, sys = c, c.DUT
	} else {
		// Single-host: the placement-side policy still applies (filter
		// table, way quotas, prefetch strides); there is no fabric to
		// schedule.
		cfg.QoS = qcfg
		sys = idio.NewSystem(cfg)
	}
	if opts.TraceSink != nil {
		sys.Observe().SetSink(opts.TraceSink)
	}
	var nfCores []int
	for i, nf := range sc.NFs {
		app, err := appFor(nf.App, sys)
		if err != nil {
			return nil, idio.Results{}, 0, err
		}
		flow := sys.DefaultFlow(nf.Core)
		if nf.FrameLen > 0 {
			flow.FrameLen = nf.FrameLen
		}
		flow.DSCP = nf.DSCP
		if _, isRealloc := app.(*apps.ReallocNF); isRealloc {
			// The re-allocate mode needs pooled rings on every port.
			for _, port := range sys.Ports() {
				port.Ring(nf.Core).AttachPool(sys.NewMbufPool(2 * cfg.NIC.RingSize))
			}
		}
		sys.AddNF(nf.Core, app, flow)
		nfCores = append(nfCores, nf.Core)
		// With a topology, generator traffic enters through a client
		// host's uplink and crosses the switch; single-host scenarios
		// keep the historical direct injection into the NIC. Generators
		// schedule on the simulator owning their injection point — the
		// client slot's domain when the cluster is sharded.
		var target traffic.Receiver = sys.NIC
		onSim := sys.Sim
		if cl != nil {
			slot := i % sc.Topology.Clients
			target = cl.ClientIngress(slot)
			onSim = cl.ClientSim(slot)
		}
		switch nf.Traffic.Kind {
		case "steady":
			traffic.Steady{
				Flow: flow, RateBps: traffic.Gbps(nf.Traffic.Gbps), Count: nf.Traffic.Count,
			}.Install(onSim, target)
		case "bursty":
			period := nf.Traffic.PeriodMS
			if period == 0 {
				period = 10
			}
			traffic.Bursty{
				Flow:            flow,
				BurstRateBps:    traffic.Gbps(nf.Traffic.Gbps),
				Period:          sim.Duration(period * float64(sim.Millisecond)),
				PacketsPerBurst: nf.Traffic.PacketsPerBurst,
				NumBursts:       nf.Traffic.NumBursts,
			}.Install(onSim, target)
		}
	}
	if cl != nil && sc.Topology.RPC != nil {
		if err := installRPCClients(cl, sc.Topology, sc.QoS, nfCores); err != nil {
			return nil, idio.Results{}, 0, err
		}
	}
	if cl != nil && sc.Topology.Churn != nil {
		installChurnClients(cl, sc.Topology)
	}
	var ant *apps.LLCAntagonist
	if sc.Antagonist != nil {
		buf := sys.AllocRegion(uint64(sc.Antagonist.BufKB) << 10)
		ant = apps.NewLLCAntagonist(sc.Antagonist.Core, buf, cfg.Hier.Clock, sys.Hier, 1)
	}
	if cl != nil {
		cl.Start()
	} else {
		sys.Start()
	}
	if ant != nil {
		ant.Start(sys.Sim)
	}
	horizon := sim.Duration(sc.HorizonMS * float64(sim.Millisecond))
	var res idio.Results
	if cl != nil {
		var rerr error
		res, rerr = cl.Run(idio.RunOpts{Horizon: horizon, UntilIdle: true})
		// Watchdog trips stay in Results.Aborted (degradation scenarios
		// report them as data); configuration errors fail the run.
		var wd *sim.WatchdogError
		if rerr != nil && !errors.As(rerr, &wd) {
			return nil, idio.Results{}, 0, rerr
		}
	} else {
		res = sys.RunUntilIdle(horizon)
	}
	cpi := 0.0
	if ant != nil {
		cpi = ant.CPI()
	}
	return sys, res, cpi, nil
}

// installChurnClients attaches one flow-churn client per client host,
// splitting the aggregate population and request budget evenly.
func installChurnClients(cl *idio.Cluster, topo *Topology) {
	for i := 0; i < topo.Clients; i++ {
		ccfg := topo.Churn.config(i, topo.Clients)
		ccfg.Flow = cl.ClientFlow(i, 0)
		if topo.Churn.FrameLen > 0 {
			ccfg.Flow.FrameLen = topo.Churn.FrameLen
		}
		cl.AddChurnClient(i, ccfg)
	}
}

// installRPCClients attaches one RPC client per client host, round-
// robining over the NF cores; aggregate open-loop rates split evenly
// across clients. A qos section's clientDSCPs round-robin over the
// clients, marking each request flow's service class.
func installRPCClients(cl *idio.Cluster, topo *Topology, qspec *QoSSpec, nfCores []int) error {
	rpc := topo.RPC
	var mode fnet.Mode
	switch rpc.Mode {
	case "open":
		mode = fnet.ModeOpen
	case "closed":
		mode = fnet.ModeClosed
	case "ramp":
		mode = fnet.ModeRamp
	default:
		return fmt.Errorf("scenario: unknown rpc mode %q", rpc.Mode)
	}
	for i := 0; i < topo.Clients; i++ {
		core := nfCores[i%len(nfCores)]
		ccfg := fnet.ClientConfig{
			Mode:        mode,
			RateBps:     traffic.Gbps(rpc.Gbps) / int64(topo.Clients),
			RampToBps:   traffic.Gbps(rpc.RampToGbps) / int64(topo.Clients),
			Outstanding: rpc.Outstanding,
			Requests:    rpc.Requests,
			Timeout:     sim.Duration(rpc.TimeoutUS * float64(sim.Microsecond)),
		}
		if rpc.Retry != nil {
			ccfg.Retry = rpc.Retry.config(i)
		}
		ccfg.Flow = cl.ClientFlow(i, core)
		if rpc.FrameLen > 0 {
			ccfg.Flow.FrameLen = rpc.FrameLen
		}
		if qspec != nil && len(qspec.ClientDSCPs) > 0 {
			ccfg.Flow.DSCP = qspec.ClientDSCPs[i%len(qspec.ClientDSCPs)]
		}
		cl.AddRPCClient(i, core, ccfg)
	}
	return nil
}
