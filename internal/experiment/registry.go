package experiment

import (
	"fmt"
	"slices"

	"idio/internal/scenario"
	"idio/internal/sim"
)

// Scale sizes a registry run.
type Scale struct {
	// Quick shrinks every experiment to the reduced geometry below.
	Quick bool
	// Parallelism bounds each experiment's worker pool (0 =
	// GOMAXPROCS, 1 = serial). Results are independent of it; only
	// wall-clock time changes.
	Parallelism int
}

// The quick geometry: 256-entry rings with the caches scaled 4x down,
// so ring footprint against cache capacity keeps the paper-scale
// ratios. Verify checks its claims at this scale too.
const (
	quickRing = 256
	quickMLC  = 256 << 10
	quickLLC  = 768 << 10
)

// apply sets a figure's worker-pool size and, in quick runs, its ring
// and cache sizes. A nil pointer leaves that option alone: fig5 has no
// pool, fig4 sweeps its own rings, fig11 and fig12 keep paper-scale
// caches.
func (s Scale) apply(par, ring, mlc, llc *int) {
	if par != nil {
		*par = s.Parallelism
	}
	if !s.Quick {
		return
	}
	if ring != nil {
		*ring = quickRing
	}
	if mlc != nil {
		*mlc, *llc = quickMLC, quickLLC
	}
}

// Entry is one registered experiment: the name `idiosim -exp` takes
// and the function that runs it and renders its results.
type Entry struct {
	Name string
	Run  func(Scale, Output)
}

// Registry lists every experiment in output order. `idiosim -exp`,
// `-exp all`, `-report` and the parallel-determinism test all iterate
// it, so an experiment added here reaches every one of them.
var Registry = []Entry{
	{"fig4", func(s Scale, out Output) {
		o := DefaultFig4Opts()
		s.apply(&o.Parallelism, nil, &o.MLCSize, &o.LLCSize)
		if s.Quick {
			o.Rings = []int{64, quickRing}
			o.OneWayRings = []int{quickRing}
			o.Loads["low"] = 0.5
		}
		out.Table("Fig 4: MLC/DRAM leaks vs load and ring size (DDIO baseline)",
			Fig4Header(), Rows(Fig4(o)))
	}},
	{"fig5", func(s Scale, out Output) {
		o := DefaultFig5Opts()
		s.apply(nil, &o.RingSize, &o.MLCSize, &o.LLCSize)
		res := Fig5(o)
		out.Text("Fig 5: bursty TouchDrop under DDIO",
			fmt.Sprintf("processed=%d  totalMLCWB=%d  totalLLCWB=%d  (timeline: %d buckets)",
				res.Processed, res.TotalMLCWB, res.TotalLLCWB, len(res.MLCWB.Points)))
		out.Series("fig5_timeline.csv", res.MLCWB, res.LLCWB, res.DMA)
	}},
	{"fig9", func(s Scale, out Output) {
		o := DefaultFig9Opts()
		s.apply(&o.Parallelism, &o.RingSize, &o.MLCSize, &o.LLCSize)
		cells := Fig9(o)
		out.Table("Fig 9: per-mechanism burst comparison (2x TouchDrop)", Fig9Header(), Rows(cells))
		for _, c := range cells {
			out.Series(fmt.Sprintf("fig9_%s_%.0fG.csv", c.Policy.Name(), c.RateGbps), c.MLCWB, c.LLCWB, c.DMA)
		}
	}},
	{"fig10", func(s Scale, out Output) {
		o := DefaultFig10Opts()
		s.apply(&o.Parallelism, &o.RingSize, &o.MLCSize, &o.LLCSize)
		out.Table("Fig 10: Static/IDIO normalized to DDIO (lower is better)",
			Fig10Header(), Rows(Fig10(o)))
	}},
	{"fig11", func(s Scale, out Output) {
		o := DefaultFig11Opts()
		s.apply(&o.Parallelism, &o.RingSize, nil, nil)
		res := Fig11(o)
		out.Text(fmt.Sprintf("Fig 11: L2Fwd (zero-copy shallow NF), %d-byte packets", o.FrameLen),
			fmt.Sprintf("DDIO: mlcWB=%d llcWB=%d dramWr=%d exe=%.0fus",
				res.DDIO.Summary.MLCWB, res.DDIO.Summary.LLCWB, res.DDIO.Summary.DRAMWrites, res.DDIO.Summary.ExeTimeUS),
			fmt.Sprintf("IDIO: mlcWB=%d llcWB=%d dramWr=%d exe=%.0fus",
				res.IDIO.Summary.MLCWB, res.IDIO.Summary.LLCWB, res.IDIO.Summary.DRAMWrites, res.IDIO.Summary.ExeTimeUS),
			fmt.Sprintf("Direct-DRAM variant (class-1 payload): RX=%.2f Gbps, DRAM write=%.2f Gbps",
				res.DirectDRAM.RxGbps, res.DirectDRAM.DRAMWriteGbps))
		out.Series("fig11_ddio.csv", res.DDIO.MLCWB, res.DDIO.LLCWB)
		out.Series("fig11_idio.csv", res.IDIO.MLCWB, res.IDIO.LLCWB)
	}},
	{"fig12", func(s Scale, out Output) {
		o := DefaultFig12Opts()
		s.apply(&o.Parallelism, &o.RingSize, nil, nil)
		out.Table("Fig 12: p50/p99 latency normalized to DDIO solo", Fig12Header(), Rows(Fig12(o)))
	}},
	{"fig13", func(s Scale, out Output) {
		o := DefaultFig13Opts()
		s.apply(&o.Parallelism, &o.RingSize, &o.MLCSize, &o.LLCSize)
		if s.Quick {
			o.Packets = 2048
		}
		res := Fig13(o)
		out.Text("Fig 13: steady traffic (10 Gbps per TouchDrop)",
			fmt.Sprintf("DDIO: mlcWB=%d llcWB=%d drops=%d p99=%.1fus",
				res.DDIO.Summary.MLCWB, res.DDIO.Summary.LLCWB, res.DDIO.Summary.Drops, res.DDIO.Summary.P99US),
			fmt.Sprintf("IDIO: mlcWB=%d llcWB=%d drops=%d p99=%.1fus",
				res.IDIO.Summary.MLCWB, res.IDIO.Summary.LLCWB, res.IDIO.Summary.Drops, res.IDIO.Summary.P99US))
		out.Series("fig13_ddio.csv", res.DDIO.MLCWB, res.DDIO.LLCWB)
		out.Series("fig13_idio.csv", res.IDIO.MLCWB, res.IDIO.LLCWB)
	}},
	{"fig14", func(s Scale, out Output) {
		o := DefaultFig14Opts()
		s.apply(&o.Parallelism, &o.RingSize, &o.MLCSize, &o.LLCSize)
		out.Table("Fig 14: IDIO sensitivity to mlcTHR at 100 Gbps (normalized to DDIO)",
			Fig14Header(), Rows(Fig14(o)))
	}},
	{"breakdown", func(s Scale, out Output) {
		o := DefaultBreakdownOpts()
		s.apply(&o.Parallelism, &o.RingSize, &o.MLCSize, &o.LLCSize)
		out.Table("Latency breakdown (us): notification / queueing / service",
			BreakdownHeader(), Rows(Breakdown(o)))
	}},
	{"ablations", func(s Scale, out Output) {
		o := DefaultAblationOpts()
		s.apply(&o.Parallelism, &o.RingSize, &o.MLCSize, &o.LLCSize)
		hot := o
		hot.RateGbps = 100
		var rows []AblationRow
		rows = append(rows, AblationDDIOWays(o, []int{1, 2, 4})...)
		rows = append(rows, AblationRingSize(o, []int{64, 256, o.RingSize})...)
		rows = append(rows, AblationPrefetchDepth(o, []int{4, 32, 128})...)
		rows = append(rows, AblationDescCoalescing(o,
			[]sim.Duration{0, 1900 * sim.Nanosecond, 20 * sim.Microsecond})...)
		rows = append(rows, AblationAdaptivePrefetch(hot)...)
		rows = append(rows, AblationMLP(hot, []int{1, 4, 8, 32})...)
		rows = append(rows, AblationReplacement(o)...)
		rows = append(rows, AblationInclusion(o)...)
		rows = append(rows, AblationFrameSize(o, []int{128, 512, 1514})...)
		out.Table("Ablations: design-choice sweeps (Fig. 9 scenario)", AblationHeader(), Rows(rows))

		b := DefaultBaselineOpts()
		s.apply(&b.Parallelism, &b.RingSize, &b.MLCSize, &b.LLCSize)
		out.Table("Baselines: static DDIO vs IAT-style dynamic ways vs IDIO (100 Gbps burst)",
			BaselineHeader(), Rows(Baselines(b)))
	}},
	{"degradation", func(s Scale, out Output) {
		o := DefaultDegradationOpts()
		s.apply(&o.Parallelism, &o.RingSize, &o.MLCSize, &o.LLCSize)
		out.Table("Degradation: DDIO vs IDIO under swept fault rates (drops / p99 / WB inflation)",
			DegradationHeader(), Rows(Degradation(o)))
	}},
	{"rpc", func(s Scale, out Output) { rpcTable(out, rpcOpts(s)) }},
	{"chaos", func(s Scale, out Output) {
		o := DefaultChaosOpts()
		s.apply(&o.Parallelism, &o.RingSize, &o.MLCSize, &o.LLCSize)
		if s.Quick {
			o.Requests = 10000
			o.Horizon = 25 * sim.Millisecond
		}
		out.Table("Chaos: scripted fault timeline, per-phase behaviour and time-to-recover (DDIO vs IDIO)",
			ChaosHeader(), Rows(Chaos(o)))
	}},
	{"qos", func(s Scale, out Output) {
		o := DefaultQoSOpts()
		s.apply(&o.Parallelism, &o.RingSize, &o.MLCSize, &o.LLCSize)
		if s.Quick {
			o.EFRequests = 32
			o.Horizon = 4 * sim.Millisecond
		}
		out.Table("QoS: per-class SLOs under a saturating bulk+scavenger mix (DDIO vs IDIO vs QoS-aware IDIO)",
			QoSHeader(), Rows(QoS(o)))
	}},
	{"churn", func(s Scale, out Output) {
		o := DefaultChurnOpts()
		s.apply(&o.Parallelism, &o.RingSize, &o.MLCSize, &o.LLCSize)
		if s.Quick {
			o.Flows = []int{1_000, 65_536}
			o.Horizon = 4 * sim.Millisecond
		}
		out.Table("Churn: constant offered load over growing concurrent-flow populations (DDIO vs IDIO)",
			ChurnHeader(), Rows(Churn(o)))
	}},
}

func rpcOpts(s Scale) RPCOpts {
	o := DefaultRPCOpts()
	s.apply(&o.Parallelism, &o.RingSize, &o.MLCSize, &o.LLCSize)
	if s.Quick {
		o.Requests = 512
		o.LoadsGbps = []float64{5, 15, 25}
		o.Windows = []int{1, 16}
	}
	return o
}

func rpcTable(out Output, o RPCOpts) {
	out.Table("RPC: end-to-end latency vs offered load over the fabric (DDIO vs IDIO)",
		RPCHeader(), Rows(RPC(o)))
}

// RPCScenario runs the RPC sweep parameterised by a scenario's
// topology section (see RPCOpts.ApplyScenario).
func RPCScenario(s Scale, sc *scenario.Scenario, out Output) error {
	o := rpcOpts(s)
	if err := o.ApplyScenario(sc); err != nil {
		return err
	}
	rpcTable(out, o)
	return nil
}

// ApplyScenario maps a scenario's topology onto the sweep: geometry
// (cores, clients, links, ring) and request shape come from the file,
// and the scenario's own operating point is folded into the swept axis
// so the curve always includes it.
func (o *RPCOpts) ApplyScenario(sc *scenario.Scenario) error {
	topo := sc.Topology
	if topo == nil {
		return fmt.Errorf("scenario %q has no topology section; -exp rpc needs one", sc.Name)
	}
	o.Cores = sc.Cores
	o.Clients = topo.Clients
	o.Link = topo.ClientLink.LinkConfig()
	if sc.RingSize > 0 {
		o.RingSize = sc.RingSize
	}
	if sc.HorizonMS > 0 {
		o.Horizon = sim.Duration(sc.HorizonMS * float64(sim.Millisecond))
	}
	rpc := topo.RPC
	if rpc == nil {
		return nil
	}
	if rpc.FrameLen > 0 {
		o.FrameLen = rpc.FrameLen
	}
	if rpc.Requests > 0 {
		o.Requests = rpc.Requests
	}
	if rpc.TimeoutUS > 0 {
		o.Timeout = sim.Duration(rpc.TimeoutUS * float64(sim.Microsecond))
	}
	switch rpc.Mode {
	case "closed":
		if rpc.Outstanding > 0 && !slices.Contains(o.Windows, rpc.Outstanding) {
			o.Windows = append(o.Windows, rpc.Outstanding)
		}
	case "open", "ramp":
		if rpc.Gbps > 0 && !slices.Contains(o.LoadsGbps, rpc.Gbps) {
			o.LoadsGbps = append(o.LoadsGbps, rpc.Gbps)
		}
	}
	return nil
}
