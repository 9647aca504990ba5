package main

import (
	"time"

	"idio"
	idiocore "idio/internal/core"
)

// halves are the placement-policy suffixes of the per-policy metrics;
// a workload without a host of that policy reports 0 for it.
var halves = []struct {
	suffix string
	policy idiocore.Policy
}{
	{"ddio", idiocore.PolicyDDIO},
	{"idio", idiocore.PolicyIDIO},
}

// layerMetrics builds the per-layer metrics of a traced run.
// Simulated counts are differences over the digest window, so they
// repeat exactly for a workload and seed; host times come from the
// traced steps and the set-up spans.
func layerMetrics(w workload, tm timed, sps []spans, collects, renders []float64) map[string]metric {
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	// Spans around the benchmark's own calls into the simulator.
	put("span.build_s", setupMedian(sps, func(s spans) float64 { return s.build }), "s")
	put("span.attach_s", setupMedian(sps, func(s spans) float64 { return s.attach }), "s")
	put("span.start_s", setupMedian(sps, func(s spans) float64 { return s.start }), "s")
	put("span.warmup_s", setupMedian(sps, func(s spans) float64 { return s.warmup }), "s")
	put("span.step_s", median(stepMillis(tm.traced))/1e3, "s")
	put("span.collect_s", median(collects), "s")
	put("span.render_s", median(renders), "s")

	// Host self-time by module, from the CPU profile of the traced steps.
	for _, mod := range modules {
		put("self."+mod, tm.profile.Share(mod), "share")
	}
	put("self.samples", float64(tm.profile.Samples), "count")

	// Tracing overhead: the traced steps against the untraced ones.
	untraced, _ := throughput(tm.untraced, w.period)
	traced, _ := throughput(tm.traced, w.period)
	put("untraced.pkts_per_s", untraced, "1/s")
	put("traced.pkts_per_s", traced, "1/s")
	put("count.steps", float64(len(tm.traced.wall)), "count")
	put("count.traced_pkts", float64(tm.traced.pkts()), "count")
	var traceWall, traceCPU time.Duration
	for i := range tm.traced.wall {
		traceWall += tm.traced.wall[i]
		traceCPU += tm.traced.cpu[i]
	}
	put("sim.ns_per_event", ratio(float64(traceWall.Nanoseconds()), float64(tm.traceEvents)), "ns")
	put("engine.cpu_over_wall", ratio(traceCPU.Seconds(), traceWall.Seconds()), "ratio")
	put("gc.cycles", float64(tm.gcCycles), "count")
	put("gc.pause_ms", float64(tm.gcPause.Nanoseconds())/1e6, "ms")
	put("heap_inuse_mb", float64(tm.heapInuse)/(1<<20), "MiB")
	put("allocs_per_pkt", tm.allocsPerPkt(), "1/pkt")

	simulatedCounts(tm.win, put)
	return m
}

// simulatedCounts adds the per-layer work counts over the digest
// window [from, to].
func simulatedCounts(win window, put func(string, float64, string)) {
	a, b := win.from, win.to
	pkts := float64(b.rx - a.rx)
	perPkt := func(x uint64) float64 { return ratio(float64(x), pkts) }
	put("count.pkts", pkts, "count")

	// sim: event kernel and timer wheel.
	put("sim.events", float64(b.events-a.events), "count")
	put("sim.events_per_pkt", perPkt(b.events-a.events), "1/pkt")
	put("sim.pending_max", float64(win.pendingMax), "count")
	var ticks, cascades uint64
	if cb, ca := b.rs[0].res.Churn, a.rs[0].res.Churn; cb != nil && ca != nil {
		ticks, cascades = cb.WheelTicks-ca.WheelTicks, cb.WheelCascades-ca.WheelCascades
	}
	put("wheel.ticks_per_pkt", perPkt(ticks), "1/pkt")
	put("wheel.cascades_per_pkt", perPkt(cascades), "1/pkt")

	// cache/hier, dram and core, per placement-policy half.
	for _, h := range halves {
		var hs, hsA idio.Results // zero when no host runs this policy
		for i := range b.rs {
			if b.rs[i].policy == h.policy {
				hs, hsA = b.rs[i].res, a.rs[i].res
			}
		}
		hp := float64(hs.NIC.RxPackets - hsA.NIC.RxPackets)
		x, y := hs.Hier, hsA.Hier
		per := func(v uint64) float64 { return ratio(float64(v), hp) }
		demand := (x.DemandL1Hit + x.DemandMLCHit + x.DemandLLCHit + x.DemandDRAM) -
			(y.DemandL1Hit + y.DemandMLCHit + y.DemandLLCHit + y.DemandDRAM)
		sfx := "." + h.suffix
		put("hier.demand_per_pkt"+sfx, per(demand), "1/pkt")
		put("hier.onchip_hit_ratio"+sfx, ratio(float64(demand-(x.DemandDRAM-y.DemandDRAM)), float64(demand)), "ratio")
		put("hier.mlc_wb_per_pkt"+sfx, per(x.MLCWriteback-y.MLCWriteback), "1/pkt")
		put("hier.llc_wb_per_pkt"+sfx, per(x.LLCWriteback-y.LLCWriteback), "1/pkt")
		put("hier.mlc_inval_per_pkt"+sfx, per(x.MLCInval-y.MLCInval), "1/pkt")
		put("hier.self_inval_per_pkt"+sfx, per(x.SelfInval-y.SelfInval), "1/pkt")
		put("hier.ddio_alloc_per_pkt"+sfx, per(x.DDIOAlloc-y.DDIOAlloc), "1/pkt")
		put("hier.dir_back_inval_per_pkt"+sfx, per(x.DirBackInval-y.DirBackInval), "1/pkt")
		dram := (hs.DRAMReads + hs.DRAMWrites) - (hsA.DRAMReads + hsA.DRAMWrites)
		put("dram.accesses_per_pkt"+sfx, per(dram), "1/pkt")
		hits := hs.DRAMRowHits - hsA.DRAMRowHits
		put("dram.row_hit_ratio"+sfx, ratio(float64(hits), float64(hits+hs.DRAMRowMisses-hsA.DRAMRowMisses)), "ratio")
		if h.policy == idiocore.PolicyIDIO {
			fills := x.PrefetchFill - y.PrefetchFill
			put("core.prefetch_fill_ratio", ratio(float64(fills), float64(fills+x.PrefetchDrop-y.PrefetchDrop)), "ratio")
		}
	}

	// nic/pcie, cpu/apps and pkt, summed over hosts.
	var dma, rx, drops, processed, gets, allocs, highWater uint64
	var busy, span float64
	for i := range b.rs {
		x, y := b.rs[i].res, a.rs[i].res
		dma += x.NIC.DMAWrites - y.NIC.DMAWrites
		rx += x.NIC.RxPackets - y.NIC.RxPackets
		drops += x.NIC.RxDrops - y.NIC.RxDrops
		processed += x.TotalProcessed() - y.TotalProcessed()
		for c := range x.Cores {
			busy += float64(x.Cores[c].BusyTime - y.Cores[c].BusyTime)
			span += float64(x.Now - y.Now)
		}
		gets += x.PktPool.Gets - y.PktPool.Gets
		allocs += x.PktPool.Allocs - y.PktPool.Allocs
		highWater += x.PktPool.HighWater
	}
	put("nic.dma_lines_per_pkt", perPkt(dma), "1/pkt")
	put("nic.rx_drop_ratio", ratio(float64(drops), float64(rx+drops)), "ratio")
	put("cpu.busy_frac", ratio(busy, span), "ratio")
	put("cpu.processed_per_pkt", perPkt(processed), "1/pkt")
	put("pkt.pool_gets_per_pkt", perPkt(gets), "1/pkt")
	put("pkt.pool_allocs", float64(allocs), "count")
	put("pkt.pool_high_water", float64(highWater), "count")

	// net: links, switch and clients.
	var linkTx, fwd, tail uint64
	if fb, fa := b.rs[0].res.Fabric, a.rs[0].res.Fabric; fb != nil && fa != nil {
		for i := range fb.Links {
			linkTx += fb.Links[i].Stats.TxPackets - fa.Links[i].Stats.TxPackets
			tail += fb.Links[i].Stats.TailDrops - fa.Links[i].Stats.TailDrops
		}
		fwd = fb.Switch.Forwarded - fa.Switch.Forwarded
	}
	put("net.link_tx_per_pkt", perPkt(linkTx), "1/pkt")
	put("net.switch_fwd_per_pkt", perPkt(fwd), "1/pkt")
	put("net.tail_drops", float64(tail), "count")
	var issued, resp, retries, timeouts uint64
	if rb, ra := b.rs[0].res.RPC, a.rs[0].res.RPC; rb != nil && ra != nil {
		issued, resp = rb.Issued-ra.Issued, rb.Responses-ra.Responses
		retries, timeouts = rb.Retries-ra.Retries, rb.Timeouts-ra.Timeouts
	}
	put("rpc.resp_ratio", ratio(float64(resp), float64(issued)), "ratio")
	put("rpc.retries_per_req", ratio(float64(retries), float64(issued)), "1/req")
	put("rpc.timeouts_per_req", ratio(float64(timeouts), float64(issued)), "1/req")

	// flow: the churn client's flow table and the NIC's flow stats.
	var load, active, tracked, refusals float64
	if ch := b.rs[0].res.Churn; ch != nil {
		load, active = ch.TableLoad, float64(ch.ActiveFlows)
		tracked, refusals = float64(ch.NICFlowsTracked), float64(ch.NICFlowRefusals)
	}
	put("churn.table_load", load, "ratio")
	put("churn.active_flows", active, "count")
	put("nic.flows_tracked", tracked, "count")
	put("nic.flow_refusals", refusals, "count")
}
