// Package obs is the simulator-wide observability layer: a metric
// registry every component registers its counters and gauges into, a
// periodic time-series sampler over that registry, and a sampled
// structured event tracer that follows a packet's journey through the
// system — NIC DMA → PCIe TLP placement (LLC/DDIO, MLC hint, or DRAM
// detour) → MLC prefetch → core service → free — with pluggable sinks
// (Chrome trace-event JSON for Perfetto, per-packet CSV, null).
//
// The layer is designed to cost nothing when disabled: components hold
// a *Observer and guard every emission behind Tracing/TracingPacket,
// which compile to a couple of pointer loads and a branch (zero
// allocations — enforced by TestDisabledObserverZeroAllocs and the
// benchmarks in bench_test.go). A nil *Observer is valid and inert, so
// hand-wired components need no observability plumbing at all.
package obs

import (
	"idio/internal/mem"
	"idio/internal/sim"
)

// Config enables the optional observability features. The zero value
// disables everything (the registry itself is always available).
type Config struct {
	// TraceSampleN enables the structured event tracer, sampling every
	// N-th packet by generator sequence number (1 traces everything,
	// 0 disables tracing).
	TraceSampleN int
	// MetricsInterval enables periodic registry snapshots at this
	// simulated period (0 disables time-series collection).
	MetricsInterval sim.Duration
}

// Enabled reports whether any optional feature is on.
func (c Config) Enabled() bool { return c.TraceSampleN > 0 || c.MetricsInterval > 0 }

// Observer is the single handle components observe through: metric
// registration, trace emission, and periodic sampling. All methods are
// safe on a nil receiver (every call becomes a no-op), so wiring code
// may pass observers around unconditionally.
type Observer struct {
	reg      *Registry
	tr       *Tracer
	interval sim.Duration
	series   *Series
}

// New builds an observer with an empty registry. The tracer starts
// with a NullSink; attach a real sink with SetSink before running.
func New(cfg Config) *Observer {
	o := &Observer{reg: NewRegistry(), interval: cfg.MetricsInterval}
	if cfg.TraceSampleN > 0 {
		o.tr = newTracer(uint64(cfg.TraceSampleN), &NullSink{})
	}
	return o
}

// Registry returns the metric registry (nil on a nil observer).
func (o *Observer) Registry() *Registry {
	if o == nil {
		return nil
	}
	return o.reg
}

// Tracing reports whether the structured tracer is active. Hot paths
// branch on this before assembling line-level events.
func (o *Observer) Tracing() bool { return o != nil && o.tr != nil }

// TracingPacket reports whether the packet with the given sequence
// number is in the trace sample. Hot paths branch on this before
// assembling packet-level events. The sequence is folded (seq ^
// seq>>16) before sampling, so fabric clients' key<<16 | attempt wire
// numbers sample one request in sampleN rather than every first
// attempt; below 1<<16 the fold changes nothing.
func (o *Observer) TracingPacket(seq uint64) bool {
	return o != nil && o.tr != nil && (seq^seq>>16)%o.tr.sampleN == 0
}

// SetSink replaces the tracer's sink. It is a no-op when tracing is
// disabled; callers own the sink's lifecycle (call its Close after the
// run, or CloseSink to close through the observer).
func (o *Observer) SetSink(s Sink) {
	if o == nil || o.tr == nil || s == nil {
		return
	}
	o.tr.sink = s
}

// CloseSink flushes and closes the tracer's sink, returning its error.
func (o *Observer) CloseSink() error {
	if o == nil || o.tr == nil {
		return nil
	}
	return o.tr.sink.Close()
}

// Emit forwards a fully-formed event to the sink. Callers must have
// checked Tracing/TracingPacket; Emit itself tolerates a disabled
// tracer so guards can stay coarse.
func (o *Observer) Emit(e Event) {
	if o == nil || o.tr == nil {
		return
	}
	o.tr.emit(e)
}

// MarkLines associates every cacheline of a region with a sampled
// packet, so later line-level events (TLP placement, writebacks,
// prefetches) can be attributed to the packet's journey. Ring buffers
// are reused, so a line's attribution is simply overwritten when the
// next sampled packet lands in the same slot.
func (o *Observer) MarkLines(seq uint64, r mem.Region) {
	if o == nil || o.tr == nil {
		return
	}
	r.Lines(func(l mem.LineAddr) { o.tr.lines[uint64(l)] = seq })
}

// LineEvent emits an event for a cacheline if — and only if — the line
// belongs to a sampled packet's journey. Unattributed lines are
// dropped, which is what keeps tracing cheap at full DMA rate.
func (o *Observer) LineEvent(kind EventKind, at sim.Time, line uint64, core int, arg string, dur sim.Duration) {
	if o == nil || o.tr == nil {
		return
	}
	seq, ok := o.tr.lines[line]
	if !ok {
		return
	}
	o.tr.emit(Event{Kind: kind, Seq: seq, Core: core, At: at, Dur: dur, Line: line, Arg: arg})
}

// EventsEmitted returns how many events reached the sink.
func (o *Observer) EventsEmitted() uint64 {
	if o == nil || o.tr == nil {
		return 0
	}
	return o.tr.emitted
}

// MetricsInterval returns the configured snapshot period (0 when
// time-series collection is off).
func (o *Observer) MetricsInterval() sim.Duration {
	if o == nil {
		return 0
	}
	return o.interval
}

// SampleMetrics appends one registry snapshot to the metric series at
// simulated time now. The column set is frozen on the first call.
func (o *Observer) SampleMetrics(now sim.Time) {
	if o == nil {
		return
	}
	if o.series == nil {
		o.series = newSeries(o.reg.Names())
	}
	o.series.record(now, o.reg)
}

// Metrics returns the collected time series (nil when SampleMetrics
// never ran).
func (o *Observer) Metrics() *Series {
	if o == nil {
		return nil
	}
	return o.series
}
