package stats

import (
	"fmt"
	"math/bits"

	"idio/internal/sim"
)

// Histogram is a log-bucketed latency histogram with bounded memory,
// for arbitrarily long steady-state runs where LatencyDist's exact
// sample storage would grow without bound. Buckets are arranged HDR
// style: 2^subBits linear sub-buckets per power-of-two magnitude, so
// the relative quantile error is bounded by 1/2^subBits.
type Histogram struct {
	subBits uint
	counts  [][]uint64 // [magnitude][sub-bucket]
	rows    []uint64   // per-magnitude total of counts[mag]
	total   uint64
	min     sim.Duration
	max     sim.Duration
	sum     int64
}

// NewHistogram builds a histogram with 2^subBits sub-buckets per
// magnitude (subBits in [1,8]; 5 gives ~3% worst-case quantile error).
func NewHistogram(subBits uint) *Histogram {
	if subBits < 1 || subBits > 8 {
		panic(fmt.Sprintf("stats: histogram subBits %d out of range", subBits))
	}
	return &Histogram{subBits: subBits, min: -1}
}

// bucketFor maps a value to (magnitude, sub-bucket).
func (h *Histogram) bucketFor(v sim.Duration) (int, int) {
	if v < 0 {
		v = 0
	}
	u := uint64(v)
	mag := bits.Len64(u) // 0 for v==0
	if mag <= int(h.subBits) {
		return 0, int(u)
	}
	// Top subBits bits below the leading one select the sub-bucket.
	sub := int((u >> (uint(mag) - 1 - h.subBits)) & (1<<h.subBits - 1))
	return mag - int(h.subBits), sub
}

// lowerBound returns the smallest value mapping to (mag, sub).
func (h *Histogram) lowerBound(mag, sub int) sim.Duration {
	if mag == 0 {
		return sim.Duration(sub)
	}
	base := uint64(1) << (uint(mag) + h.subBits - 1)
	step := uint64(1) << (uint(mag) - 1)
	return sim.Duration(base + uint64(sub)*step)
}

// Record adds one sample.
func (h *Histogram) Record(v sim.Duration) {
	mag, sub := h.bucketFor(v)
	for len(h.counts) <= mag {
		h.grow()
	}
	h.counts[mag][sub]++
	h.rows[mag]++
	h.total++
	h.sum += int64(v)
	if h.min < 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// grow adds one magnitude row.
func (h *Histogram) grow() {
	h.counts = append(h.counts, make([]uint64, 1<<h.subBits))
	h.rows = append(h.rows, 0)
}

// Reset clears every recorded sample while keeping the allocated
// bucket storage, so windowed collectors (per-phase percentiles in
// chaos runs) can reuse one histogram without per-window allocation.
func (h *Histogram) Reset() {
	for mag := range h.counts {
		clear(h.counts[mag])
	}
	clear(h.rows)
	h.total = 0
	h.min = -1
	h.max = 0
	h.sum = 0
}

// Merge folds o's samples into h by bucket addition. Both histograms
// must use the same sub-bucket resolution. Because every tracked
// quantity (bucket counts, total, exact sum/min/max) is
// order-independent, merging per-domain histograms at collection time
// reproduces exactly the state one shared histogram would have
// reached recording the same samples — which is how a sharded cluster
// keeps its aggregate latency percentiles byte-identical to the
// single-domain run.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil || o.total == 0 {
		return
	}
	if o.subBits != h.subBits {
		panic(fmt.Sprintf("stats: merging histograms with subBits %d and %d", o.subBits, h.subBits))
	}
	for len(h.counts) < len(o.counts) {
		h.grow()
	}
	for mag := range o.counts {
		if o.rows[mag] == 0 {
			continue
		}
		row := h.counts[mag]
		for sub, c := range o.counts[mag] {
			row[sub] += c
		}
		h.rows[mag] += o.rows[mag]
	}
	h.total += o.total
	h.sum += o.sum
	if h.min < 0 || o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() uint64 { return h.total }

// Mean returns the exact average (the sum is tracked exactly).
func (h *Histogram) Mean() sim.Duration {
	if h.total == 0 {
		return 0
	}
	return sim.Duration(h.sum / int64(h.total))
}

// Min and Max are exact.
func (h *Histogram) Min() sim.Duration {
	if h.min < 0 {
		return 0
	}
	return h.min
}

// Max returns the largest recorded sample.
func (h *Histogram) Max() sim.Duration { return h.max }

// Quantile returns an estimate of the q-quantile (0 < q <= 1), with
// relative error bounded by the bucket resolution. Exact min/max are
// returned at the extremes. The per-magnitude row totals let it skip
// every row below the rank, so it scans at most one row's sub-buckets.
func (h *Histogram) Quantile(q float64) sim.Duration {
	if h.total == 0 {
		return 0
	}
	if q <= 0 {
		return h.Min()
	}
	if q >= 1 {
		return h.max
	}
	rank := uint64(q * float64(h.total))
	if rank >= h.total {
		rank = h.total - 1
	}
	var seen uint64
	for mag := range h.counts {
		if seen+h.rows[mag] <= rank {
			seen += h.rows[mag]
			continue
		}
		for sub, c := range h.counts[mag] {
			seen += c
			if seen > rank {
				v := h.lowerBound(mag, sub)
				if v < h.Min() {
					v = h.Min()
				}
				if v > h.max {
					v = h.max
				}
				return v
			}
		}
	}
	return h.max
}

// P50 returns the median estimate.
func (h *Histogram) P50() sim.Duration { return h.Quantile(0.50) }

// P99 returns the 99th-percentile estimate.
func (h *Histogram) P99() sim.Duration { return h.Quantile(0.99) }
