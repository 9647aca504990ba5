// Package stats provides the measurement machinery used across the
// simulator: monotonic counters, fixed-interval timeline samplers (the
// paper reports rates over 10 µs buckets), and latency distributions
// with percentile queries.
package stats

import (
	"fmt"
	"slices"
	"sort"

	"idio/internal/sim"
)

// Counter is a monotonically increasing event counter.
type Counter struct {
	n uint64
}

// Add increments the counter by delta.
func (c *Counter) Add(delta uint64) { c.n += delta }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.n++ }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n }

// Reset zeroes the counter.
func (c *Counter) Reset() { c.n = 0 }

// Snapshot captures a counter value at a point in time; Delta computes
// the increment since a prior snapshot.
type Snapshot uint64

// Snap returns a snapshot of the counter.
func (c *Counter) Snap() Snapshot { return Snapshot(c.n) }

// Delta returns the counter increment since the snapshot was taken.
func (c *Counter) Delta(s Snapshot) uint64 { return c.n - uint64(s) }

// Timeline accumulates event counts into fixed-width time buckets so
// that per-interval rates (e.g. MLC writebacks per 10 µs) can be
// reported the way the paper's timeline figures do.
type Timeline struct {
	bucket  sim.Duration
	counts  []uint64
	horizon sim.Time
}

// NewTimeline creates a timeline with the given bucket width.
func NewTimeline(bucket sim.Duration) *Timeline {
	if bucket <= 0 {
		panic("stats: non-positive timeline bucket")
	}
	return &Timeline{bucket: bucket}
}

// Bucket returns the bucket width.
func (tl *Timeline) Bucket() sim.Duration { return tl.bucket }

// Record adds n events at time t.
func (tl *Timeline) Record(t sim.Time, n uint64) {
	idx := int(int64(t) / int64(tl.bucket))
	for len(tl.counts) <= idx {
		tl.counts = append(tl.counts, 0)
	}
	tl.counts[idx] += n
	if t > tl.horizon {
		tl.horizon = t
	}
}

// NumBuckets returns the number of buckets with recorded data range.
func (tl *Timeline) NumBuckets() int { return len(tl.counts) }

// Count returns the raw event count in bucket i.
func (tl *Timeline) Count(i int) uint64 {
	if i < 0 || i >= len(tl.counts) {
		return 0
	}
	return tl.counts[i]
}

// Total returns the total number of events recorded.
func (tl *Timeline) Total() uint64 {
	var sum uint64
	for _, c := range tl.counts {
		sum += c
	}
	return sum
}

// RateMTPS returns the bucket-i event rate in millions of transactions
// per second, the unit used throughout the paper's figures.
func (tl *Timeline) RateMTPS(i int) float64 {
	secs := sim.Duration(tl.bucket).Seconds()
	return float64(tl.Count(i)) / secs / 1e6
}

// Series returns (time in µs of bucket start, rate in MTPS) pairs for
// every bucket, suitable for CSV output.
type SeriesPoint struct {
	TimeUS float64
	MTPS   float64
}

// Series materialises the whole timeline.
func (tl *Timeline) Series() []SeriesPoint {
	out := make([]SeriesPoint, len(tl.counts))
	for i := range tl.counts {
		out[i] = SeriesPoint{
			TimeUS: float64(int64(tl.bucket)*int64(i)) / float64(sim.Microsecond),
			MTPS:   tl.RateMTPS(i),
		}
	}
	return out
}

// PeakMTPS returns the maximum bucket rate.
func (tl *Timeline) PeakMTPS() float64 {
	var peak float64
	for i := range tl.counts {
		if r := tl.RateMTPS(i); r > peak {
			peak = r
		}
	}
	return peak
}

// LevelPoint is one sample of a level (gauge) series.
type LevelPoint struct {
	TimeUS float64
	Value  float64
}

// LevelSeries records point-in-time samples of a level quantity —
// occupancies, queue depths — as opposed to Timeline's event rates.
type LevelSeries struct {
	points []LevelPoint
}

// NewLevelSeries returns an empty gauge series.
func NewLevelSeries() *LevelSeries { return &LevelSeries{} }

// Record appends one sample taken at time t.
func (ls *LevelSeries) Record(t sim.Time, v float64) {
	ls.points = append(ls.points, LevelPoint{TimeUS: t.Microseconds(), Value: v})
}

// Points returns the recorded samples in order.
func (ls *LevelSeries) Points() []LevelPoint { return ls.points }

// Len returns the sample count.
func (ls *LevelSeries) Len() int { return len(ls.points) }

// Max returns the largest recorded value (0 when empty).
func (ls *LevelSeries) Max() float64 {
	var m float64
	for _, p := range ls.points {
		if p.Value > m {
			m = p.Value
		}
	}
	return m
}

// Last returns the most recent value (0 when empty).
func (ls *LevelSeries) Last() float64 {
	if len(ls.points) == 0 {
		return 0
	}
	return ls.points[len(ls.points)-1].Value
}

// LatencyDist collects per-packet latencies and answers percentile
// queries. Samples are stored raw (the experiments collect at most a
// few hundred thousand packets) so percentiles are exact.
//
// Queries cost what changed since the previous query, not the whole
// history: the store is a sorted prefix followed by an unsorted tail
// of samples recorded since. A percentile query sorts only the tail
// and merges it into the prefix (see settle), so a caller that
// snapshots after every simulation step pays O(new·log new)
// comparisons and at most one memmove of the prefix per snapshot,
// instead of re-sorting the whole history. Mean and Max come from a
// running sum and maximum in O(1).
type LatencyDist struct {
	samples []sim.Duration // samples[:sorted] ascending, then the unsorted tail
	sorted  int
	scratch []sim.Duration // reused copy of the tail during a merge
	sum     int64
	max     sim.Duration
}

// NewLatencyDist returns an empty distribution.
func NewLatencyDist() *LatencyDist { return &LatencyDist{} }

// Record adds one latency sample.
func (d *LatencyDist) Record(v sim.Duration) {
	d.samples = append(d.samples, v)
	d.sum += int64(v)
	if v > d.max {
		d.max = v
	}
}

// Reserve pre-grows the sample store to hold at least n samples, so a
// measured steady-state loop records without reallocating.
func (d *LatencyDist) Reserve(n int) {
	if cap(d.samples) >= n {
		return
	}
	grown := make([]sim.Duration, len(d.samples), n)
	copy(grown, d.samples)
	d.samples = grown
}

// Count returns the number of samples.
func (d *LatencyDist) Count() int { return len(d.samples) }

// settle sorts the unsorted tail and merges it into the sorted prefix.
// The merge runs from the back so it needs a buffer only for the tail;
// each run of prefix samples larger than the next tail sample is found
// by galloping back from the end and moved with one copy. A tail longer
// than an eighth of the prefix is instead sorted together with it: a
// run that snapshots rarely then re-sorts in place as it always did,
// and the merge buffer never holds more than a ninth of the samples.
func (d *LatencyDist) settle() {
	n := len(d.samples)
	if d.sorted == n {
		return
	}
	tail := d.samples[d.sorted:]
	if len(tail) > d.sorted/8 {
		slices.Sort(d.samples)
		d.sorted = n
		return
	}
	slices.Sort(tail)
	i := d.sorted - 1 // last unmerged prefix sample
	d.sorted = n
	if d.samples[i] <= tail[0] {
		return
	}
	d.scratch = append(d.scratch[:0], tail...)
	src := d.scratch
	k := n // samples[k:] is merged
	for j := len(src) - 1; j >= 0; {
		// Prefix samples above src[j] all land after it.
		p := gallopAbove(d.samples[:i+1], src[j])
		k -= i + 1 - p
		copy(d.samples[k:], d.samples[p:i+1])
		i = p - 1
		if i < 0 {
			copy(d.samples, src[:j+1])
			return
		}
		// Tail samples at or above the prefix's new last one come next.
		q := j
		for q > 0 && src[q-1] >= d.samples[i] {
			q--
		}
		k -= j + 1 - q
		copy(d.samples[k:], src[q:j+1])
		j = q - 1
	}
}

// gallopAbove returns the start of the run of samples greater than v
// at the end of the ascending slice s. It probes backwards from the end
// in doubling steps and then binary-searches the last step, so it costs
// O(log run) and touches memory near the end first — a binary search
// over the whole prefix would take a cache miss at almost every probe.
func gallopAbove(s []sim.Duration, v sim.Duration) int {
	hi, step := len(s), 1
	for hi > 0 && s[hi-1] > v {
		lo := max(hi-step, 0)
		if s[lo] <= v {
			return lo + 1 + sort.Search(hi-1-lo, func(x int) bool { return s[lo+1+x] > v })
		}
		hi, step = lo, step*2
	}
	return hi
}

// Percentile returns the p-th percentile (0 < p <= 100) using the
// nearest-rank method. It returns 0 for an empty distribution.
func (d *LatencyDist) Percentile(p float64) sim.Duration {
	if len(d.samples) == 0 {
		return 0
	}
	if p <= 0 || p > 100 {
		panic(fmt.Sprintf("stats: percentile %v out of range", p))
	}
	d.settle()
	rank := int(p/100*float64(len(d.samples))+0.9999999) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(d.samples) {
		rank = len(d.samples) - 1
	}
	return d.samples[rank]
}

// P50 returns the median latency.
func (d *LatencyDist) P50() sim.Duration { return d.Percentile(50) }

// P99 returns the 99th-percentile latency.
func (d *LatencyDist) P99() sim.Duration { return d.Percentile(99) }

// Mean returns the average latency.
func (d *LatencyDist) Mean() sim.Duration {
	if len(d.samples) == 0 {
		return 0
	}
	return sim.Duration(d.sum / int64(len(d.samples)))
}

// Max returns the maximum sample (0 when empty or all samples are
// negative).
func (d *LatencyDist) Max() sim.Duration { return d.max }

// Gbps converts a byte count over a duration to gigabits per second.
func Gbps(bytes uint64, over sim.Duration) float64 {
	if over <= 0 {
		return 0
	}
	return float64(bytes) * 8 / over.Seconds() / 1e9
}

// MTPS converts a transaction count over a duration to millions of
// transactions per second.
func MTPS(n uint64, over sim.Duration) float64 {
	if over <= 0 {
		return 0
	}
	return float64(n) / over.Seconds() / 1e6
}
