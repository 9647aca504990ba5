package stats

import (
	"math/rand"
	"slices"
	"testing"

	"idio/internal/sim"
)

// refDist is the reference LatencyDist: it keeps samples in arrival
// order and sorts a fresh copy for every query.
type refDist []sim.Duration

func (r refDist) percentile(p float64) sim.Duration {
	if len(r) == 0 {
		return 0
	}
	s := slices.Clone(r)
	slices.Sort(s)
	rank := int(p/100*float64(len(s))+0.9999999) - 1
	rank = max(0, min(rank, len(s)-1))
	return s[rank]
}

func (r refDist) mean() sim.Duration {
	if len(r) == 0 {
		return 0
	}
	var sum int64
	for _, v := range r {
		sum += int64(v)
	}
	return sim.Duration(sum / int64(len(r)))
}

func (r refDist) max() sim.Duration {
	var m sim.Duration
	for _, v := range r {
		m = max(m, v)
	}
	return m
}

// Property: under random interleavings of recording and querying, the
// incremental sorted-prefix store answers every query exactly as a
// full re-sort would — duplicates, zeros, negative values, single
// samples and repeated queries with no new samples included.
func TestQuickLatencyDistMatchesResort(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d := NewLatencyDist()
		var ref refDist
		// Narrow value ranges force duplicates; wide ones force long
		// runs on either side of the merge.
		span := []int64{1, 4, 100, 1 << 40}[rng.Intn(4)]
		sample := func() sim.Duration {
			switch rng.Intn(20) {
			case 0:
				return 0
			case 1:
				return -sim.Duration(rng.Int63n(span) + 1)
			}
			return sim.Duration(rng.Int63n(span))
		}
		for op := 0; op < 300; op++ {
			switch k := rng.Intn(10); {
			case k < 4:
				for n := rng.Intn(1 + rng.Intn(64)); n >= 0; n-- {
					v := sample()
					d.Record(v)
					ref = append(ref, v)
				}
			case k == 4:
				d.Reserve(d.Count() + rng.Intn(128))
			case k == 5:
				if got, want := d.P50(), ref.percentile(50); got != want {
					t.Fatalf("seed %d op %d: P50 = %d, want %d", seed, op, got, want)
				}
			case k == 6:
				if got, want := d.P99(), ref.percentile(99); got != want {
					t.Fatalf("seed %d op %d: P99 = %d, want %d", seed, op, got, want)
				}
			case k == 7:
				p := 100 * (1 - rng.Float64()) // (0, 100]
				if got, want := d.Percentile(p), ref.percentile(p); got != want {
					t.Fatalf("seed %d op %d: P%v = %d, want %d", seed, op, p, got, want)
				}
			case k == 8:
				if got, want := d.Mean(), ref.mean(); got != want {
					t.Fatalf("seed %d op %d: Mean = %d, want %d", seed, op, got, want)
				}
			default:
				if got, want := d.Max(), ref.max(); got != want {
					t.Fatalf("seed %d op %d: Max = %d, want %d", seed, op, got, want)
				}
			}
			if d.Count() != len(ref) {
				t.Fatalf("seed %d op %d: Count = %d, want %d", seed, op, d.Count(), len(ref))
			}
		}
		// After a final query the whole store is one sorted run.
		d.Percentile(100)
		want := slices.Clone(ref)
		slices.Sort(want)
		if !slices.Equal(d.samples, want) {
			t.Fatalf("seed %d: store is not the sorted sample set", seed)
		}
	}
}

func TestLatencyDistSingleSampleAndRepeatedQueries(t *testing.T) {
	d := NewLatencyDist()
	d.Record(0)
	for i := 0; i < 3; i++ {
		if d.P50() != 0 || d.P99() != 0 || d.Mean() != 0 || d.Max() != 0 {
			t.Fatal("single zero sample must report zeros")
		}
	}
	d.Record(7)
	d.Record(7)
	for i := 0; i < 3; i++ {
		if d.P50() != 7 || d.Percentile(1) != 0 || d.Max() != 7 || d.Mean() != 4 {
			t.Fatalf("p50=%d p1=%d max=%d mean=%d", d.P50(), d.Percentile(1), d.Max(), d.Mean())
		}
	}
}

// quantileFullScan is Histogram.Quantile before per-magnitude row
// totals: it walks every sub-bucket of every magnitude.
func quantileFullScan(h *Histogram, q float64) sim.Duration {
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

// Property: skipping whole magnitude rows by their totals returns the
// same quantile as the full sub-bucket scan, across Record, Merge and
// Reset, at the coarsest, default and finest resolutions.
func TestQuickHistogramQuantileMatchesFullScan(t *testing.T) {
	qs := []float64{0, 0.001, 0.25, 0.5, 0.9, 0.99, 0.999, 1}
	for _, subBits := range []uint{1, 5, 8} {
		for seed := int64(1); seed <= 50; seed++ {
			rng := rand.New(rand.NewSource(seed))
			h := NewHistogram(subBits)
			record := func(h *Histogram, n int) {
				for ; n > 0; n-- {
					h.Record(sim.Duration(rng.Int63n(1 << uint(rng.Intn(40)))))
				}
			}
			for op := 0; op < 60; op++ {
				switch k := rng.Intn(10); {
				case k < 6:
					record(h, rng.Intn(200))
				case k < 9:
					o := NewHistogram(subBits)
					record(o, rng.Intn(200))
					h.Merge(o)
				default:
					h.Reset()
				}
				for _, q := range append(qs, rng.Float64()) {
					if got, want := h.Quantile(q), quantileFullScan(h, q); got != want {
						t.Fatalf("subBits %d seed %d op %d: Quantile(%v) = %d, want %d",
							subBits, seed, op, q, got, want)
					}
				}
			}
		}
	}
}
