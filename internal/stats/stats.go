// Package stats provides the measurement vocabulary for the simulator:
// latency histograms with percentile queries (Fig. 3), execution-time
// boundedness breakdowns (Figs. 4 and 10), memory-request breakdowns
// (Fig. 16), AMAT component accounting (Fig. 17), and flash-traffic counters
// (Figs. 18 and 20).
package stats

import (
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strconv"

	"skybyte/internal/sim"
)

// LatencyHist is a logarithmic histogram of latencies. Buckets are
// sub-divided powers of two between 1 ns and ~17 ms, which comfortably spans
// L1 hits through garbage-collection tails.
type LatencyHist struct {
	buckets [bucketCount]uint64
	count   uint64
	sum     sim.Time
	max     sim.Time
}

const (
	subBuckets  = 8 // sub-buckets per power of two
	maxExp      = 24
	bucketCount = maxExp * subBuckets
)

func bucketOf(d sim.Time) int {
	ns := d / sim.Nanosecond
	if ns < 1 {
		ns = 1
	}
	exp := 63 - bits.LeadingZeros64(uint64(ns))
	if exp >= maxExp {
		return bucketCount - 1
	}
	frac := 0
	if exp > 0 {
		frac = int((uint64(ns) - 1<<uint(exp)) * subBuckets >> uint(exp))
	}
	return exp*subBuckets + frac
}

// bucketLow returns the lower bound latency of bucket i.
func bucketLow(i int) sim.Time {
	exp := i / subBuckets
	frac := i % subBuckets
	base := sim.Time(1) << uint(exp)
	return (base + base*sim.Time(frac)/subBuckets) * sim.Nanosecond
}

// Observe records one latency sample.
func (h *LatencyHist) Observe(d sim.Time) {
	h.buckets[bucketOf(d)]++
	h.count++
	h.sum += d
	if d > h.max {
		h.max = d
	}
}

// Count returns the number of recorded samples.
func (h *LatencyHist) Count() uint64 { return h.count }

// Mean returns the mean latency, or 0 with no samples.
func (h *LatencyHist) Mean() sim.Time {
	if h.count == 0 {
		return 0
	}
	return h.sum / sim.Time(h.count)
}

// Max returns the largest recorded sample.
func (h *LatencyHist) Max() sim.Time { return h.max }

// Sum returns the total of all samples.
func (h *LatencyHist) Sum() sim.Time { return h.sum }

// Percentile returns an estimate of the p-th percentile (0 < p <= 100).
func (h *LatencyHist) Percentile(p float64) sim.Time {
	if h.count == 0 {
		return 0
	}
	target := uint64(math.Ceil(p / 100 * float64(h.count)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, c := range h.buckets {
		cum += c
		if cum >= target {
			return bucketLow(i)
		}
	}
	return h.max
}

// FractionBelow returns the fraction of samples strictly in buckets whose
// lower bound is below d.
func (h *LatencyHist) FractionBelow(d sim.Time) float64 {
	if h.count == 0 {
		return 0
	}
	var below uint64
	for i, c := range h.buckets {
		if bucketLow(i) >= d {
			break
		}
		below += c
	}
	return float64(below) / float64(h.count)
}

// Reset clears all samples.
func (h *LatencyHist) Reset() { *h = LatencyHist{} }

// Merge adds every sample of other into h. Observing the union of two
// sample sets and merging two histograms over the halves produce
// identical state, which is what lets per-class open-loop splits be
// checked against the system total bucket for bucket.
func (h *LatencyHist) Merge(other *LatencyHist) {
	for i, c := range other.buckets {
		h.buckets[i] += c
	}
	h.count += other.count
	h.sum += other.sum
	if other.max > h.max {
		h.max = other.max
	}
}

// latencyHistWire is the serialized form of LatencyHist. Buckets are
// sparse (index -> count) because most of the ~200 buckets are empty;
// encoding/json writes map keys sorted, so the encoding is canonical.
type latencyHistWire struct {
	Buckets map[string]uint64 `json:"buckets,omitempty"`
	Count   uint64            `json:"count"`
	Sum     sim.Time          `json:"sum"`
	Max     sim.Time          `json:"max"`
}

// MarshalJSON encodes the histogram canonically (identical samples in
// any order always produce identical bytes), which the persistent
// result store relies on for content addressing.
func (h LatencyHist) MarshalJSON() ([]byte, error) {
	w := latencyHistWire{Count: h.count, Sum: h.sum, Max: h.max}
	for i, c := range h.buckets {
		if c != 0 {
			if w.Buckets == nil {
				w.Buckets = make(map[string]uint64)
			}
			w.Buckets[fmt.Sprintf("%d", i)] = c
		}
	}
	return json.Marshal(w)
}

// UnmarshalJSON restores a histogram written by MarshalJSON. A bucket
// index outside the current layout is an error, so a histogram encoded
// under a different bucketing scheme cannot decode silently skewed.
func (h *LatencyHist) UnmarshalJSON(data []byte) error {
	var w latencyHistWire
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	h.Reset()
	h.count, h.sum, h.max = w.Count, w.Sum, w.Max
	for k, c := range w.Buckets {
		i, err := strconv.Atoi(k)
		if err != nil || i < 0 || i >= bucketCount {
			return fmt.Errorf("stats: latency histogram bucket %q out of range", k)
		}
		h.buckets[i] = c
	}
	return nil
}

// CDFPoint is one point of an empirical CDF.
type CDFPoint struct {
	Value float64 // sample value (units depend on producer)
	Cum   float64 // cumulative fraction in (0,1]
}

// Ratio renders a/b with a guard for b == 0.
func Ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// JainIndex returns Jain's fairness index over xs:
// (Σx)² / (n·Σx²), in (0,1] — 1 when every value is equal, 1/n when a
// single tenant receives everything. Multi-tenant tables apply it to
// per-tenant slowdowns (or normalized throughputs). Zero shares count
// toward n — a fully starved tenant drives the index down, it does
// not vanish from it; negative values (which no rate can produce)
// clamp to zero. An all-zero or empty input returns 0.
func JainIndex(xs []float64) float64 {
	sum, sumSq := 0.0, 0.0
	for _, x := range xs {
		if x < 0 {
			x = 0
		}
		sum += x
		sumSq += x * x
	}
	if len(xs) == 0 || sumSq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}

// MaxMinRatio returns max(xs)/min(xs) over the positive values — the
// worst-to-best disparity a co-located tenant experiences (1 = perfectly
// even). Returns 0 with no positive values.
func MaxMinRatio(xs []float64) float64 {
	lo, hi := math.Inf(1), 0.0
	for _, x := range xs {
		if x <= 0 {
			continue
		}
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	if hi == 0 {
		return 0
	}
	return hi / lo
}

// GeoMean returns the geometric mean of xs (ignoring non-positive values),
// matching the paper's "geo. mean" columns.
func GeoMean(xs []float64) float64 {
	sum, n := 0.0, 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// Distribution summarises a set of float samples (used for per-page
// locality ratios in Figs. 5–6).
type Distribution struct {
	Samples []float64
}

// Add records one sample.
func (d *Distribution) Add(x float64) { d.Samples = append(d.Samples, x) }

// CDF returns the empirical CDF of the samples, sorted ascending.
func (d *Distribution) CDF() []CDFPoint {
	if len(d.Samples) == 0 {
		return nil
	}
	s := append([]float64(nil), d.Samples...)
	sort.Float64s(s)
	out := make([]CDFPoint, len(s))
	for i, v := range s {
		out[i] = CDFPoint{Value: v, Cum: float64(i+1) / float64(len(s))}
	}
	return out
}

// FractionAtOrBelow returns the fraction of samples <= x.
func (d *Distribution) FractionAtOrBelow(x float64) float64 {
	if len(d.Samples) == 0 {
		return 0
	}
	n := 0
	for _, v := range d.Samples {
		if v <= x {
			n++
		}
	}
	return float64(n) / float64(len(d.Samples))
}

// Mean returns the arithmetic mean of the samples.
func (d *Distribution) Mean() float64 {
	if len(d.Samples) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range d.Samples {
		sum += v
	}
	return sum / float64(len(d.Samples))
}

// FormatGB renders a byte count as "X.XXGB"-style text.
func FormatGB(b uint64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.2fGB", float64(b)/float64(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.2fMB", float64(b)/float64(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.2fKB", float64(b)/float64(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}
