package stats

import (
	"bytes"
	"encoding/json"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"skybyte/internal/sim"
)

// TestLatencyHistJSONRoundTrip pins the histogram codec behind the
// persistent result store: samples, percentiles, and canonical bytes
// all survive marshal/unmarshal.
func TestLatencyHistJSONRoundTrip(t *testing.T) {
	var h LatencyHist
	for _, d := range []sim.Time{3 * sim.Nanosecond, 180 * sim.Nanosecond, 3 * sim.Microsecond, 2 * sim.Millisecond} {
		for i := 0; i < 5; i++ {
			h.Observe(d)
		}
	}
	a, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	var got LatencyHist
	if err := json.Unmarshal(a, &got); err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatal("histogram did not round-trip")
	}
	if got.Percentile(99) != h.Percentile(99) || got.Mean() != h.Mean() || got.Max() != h.Max() || got.Count() != h.Count() {
		t.Fatal("histogram queries diverge after round-trip")
	}
	b, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("encoding not canonical:\n%s\n%s", a, b)
	}
	var empty LatencyHist
	data, err := json.Marshal(empty)
	if err != nil {
		t.Fatal(err)
	}
	var back LatencyHist
	if err := json.Unmarshal(data, &back); err != nil || back != empty {
		t.Fatalf("empty histogram round-trip: %v", err)
	}
}

func TestLatencyHistJSONRejectsBadBuckets(t *testing.T) {
	for _, bad := range []string{
		`{"buckets":{"-1":3},"count":3,"sum":1,"max":1}`,
		`{"buckets":{"100000":3},"count":3,"sum":1,"max":1}`,
		`{"buckets":{"x":3},"count":3,"sum":1,"max":1}`,
	} {
		var h LatencyHist
		if err := json.Unmarshal([]byte(bad), &h); err == nil {
			t.Errorf("accepted out-of-range bucket: %s", bad)
		}
	}
}

func TestLatencyHistBasics(t *testing.T) {
	var h LatencyHist
	h.Observe(100 * sim.Nanosecond)
	h.Observe(200 * sim.Nanosecond)
	h.Observe(300 * sim.Nanosecond)
	if h.Count() != 3 {
		t.Fatalf("Count = %d", h.Count())
	}
	if h.Mean() != 200*sim.Nanosecond {
		t.Fatalf("Mean = %v", h.Mean())
	}
	if h.Max() != 300*sim.Nanosecond {
		t.Fatalf("Max = %v", h.Max())
	}
	if h.Sum() != 600*sim.Nanosecond {
		t.Fatalf("Sum = %v", h.Sum())
	}
}

func TestLatencyHistPercentiles(t *testing.T) {
	var h LatencyHist
	// 90 fast samples, 10 slow samples: p50 should be fast, p99 slow.
	for i := 0; i < 90; i++ {
		h.Observe(100 * sim.Nanosecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(3 * sim.Microsecond)
	}
	p50 := h.Percentile(50)
	p99 := h.Percentile(99)
	if p50 > 200*sim.Nanosecond {
		t.Errorf("p50 = %v, want ~100ns", p50)
	}
	if p99 < sim.Microsecond {
		t.Errorf("p99 = %v, want >=1µs", p99)
	}
	if got := h.FractionBelow(sim.Microsecond); math.Abs(got-0.9) > 0.02 {
		t.Errorf("FractionBelow(1µs) = %v, want ~0.9", got)
	}
}

func TestLatencyHistCDFMonotone(t *testing.T) {
	f := func(samples []uint32, probes []uint32) bool {
		var h LatencyHist
		for _, s := range samples {
			h.Observe(sim.Time(s) * sim.Nanosecond)
		}
		slices.Sort(probes)
		prev := 0.0
		for _, p := range probes {
			c := h.FractionBelow(sim.Time(p) * sim.Nanosecond)
			if c < prev || c > 1 {
				return false
			}
			prev = c
		}
		if len(samples) > 0 && h.FractionBelow(h.Max()+1) != 1 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: percentile is monotone in p and bounded by max.
func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(samples []uint16) bool {
		var h LatencyHist
		for _, s := range samples {
			h.Observe(sim.Time(s) * sim.Nanosecond)
		}
		prev := sim.Time(0)
		for _, p := range []float64{10, 25, 50, 75, 90, 99, 100} {
			v := h.Percentile(p)
			if v < prev {
				return false
			}
			prev = v
		}
		return h.Percentile(100) <= h.Max() || h.Count() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestHistReset(t *testing.T) {
	var h LatencyHist
	h.Observe(sim.Microsecond)
	h.Reset()
	if h.Count() != 0 || h.Mean() != 0 || h.Max() != 0 {
		t.Fatal("Reset did not clear histogram")
	}
}

func TestGeoMean(t *testing.T) {
	got := GeoMean([]float64{2, 8})
	if math.Abs(got-4) > 1e-9 {
		t.Errorf("GeoMean(2,8) = %v, want 4", got)
	}
	if GeoMean(nil) != 0 {
		t.Error("GeoMean(nil) should be 0")
	}
	if GeoMean([]float64{0, -1}) != 0 {
		t.Error("GeoMean of non-positive values should be 0")
	}
}

func TestJainIndex(t *testing.T) {
	if got := JainIndex([]float64{1, 1, 1, 1}); math.Abs(got-1) > 1e-12 {
		t.Errorf("equal shares: Jain = %v, want 1", got)
	}
	// One tenant gets everything: 1/n — starved tenants count, they do
	// not vanish from the index.
	if got := JainIndex([]float64{5, 0, 0, 0}); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("one-tenant-takes-all: Jain = %v, want 0.25", got)
	}
	got := JainIndex([]float64{1, 3})
	want := 16.0 / (2 * 10) // (1+3)² / (2·(1+9))
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("Jain(1,3) = %v, want %v", got, want)
	}
	if JainIndex(nil) != 0 || JainIndex([]float64{0, -2}) != 0 {
		t.Error("empty/all-zero input should yield 0")
	}
	// Negative values clamp to zero rather than poisoning the sums.
	if got := JainIndex([]float64{2, -2}); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("Jain(2,-2) = %v, want 0.5", got)
	}
}

func TestMaxMinRatio(t *testing.T) {
	if got := MaxMinRatio([]float64{2, 2, 2}); got != 1 {
		t.Errorf("even values: ratio = %v, want 1", got)
	}
	if got := MaxMinRatio([]float64{0.5, 2, -1, 0}); got != 4 {
		t.Errorf("ratio = %v, want 4 (non-positive ignored)", got)
	}
	if MaxMinRatio(nil) != 0 {
		t.Error("empty input should yield 0")
	}
}

func TestBoundedness(t *testing.T) {
	b := Boundedness{Compute: 25, MemStall: 50, CtxSwitch: 25}
	if b.Total() != 100 {
		t.Fatal("Total")
	}
	if b.MemFrac() != 0.5 || b.ComputeFrac() != 0.25 || b.CtxFrac() != 0.25 {
		t.Fatal("fractions wrong")
	}
	var zero Boundedness
	if zero.MemFrac() != 0 {
		t.Fatal("zero boundedness should have 0 fractions")
	}
	Sum(&b, &Boundedness{Compute: 75})
	if b.Compute != 100 || b.MemStall != 50 {
		t.Fatal("Sum")
	}
}

// TestSum pins the generic split merge: every integer field, nested
// arrays and structs included, adds; other field kinds panic; and a
// merge allocates nothing.
func TestSum(t *testing.T) {
	type nested struct {
		N    uint64
		Arr  [2]sim.Time
		Bnd  Boundedness
		Tiny int8
	}
	a := &nested{N: 1, Arr: [2]sim.Time{2, 3}, Bnd: Boundedness{Compute: 4}, Tiny: 5}
	b := &nested{N: 10, Arr: [2]sim.Time{20, 30}, Bnd: Boundedness{MemStall: 40, CtxSwitch: 1}, Tiny: -1}
	Sum(a, b)
	want := nested{N: 11, Arr: [2]sim.Time{22, 33}, Bnd: Boundedness{Compute: 4, MemStall: 40, CtxSwitch: 1}, Tiny: 4}
	if *a != want {
		t.Fatalf("Sum = %+v, want %+v", *a, want)
	}
	if allocs := testing.AllocsPerRun(100, func() { Sum(a, b) }); allocs != 0 {
		t.Fatalf("Sum allocated %v times per call", allocs)
	}
	var ft, one FlashTraffic
	one.HostReads, one.LinesCoalesced = 1, 2
	Sum(&ft, &one)
	Sum(&ft, &one)
	if ft.HostReads != 2 || ft.LinesCoalesced != 4 {
		t.Fatalf("FlashTraffic sum = %+v", ft)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Sum over a float field did not panic")
		}
	}()
	type withFloat struct{ F float64 }
	Sum(&withFloat{}, &withFloat{F: 1})
}

func TestRequestBreakdown(t *testing.T) {
	var r RequestBreakdown
	r.Inc(HostRW)
	r.Inc(SSDReadHit)
	r.Inc(SSDReadHit)
	r.Inc(SSDWrite)
	if r.Total() != 4 {
		t.Fatalf("Total = %d", r.Total())
	}
	if r.Frac(SSDReadHit) != 0.5 {
		t.Fatalf("Frac = %v", r.Frac(SSDReadHit))
	}
	if HostRW.String() != "H-R/W" || SSDReadMiss.String() != "S-R-M" {
		t.Fatal("class labels wrong")
	}
}

func TestAMAT(t *testing.T) {
	var a AMAT
	a.AddAccess([5]sim.Time{70 * sim.Nanosecond, 0, 0, 0, 0})
	a.AddAccess([5]sim.Time{0, 40 * sim.Nanosecond, 72 * sim.Nanosecond, 50 * sim.Nanosecond, 3 * sim.Microsecond})
	if a.Accesses != 2 {
		t.Fatal("accesses")
	}
	want := (70*sim.Nanosecond + 40*sim.Nanosecond + 72*sim.Nanosecond + 50*sim.Nanosecond + 3*sim.Microsecond) / 2
	if a.Mean() != want {
		t.Fatalf("Mean = %v, want %v", a.Mean(), want)
	}
	if a.MeanOf(AMATHostDRAM) != 35*sim.Nanosecond {
		t.Fatalf("MeanOf(host) = %v", a.MeanOf(AMATHostDRAM))
	}
	if AMATFlash.String() != "Flash" || AMATIndexing.String() != "Indexing" {
		t.Fatal("labels")
	}
}

func TestFlashTraffic(t *testing.T) {
	f := FlashTraffic{HostPrograms: 1, CompactWrites: 2, GCPrograms: 3, DemoteWrites: 4,
		HostReads: 5, PrefetchReads: 6, CompactReads: 7, GCReads: 8}
	if f.TotalPrograms() != 10 {
		t.Fatalf("TotalPrograms = %d", f.TotalPrograms())
	}
	if f.TotalReads() != 26 {
		t.Fatalf("TotalReads = %d", f.TotalReads())
	}
}

func TestDistribution(t *testing.T) {
	var d Distribution
	for _, v := range []float64{0.1, 0.5, 0.9, 0.3} {
		d.Add(v)
	}
	cdf := d.CDF()
	if len(cdf) != 4 {
		t.Fatal("cdf length")
	}
	if cdf[0].Value != 0.1 || cdf[3].Value != 0.9 || cdf[3].Cum != 1.0 {
		t.Fatalf("cdf = %+v", cdf)
	}
	if got := d.FractionAtOrBelow(0.4); got != 0.5 {
		t.Fatalf("FractionAtOrBelow = %v", got)
	}
	if math.Abs(d.Mean()-0.45) > 1e-12 {
		t.Fatalf("Mean = %v", d.Mean())
	}
}

func TestFormatGB(t *testing.T) {
	if FormatGB(1<<30) != "1.00GB" || FormatGB(512<<20) != "512.00MB" ||
		FormatGB(2048) != "2.00KB" || FormatGB(12) != "12B" {
		t.Fatal("FormatGB broken")
	}
}

func TestRatio(t *testing.T) {
	if Ratio(6, 3) != 2 || Ratio(1, 0) != 0 {
		t.Fatal("Ratio broken")
	}
}

// TestBucketOfEdges pins the histogram bucket at every power-of-two
// boundary up to maxExp: 2^k opens octave k at sub-bucket 0, 2^k−1 is the
// last sub-bucket of octave k−1, and 2^k+1 shares 2^k's bucket once an
// octave is wider than its sub-buckets. Sub-nanosecond latencies land in
// bucket 0 and everything from 2^maxExp ns on saturates the last bucket.
func TestBucketOfEdges(t *testing.T) {
	last := bucketCount - 1
	type row struct {
		ns   int64
		want int
	}
	rows := []row{{0, 0}, {1, 0}, {3, 12}, {7, 22}, {5, 18}, {9, 25}}
	for k := 1; k <= maxExp; k++ {
		lo, mid, hi := 8*k-1, 8*k, 8*k
		if k == maxExp {
			lo, mid, hi = last, last, last
		}
		switch {
		case k >= 4:
			rows = append(rows, row{1<<k - 1, lo}, row{1 << k, mid}, row{1<<k + 1, hi})
		default: // octaves 0–3 are too narrow to split 2^k+1 from 2^k
			rows = append(rows, row{1 << k, mid})
		}
	}
	rows = append(rows, row{1<<maxExp + 1, last}, row{1 << 40, last}, row{math.MaxInt64 / int64(sim.Nanosecond), last})
	for _, r := range rows {
		if got := bucketOf(sim.Time(r.ns) * sim.Nanosecond); got != r.want {
			t.Errorf("bucketOf(%d ns) = %d, want %d", r.ns, got, r.want)
		}
	}
	if got := bucketOf(sim.Nanosecond / 2); got != 0 {
		t.Errorf("bucketOf(0.5 ns) = %d, want 0", got)
	}
}
