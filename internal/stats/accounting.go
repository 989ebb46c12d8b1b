package stats

import (
	"reflect"

	"skybyte/internal/sim"
)

// Boundedness accumulates where core time goes: executing instructions,
// stalled on memory, or context switching (Figs. 4 and 10). Times are summed
// across cores.
type Boundedness struct {
	Compute   sim.Time
	MemStall  sim.Time
	CtxSwitch sim.Time
}

// Total returns the sum of all accounted time.
func (b Boundedness) Total() sim.Time { return b.Compute + b.MemStall + b.CtxSwitch }

// MemFrac returns the fraction of time bounded by memory.
func (b Boundedness) MemFrac() float64 {
	t := b.Total()
	if t == 0 {
		return 0
	}
	return float64(b.MemStall) / float64(t)
}

// ComputeFrac returns the fraction of time bounded by compute.
func (b Boundedness) ComputeFrac() float64 {
	t := b.Total()
	if t == 0 {
		return 0
	}
	return float64(b.Compute) / float64(t)
}

// CtxFrac returns the fraction of time spent context switching.
func (b Boundedness) CtxFrac() float64 {
	t := b.Total()
	if t == 0 {
		return 0
	}
	return float64(b.CtxSwitch) / float64(t)
}

// RequestClass classifies an off-chip memory request the way Fig. 16 does.
type RequestClass int

// Request classes. HostRW covers reads and writes served by host DRAM
// (including promoted pages); SSDReadHit/Miss split CXL-SSD reads by whether
// the SSD DRAM (write log or data cache) held the line; SSDWrite covers all
// CXL-SSD writes (the paper does not split write hits/misses because with
// the write log every write appends).
const (
	HostRW RequestClass = iota
	SSDReadHit
	SSDReadMiss
	SSDWrite
	requestClassCount
)

// String names the class with the paper's Fig. 16 labels.
func (c RequestClass) String() string {
	switch c {
	case HostRW:
		return "H-R/W"
	case SSDReadHit:
		return "S-R-H"
	case SSDReadMiss:
		return "S-R-M"
	case SSDWrite:
		return "S-W"
	}
	return "?"
}

// RequestBreakdown counts off-chip requests per class.
type RequestBreakdown struct {
	Counts [requestClassCount]uint64
}

// Inc increments the count of class c.
func (r *RequestBreakdown) Inc(c RequestClass) { r.Counts[c]++ }

// Total returns the number of classified requests.
func (r *RequestBreakdown) Total() uint64 {
	var t uint64
	for _, c := range r.Counts {
		t += c
	}
	return t
}

// Frac returns the fraction of requests in class c.
func (r *RequestBreakdown) Frac(c RequestClass) float64 {
	t := r.Total()
	if t == 0 {
		return 0
	}
	return float64(r.Counts[c]) / float64(t)
}

// AMATComponent labels one layer of the three-level memory hierarchy AMAT
// model of Fig. 17.
type AMATComponent int

// AMAT components, in the paper's stacking order.
const (
	AMATHostDRAM AMATComponent = iota
	AMATCXLProtocol
	AMATIndexing
	AMATSSDDRAM
	AMATFlash
	amatComponentCount
)

// String names the component with the paper's Fig. 17 labels.
func (c AMATComponent) String() string {
	switch c {
	case AMATHostDRAM:
		return "Host DRAM"
	case AMATCXLProtocol:
		return "CXL Protocol"
	case AMATIndexing:
		return "Indexing"
	case AMATSSDDRAM:
		return "SSD DRAM"
	case AMATFlash:
		return "Flash"
	}
	return "?"
}

// AMAT accumulates per-component time over demand accesses. The average
// memory access time is Sum(components)/Accesses.
type AMAT struct {
	Time     [amatComponentCount]sim.Time
	Accesses uint64
}

// AddAccess records one demand access with its per-component latencies.
func (a *AMAT) AddAccess(parts [amatComponentCount]sim.Time) {
	for i, p := range parts {
		a.Time[i] += p
	}
	a.Accesses++
}

// Mean returns the average access time in picoseconds.
func (a *AMAT) Mean() sim.Time {
	if a.Accesses == 0 {
		return 0
	}
	var sum sim.Time
	for _, t := range a.Time {
		sum += t
	}
	return sum / sim.Time(a.Accesses)
}

// MeanOf returns the average per-access contribution of one component.
func (a *AMAT) MeanOf(c AMATComponent) sim.Time {
	if a.Accesses == 0 {
		return 0
	}
	return a.Time[c] / sim.Time(a.Accesses)
}

// FlashTraffic counts flash-level operations split by cause, supporting
// Fig. 18 (write traffic) and write-amplification analysis.
type FlashTraffic struct {
	HostReads      uint64 // page reads serving demand misses
	PrefetchReads  uint64 // page reads issued by Base-CSSD prefetch
	CompactReads   uint64 // page reads during log compaction (coalescing buffer fills)
	GCReads        uint64 // valid-page reads during garbage collection
	HostPrograms   uint64 // page programs from cache eviction / RMW writeback
	CompactWrites  uint64 // page programs during log compaction
	GCPrograms     uint64 // valid-page rewrites during garbage collection
	DemoteWrites   uint64 // page programs caused by demotion from host DRAM
	Erases         uint64
	GCInvocations  uint64
	LinesAbsorbed  uint64 // cacheline writes absorbed by the write log
	LinesCoalesced uint64 // logged lines dropped as stale during compaction
}

// TotalPrograms returns all page programs (the Fig. 18 metric).
func (f *FlashTraffic) TotalPrograms() uint64 {
	return f.HostPrograms + f.CompactWrites + f.GCPrograms + f.DemoteWrites
}

// TotalReads returns all flash page reads.
func (f *FlashTraffic) TotalReads() uint64 {
	return f.HostReads + f.PrefetchReads + f.CompactReads + f.GCReads
}

// Sum adds every field of *src into the same field of *dst. T must be
// built only of integer fields (sim.Time included), possibly nested in
// arrays and structs — the shape of every counter set here and in the
// device packages; any other field kind panics. It is how a total is
// derived from its splits: one part at a time, with no per-type
// field lists to keep in step. Sum does not allocate.
func Sum[T any](dst, src *T) {
	sumValue(reflect.ValueOf(dst).Elem(), reflect.ValueOf(src).Elem())
}

func sumValue(d, s reflect.Value) {
	switch d.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		d.SetInt(d.Int() + s.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		d.SetUint(d.Uint() + s.Uint())
	case reflect.Array:
		for i := 0; i < d.Len(); i++ {
			sumValue(d.Index(i), s.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < d.NumField(); i++ {
			sumValue(d.Field(i), s.Field(i))
		}
	default:
		panic("stats: Sum over a non-integer field of type " + d.Type().String())
	}
}
