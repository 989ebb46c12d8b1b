package system

import (
	"skybyte/internal/core"
	"skybyte/internal/cpu"
	"skybyte/internal/cxl"
	"skybyte/internal/flash"
	"skybyte/internal/ftl"
	"skybyte/internal/sim"
	"skybyte/internal/stats"
	"skybyte/internal/telemetry"
)

// Result carries every measurement the evaluation consumes.
type Result struct {
	Variant string

	// CacheKey is the stable identity of the design point that produced
	// this result (workload|variant|budget|threads|src=…|cfg=…, the
	// last segment the resolved config's fingerprint). The runner sets
	// it when it executes a spec; a given key always maps to the same
	// measurements because simulations are deterministic, which is what
	// makes memoizing and de-duplicating runs by key sound.
	CacheKey string

	// ExecTime is when the last thread retired its final instruction.
	ExecTime sim.Time
	// Instructions is the total retired (each thread's trace length).
	Instructions uint64

	Bound     stats.Boundedness      // Figs. 4 and 10
	Breakdown stats.RequestBreakdown // Fig. 16
	AMAT      stats.AMAT             // Fig. 17
	ReadLat   stats.LatencyHist      // Fig. 3
	FlashLat  stats.LatencyHist      // Table III

	Traffic    stats.FlashTraffic // Figs. 18 and 20 (controller + GC merged)
	FTLStats   ftl.Stats
	FlashStats flash.Stats
	LinkStats  cxl.Stats
	CacheStats core.PageCacheStats
	Compaction core.CompactionStats

	CtxSwitches  uint64 // all context switches performed by cores
	HintSwitches uint64 // those caused by SkyByte-Delay
	HintsSent    uint64 // NDR SkyByte-Delay messages from the device
	Migration    MigrationStats

	LLCMisses        uint64
	MPKI             float64 // LLC misses per kilo-instruction
	LogIndexPeak     int     // peak write-log index footprint, bytes
	SSDBandwidthBps  float64 // delivered CXL link goodput
	FlashUtilization float64

	// Locality CDFs (Figs. 5–6) when TrackLocality was on.
	ReadLocality  []stats.CDFPoint
	WriteLocality []stats.CDFPoint

	// Tenants carries the per-tenant accounting of a multi-tenant run
	// (DeclareTenants), in tenant declaration order; nil for solo runs.
	// The whole-system measurements above are the tenants' merged —
	// instructions, boundedness, request classes, read latencies,
	// context switches, hints, LLC misses — so every split sums to its
	// total by construction (TestSplitsReconcile).
	Tenants []TenantResult `json:",omitempty"`

	// OpenLoop carries the per-SLO-class request accounting of an
	// arrival-driven run (DeclareSLOClasses + AttachGate); nil for
	// closed-loop runs. Total is the classes merged
	// (TestSplitsReconcile).
	OpenLoop *OpenLoopResult `json:",omitempty"`

	// Telemetry carries the sampled probe time-series (and, for
	// timeline runs, the request-lifecycle spans) of a run with
	// Config.TelemetryCadence set; nil otherwise. Sampling is driven by
	// the deterministic event engine, so the section is byte-identical
	// at any parallelism and flows through the result store like every
	// other measurement.
	Telemetry *telemetry.Snapshot `json:",omitempty"`

	// Devices carries the per-device accounting of a fleet run
	// (Config.Devices >= 2), in device order; nil for the single-device
	// machine (Devices 0 or 1). The device-side fields above — flash
	// traffic, FTL/flash/cache/compaction stats, log index peaks — are
	// the devices' summed (TestSplitsReconcile); Placement names the
	// resolved placement policy and FleetMigrations counts hot/cold
	// inter-device page transfers.
	Devices         []DeviceResult `json:",omitempty"`
	Placement       string         `json:",omitempty"`
	FleetMigrations uint64         `json:",omitempty"`
}

// DeviceResult is one SSD backend's share of a fleet run: the same
// device-side measurement vocabulary as the whole-system Result,
// restricted to one controller+FTL+flash backend, plus the placement
// layer's page accounting and the device's downstream-port traffic.
type DeviceResult struct {
	// Device is the backend's index (the placement layer's device id).
	Device int
	// Pages is the number of logical pages the device owned at the end
	// of the run (first-touch accounting, net of migrations away).
	Pages uint64
	// Inbound counts hot/cold migrations that landed on this device
	// (0 under static policies).
	Inbound uint64

	Traffic    stats.FlashTraffic // controller + GC merged, as in Result.Traffic
	FTLStats   ftl.Stats
	FlashStats flash.Stats
	CacheStats core.PageCacheStats
	Compaction core.CompactionStats

	LogIndexPeak     int
	FlashUtilization float64

	// Port is the device's downstream CXL attachment traffic.
	Port cxl.Stats
}

// OpenLoopResult is the open-loop section of a Result: one entry per
// declared SLO class plus the all-classes total.
type OpenLoopResult struct {
	Classes []SLOClassResult
	Total   stats.OpenStats
}

// SLOClassResult is one SLO class's measurements: the offered load the
// arrival spec computed for it and the admitted/completed counts with
// sojourn-latency and queue-delay histograms.
type SLOClassResult struct {
	Name       string
	OfferedRPS float64
	Stats      stats.OpenStats
}

// TenantResult is one tenant group's share of a mixed run: the same
// measurement vocabulary as the whole-system Result, restricted to the
// threads (and their memory requests) of one tenant.
type TenantResult struct {
	// Name and Workload identify the tenant group and what it ran.
	Name     string
	Workload string
	// Threads is the group's software thread count.
	Threads int

	// Instructions is the group's total retired instruction count.
	Instructions uint64
	// ExecTime is when the group's last thread retired — the tenant's
	// completion time, the basis of per-tenant slowdown.
	ExecTime sim.Time

	Bound     stats.Boundedness      // where this tenant's core time went
	Breakdown stats.RequestBreakdown // the tenant's off-chip request classes
	AMAT      stats.AMAT             // the tenant's demand-access components
	ReadLat   stats.LatencyHist      // the tenant's off-chip read latencies

	CtxSwitches  uint64 // context switches the tenant's threads experienced
	HintSwitches uint64 // those triggered by SkyByte-Delay exceptions
	HintsSent    uint64 // NDR SkyByte-Delay messages for the tenant's reads
	Enqueues     uint64 // run-queue insertions of the tenant's threads
	LLCMisses    uint64
	MPKI         float64

	// Log splits the write path by tenant: who fills the write log
	// (forcing the compaction drains everyone shares) and who eats
	// backpressure stalls.
	Log core.TenantLogStats
}

// IPS returns the tenant's retired instructions per second of simulated
// time (its progress rate while co-located).
func (t *TenantResult) IPS() float64 {
	secs := t.ExecTime.Seconds()
	if secs == 0 {
		return 0
	}
	return float64(t.Instructions) / secs
}

// IPS returns retired instructions per second of simulated time.
func (r *Result) IPS() float64 {
	secs := r.ExecTime.Seconds()
	if secs == 0 {
		return 0
	}
	return float64(r.Instructions) / secs
}

// Speedup returns base.ExecTime / r.ExecTime.
func (r *Result) Speedup(base *Result) float64 {
	if r.ExecTime == 0 {
		return 0
	}
	return float64(base.ExecTime) / float64(r.ExecTime)
}

// collect assembles the Result. Every measurement lives in one part —
// a tenant part and its threads, a device, an SLO class — and each
// whole-system total is its parts merged, so splits and totals cannot
// drift apart (TestSplitsReconcile). Solo runs have one tenant part and
// single-device runs one device; their sections are omitted.
func (s *System) collect() *Result {
	r := &Result{Variant: s.cfg.Name, FlashLat: s.flashLat, Migration: s.migr}
	tenants := s.collectTenants()
	for i := range tenants {
		tr := &tenants[i]
		if tr.ExecTime > r.ExecTime {
			r.ExecTime = tr.ExecTime
		}
		r.Instructions += tr.Instructions
		stats.Sum(&r.Bound, &tr.Bound)
		stats.Sum(&r.Breakdown, &tr.Breakdown)
		stats.Sum(&r.AMAT, &tr.AMAT)
		r.ReadLat.Merge(&tr.ReadLat)
		r.CtxSwitches += tr.CtxSwitches
		r.HintSwitches += tr.HintSwitches
		r.HintsSent += tr.HintsSent
		r.LLCMisses += tr.LLCMisses
	}
	if r.Instructions > 0 {
		r.MPKI = float64(r.LLCMisses) / float64(r.Instructions) * 1000
	}
	if len(s.tenantInfo) > 0 {
		r.Tenants = tenants
	}

	devices := make([]DeviceResult, len(s.devs))
	var utilSum float64
	for i := range s.devs {
		devices[i] = s.collectDevice(i)
		dr := &devices[i]
		stats.Sum(&r.Traffic, &dr.Traffic)
		stats.Sum(&r.FTLStats, &dr.FTLStats)
		stats.Sum(&r.FlashStats, &dr.FlashStats)
		stats.Sum(&r.CacheStats, &dr.CacheStats)
		stats.Sum(&r.Compaction, &dr.Compaction)
		r.LogIndexPeak += dr.LogIndexPeak
		utilSum += dr.FlashUtilization
	}
	r.FlashUtilization = utilSum / float64(len(s.devs))
	if s.placer != nil {
		r.Devices = devices
		r.Placement = string(s.placer.Policy())
		r.FleetMigrations = s.placer.Migrations()
	}

	r.LinkStats = s.link.Stats()
	if secs := r.ExecTime.Seconds(); secs > 0 {
		r.SSDBandwidthBps = float64(r.LinkStats.ToDeviceBytes+r.LinkStats.ToHostBytes) / secs
	}
	if s.cfg.TrackLocality {
		ctrl := s.devs[0].ctrl
		r.ReadLocality = ctrl.ReadLocality.CDF()
		r.WriteLocality = ctrl.WriteLocality.CDF()
	}
	s.collectOpenLoop(r)
	if s.tel != nil {
		r.Telemetry = s.tel.Snapshot()
	}
	return r
}

// collectTenants returns one TenantResult per tenant part: the part's
// request-path measurements, its threads' scheduler and core-time
// accounts, and its write-log activity summed over every device its
// pages map to.
func (s *System) collectTenants() []TenantResult {
	tenants := make([]TenantResult, len(s.parts))
	for i := range tenants {
		tr, p := &tenants[i], &s.parts[i]
		if i < len(s.tenantInfo) {
			info := s.tenantInfo[i]
			tr.Name, tr.Workload, tr.Threads = info.Name, info.Workload, info.Threads
		}
		tr.ExecTime = p.done
		tr.Breakdown = p.breakdown
		tr.AMAT = p.amat
		tr.ReadLat = p.readLat
		tr.HintsSent = p.hints
	}
	for _, d := range s.devs {
		tlog := d.ctrl.TenantLog()
		for i := range tlog {
			stats.Sum(&tenants[i].Log, &tlog[i])
		}
	}
	for _, t := range s.threads {
		tr := &tenants[t.Tenant]
		tr.Instructions += t.Progress
		stats.Sum(&tr.Bound, &t.Bound)
		tr.CtxSwitches += t.Switches
		tr.HintSwitches += t.HintSwitches
		tr.Enqueues += t.Enqueues
		tr.LLCMisses += t.LLCMisses
	}
	for i := range tenants {
		if tr := &tenants[i]; tr.Instructions > 0 {
			tr.MPKI = float64(tr.LLCMisses) / float64(tr.Instructions) * 1000
		}
	}
	return tenants
}

// collectDevice returns device i's share of the run.
func (s *System) collectDevice(i int) DeviceResult {
	d := s.devs[i]
	dr := DeviceResult{Device: i, FTLStats: d.fl.Stats()}
	dr.Traffic = d.ctrl.Traffic
	dr.Traffic.GCReads = dr.FTLStats.GCReads
	dr.Traffic.GCPrograms = dr.FTLStats.GCPrograms
	dr.Traffic.Erases = dr.FTLStats.Erases
	dr.Traffic.GCInvocations = dr.FTLStats.GCInvocations
	for _, t := range d.ctrl.TenantLog() {
		dr.Traffic.LinesAbsorbed += t.LinesAbsorbed
	}
	dr.FlashStats = d.arr.Stats()
	dr.CacheStats = d.ctrl.Cache().Stats
	dr.Compaction = d.ctrl.Compaction
	if logs := d.ctrl.Logs(); logs[0] != nil {
		dr.LogIndexPeak = logs[0].Stats().PeakIndex + logs[1].Stats().PeakIndex
	}
	dr.FlashUtilization = d.arr.Utilization()
	if d.port != nil {
		dr.Port = d.port.Stats()
	}
	if s.placer != nil {
		dr.Pages = s.placer.Pages(i)
		dr.Inbound = s.placer.Inbound(i)
	}
	return dr
}

// collectOpenLoop assembles the per-SLO-class section of an
// arrival-driven run; the total is the classes merged.
func (s *System) collectOpenLoop(r *Result) {
	if len(s.sloInfo) == 0 {
		return
	}
	ol := &OpenLoopResult{Classes: make([]SLOClassResult, len(s.sloInfo))}
	for i, info := range s.sloInfo {
		ol.Classes[i] = SLOClassResult{Name: info.Name, OfferedRPS: info.OfferedRPS, Stats: s.sloStats[i]}
		ol.Total.Merge(&s.sloStats[i])
	}
	r.OpenLoop = ol
}

var _ cpu.Backend = (*System)(nil)
