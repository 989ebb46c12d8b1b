package system

import (
	"skybyte/internal/core"
	"skybyte/internal/cpu"
	"skybyte/internal/cxl"
	"skybyte/internal/flash"
	"skybyte/internal/fleet"
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
	// Each tenant's counters are exact splits of the whole-system
	// measurements above: instructions, boundedness, request classes,
	// context switches, LLC misses, and write-log activity all sum to
	// the system totals (TestTenantStatsSumToSystemTotals).
	Tenants []TenantResult `json:",omitempty"`

	// OpenLoop carries the per-SLO-class request accounting of an
	// arrival-driven run (DeclareSLOClasses + AttachGate); nil for
	// closed-loop runs. Class splits merge exactly into Total
	// (TestOpenLoopClassesSumToTotal).
	OpenLoop *OpenLoopResult `json:",omitempty"`

	// Telemetry carries the sampled probe time-series (and, for
	// timeline runs, the request-lifecycle spans) of a run with
	// Config.TelemetryCadence set; nil otherwise. Sampling is driven by
	// the deterministic event engine, so the section is byte-identical
	// at any parallelism and flows through the result store like every
	// other measurement.
	Telemetry *telemetry.Snapshot `json:",omitempty"`

	// Devices carries the per-device accounting of a fleet run
	// (Config.Devices >= 1), in device order; nil for legacy
	// single-device configs (Devices == 0). The summable counters —
	// flash traffic, FTL/flash/cache/compaction stats, log index peaks —
	// are exact splits of the whole-system fields above
	// (TestFleetDeviceSplitsSumToTotals); Placement names the resolved
	// placement policy and FleetMigrations counts hot/cold inter-device
	// page transfers.
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

	// Port is the device's downstream CXL attachment traffic. Zero in a
	// fleet of one, where bytes move on the shared host link alone.
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

func (s *System) collect() *Result {
	r := &Result{Variant: s.cfg.Name, ExecTime: s.lastDone}
	var instr uint64
	for _, t := range s.threads {
		instr += t.Progress
	}
	r.Instructions = instr

	for _, c := range s.cores {
		r.Bound.Add(c.Stats.Bound)
		r.CtxSwitches += c.Stats.Switches
		r.HintSwitches += c.Stats.HintSwitches
		r.LLCMisses += c.Stats.LLCMisses
	}
	if instr > 0 {
		r.MPKI = float64(r.LLCMisses) / float64(instr) * 1000
	}

	r.Breakdown = s.breakdown
	r.AMAT = s.amat
	r.ReadLat = s.readLat
	r.FlashLat = s.flashLat
	r.HintsSent = s.hints
	r.Migration = s.migr

	// Device-side accounting. Every backend contributes one DeviceResult
	// and its counters accumulate into the whole-system fields, so the
	// per-device splits reconcile to the fleet totals exactly, by
	// construction (TestFleetDeviceSplitsSumToTotals pins this). The
	// single-device machine is the same loop over one backend, producing
	// the identical totals it always has.
	devResults := make([]DeviceResult, len(s.devs))
	var utilSum float64
	for i, d := range s.devs {
		dr := &devResults[i]
		dr.Device = i
		dfs := d.fl.Stats()
		dr.Traffic = d.ctrl.Traffic
		dr.Traffic.GCReads = dfs.GCReads
		dr.Traffic.GCPrograms = dfs.GCPrograms
		dr.Traffic.Erases = dfs.Erases
		dr.Traffic.GCInvocations = dfs.GCInvocations
		dr.FTLStats = dfs
		dr.FlashStats = d.arr.Stats()
		dr.CacheStats = d.ctrl.Cache().Stats
		dr.Compaction = d.ctrl.Compaction
		if logs := d.ctrl.Logs(); logs[0] != nil {
			dr.LogIndexPeak = logs[0].Stats().PeakIndex + logs[1].Stats().PeakIndex
		}
		dr.FlashUtilization = d.arr.Utilization()
		utilSum += dr.FlashUtilization
		if d.port != nil {
			dr.Port = d.port.Stats()
		}
		if s.placer != nil {
			dr.Pages = s.placer.Pages(i)
			dr.Inbound = s.placer.Inbound(i)
		}

		addFlashTraffic(&r.Traffic, &dr.Traffic)
		r.FTLStats.UserPrograms += dfs.UserPrograms
		r.FTLStats.GCPrograms += dfs.GCPrograms
		r.FTLStats.GCReads += dfs.GCReads
		r.FTLStats.Erases += dfs.Erases
		r.FTLStats.GCInvocations += dfs.GCInvocations
		r.FlashStats.Reads += dr.FlashStats.Reads
		r.FlashStats.Programs += dr.FlashStats.Programs
		r.FlashStats.Erases += dr.FlashStats.Erases
		r.FlashStats.BusyTime += dr.FlashStats.BusyTime
		r.CacheStats.Hits += dr.CacheStats.Hits
		r.CacheStats.Misses += dr.CacheStats.Misses
		r.CacheStats.Inserts += dr.CacheStats.Inserts
		r.CacheStats.Evictions += dr.CacheStats.Evictions
		r.CacheStats.DirtyEvs += dr.CacheStats.DirtyEvs
		r.Compaction.Count += dr.Compaction.Count
		r.Compaction.TotalTime += dr.Compaction.TotalTime
		r.Compaction.Pages += dr.Compaction.Pages
		r.LogIndexPeak += dr.LogIndexPeak
	}
	r.LinkStats = s.link.Stats()
	if secs := s.lastDone.Seconds(); secs > 0 {
		r.SSDBandwidthBps = float64(r.LinkStats.ToDeviceBytes+r.LinkStats.ToHostBytes) / secs
	}
	r.FlashUtilization = utilSum / float64(len(s.devs))
	if s.cfg.TrackLocality {
		r.ReadLocality = s.ctrl.Cache().ReadLocality.CDF()
		r.WriteLocality = s.ctrl.WriteLocality.CDF()
	}
	// The per-device section appears only when the config engaged the
	// fleet layer (Devices >= 1); legacy configs keep the pre-fleet
	// Result shape byte for byte.
	if s.cfg.Devices > 0 {
		r.Devices = devResults
		if s.placer != nil {
			r.Placement = string(s.placer.Policy())
			r.FleetMigrations = s.placer.Migrations()
		} else {
			r.Placement = string(fleet.Striped)
		}
	}
	s.collectTenants(r)
	s.collectOpenLoop(r)
	if s.tel != nil {
		r.Telemetry = s.tel.Snapshot()
	}
	return r
}

// collectOpenLoop assembles the per-SLO-class section of an
// arrival-driven run.
func (s *System) collectOpenLoop(r *Result) {
	if len(s.sloInfo) == 0 {
		return
	}
	ol := &OpenLoopResult{Classes: make([]SLOClassResult, len(s.sloInfo)), Total: s.openTotal}
	for i, info := range s.sloInfo {
		ol.Classes[i] = SLOClassResult{Name: info.Name, OfferedRPS: info.OfferedRPS, Stats: s.sloStats[i]}
	}
	r.OpenLoop = ol
}

// collectTenants assembles the per-tenant Result slice of a declared
// multi-tenant run from the per-thread scheduler accounting, the
// per-tenant request-path accumulators, and the controller's tenant
// write accounting.
// addFlashTraffic accumulates one device's merged flash traffic into
// the fleet total, field by field.
func addFlashTraffic(dst, src *stats.FlashTraffic) {
	dst.HostReads += src.HostReads
	dst.PrefetchReads += src.PrefetchReads
	dst.CompactReads += src.CompactReads
	dst.GCReads += src.GCReads
	dst.HostPrograms += src.HostPrograms
	dst.CompactWrites += src.CompactWrites
	dst.GCPrograms += src.GCPrograms
	dst.DemoteWrites += src.DemoteWrites
	dst.Erases += src.Erases
	dst.GCInvocations += src.GCInvocations
	dst.LinesAbsorbed += src.LinesAbsorbed
	dst.LinesCoalesced += src.LinesCoalesced
}

func (s *System) collectTenants(r *Result) {
	if len(s.tenantInfo) == 0 {
		return
	}
	// Per-tenant write-log accounting sums elementwise across the fleet:
	// a tenant's lines may land on any device its pages map to.
	tlog := s.ctrl.TenantLog()
	for _, d := range s.devs[1:] {
		for i, tl := range d.ctrl.TenantLog() {
			for i >= len(tlog) {
				tlog = append(tlog, core.TenantLogStats{})
			}
			tlog[i].LinesAbsorbed += tl.LinesAbsorbed
			tlog[i].StalledWrites += tl.StalledWrites
			tlog[i].RMWFetches += tl.RMWFetches
		}
	}
	r.Tenants = make([]TenantResult, len(s.tenantInfo))
	for i, info := range s.tenantInfo {
		tr := &r.Tenants[i]
		tr.Name, tr.Workload, tr.Threads = info.Name, info.Workload, info.Threads
		tr.ExecTime = s.tenantDone[i]
		tr.Breakdown = s.tenantBreak[i]
		tr.AMAT = s.tenantAMAT[i]
		tr.ReadLat = s.tenantReadLat[i]
		tr.HintsSent = s.tenantHints[i]
		if i < len(tlog) {
			tr.Log = tlog[i]
		}
	}
	for _, t := range s.threads {
		tr := &r.Tenants[t.Tenant]
		tr.Instructions += t.Progress
		tr.Bound.Add(t.Bound)
		tr.CtxSwitches += t.Switches
		tr.HintSwitches += t.HintSwitches
		tr.Enqueues += t.Enqueues
		tr.LLCMisses += t.LLCMisses
	}
	for i := range r.Tenants {
		if tr := &r.Tenants[i]; tr.Instructions > 0 {
			tr.MPKI = float64(tr.LLCMisses) / float64(tr.Instructions) * 1000
		}
	}
}

var _ cpu.Backend = (*System)(nil)
