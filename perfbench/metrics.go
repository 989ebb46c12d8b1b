package main

import (
	"math"
	"sort"

	"skybyte/internal/runner"
	"skybyte/internal/sim"
	"skybyte/internal/stats"
	"skybyte/internal/system"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (m metricSet) set(name string, v float64, unit string) { m[name] = metric{v, unit} }

// quantile returns the q-quantile of xs by linear interpolation.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// modelled aggregates the simulated statistics of one pass's Results.
// They are deterministic for a given seed, so a change that only speeds
// the simulator up must leave every one of them identical.
func modelled(outs []outcome, ms metricSet) {
	var (
		instr, events, llcMiss, switches, hintSw     uint64
		memStall, bound                              float64
		cacheHit, cacheAcc, promotions, compactions  uint64
		compactTime                                  float64
		absorbed, coalesced, userProg, gcProg, gcInv uint64
		flashReads, flashProgs, fleetMigr            uint64
		linkBytes, execSecs, flashUtil               float64
		indexPeak                                    int
		amat                                         stats.AMAT
		n                                            int
	)
	for _, o := range outs {
		r := o.res
		if o.err != nil || r == nil {
			continue
		}
		n++
		instr += r.Instructions
		events += o.events
		llcMiss += r.LLCMisses
		switches += r.CtxSwitches
		hintSw += r.HintSwitches
		memStall += float64(r.Bound.MemStall)
		bound += float64(r.Bound.Total())
		cacheHit += r.CacheStats.Hits
		cacheAcc += r.CacheStats.Hits + r.CacheStats.Misses
		promotions += r.Migration.Promotions
		compactions += r.Compaction.Count
		compactTime += float64(r.Compaction.TotalTime)
		absorbed += r.Traffic.LinesAbsorbed
		coalesced += r.Traffic.LinesCoalesced
		userProg += r.FTLStats.UserPrograms
		gcProg += r.FTLStats.GCPrograms
		gcInv += r.FTLStats.GCInvocations
		flashReads += r.FlashStats.Reads
		flashProgs += r.FlashStats.Programs
		flashUtil += r.FlashUtilization
		fleetMigr += r.FleetMigrations
		linkBytes += float64(r.LinkStats.ToDeviceBytes + r.LinkStats.ToHostBytes)
		execSecs += r.ExecTime.Seconds()
		if r.LogIndexPeak > indexPeak {
			indexPeak = r.LogIndexPeak
		}
		for i := range amat.Time {
			amat.Time[i] += r.AMAT.Time[i]
		}
		amat.Accesses += r.AMAT.Accesses
	}
	kinstr := float64(instr) / 1000
	ms.set("sim.events_per_kinstr", ratio(float64(events), kinstr), "1/kinstr")
	ms.set("cpu.mem_stall_frac", ratio(memStall, bound), "ratio")
	ms.set("cachesim.llc_mpki", ratio(float64(llcMiss), kinstr), "1/kinstr")
	ms.set("osched.ctx_switches_per_kinstr", ratio(float64(switches), kinstr), "1/kinstr")
	ms.set("osched.hint_switch_frac", ratio(float64(hintSw), float64(switches)), "ratio")
	ms.set("core.cache_hit_ratio", ratio(float64(cacheHit), float64(cacheAcc)), "ratio")
	ms.set("system.amat_ns", amat.Mean().Nanoseconds(), "ns")
	ms.set("migrate.promotions", float64(promotions), "count")
	ms.set("core.compactions", float64(compactions), "count")
	ms.set("core.compaction_mean_us", ratio(compactTime, float64(compactions))/float64(sim.Microsecond), "us")
	ms.set("writelog.lines_absorbed", float64(absorbed), "count")
	ms.set("writelog.coalesce_ratio", ratio(float64(coalesced), float64(absorbed)), "ratio")
	ms.set("writelog.index_peak_kb", float64(indexPeak)/1024, "KiB")
	ms.set("ftl.write_amp", ratio(float64(userProg+gcProg), float64(userProg)), "ratio")
	ms.set("ftl.gc_invocations", float64(gcInv), "count")
	ms.set("flash.reads", float64(flashReads), "count")
	ms.set("flash.programs", float64(flashProgs), "count")
	ms.set("flash.utilization", ratio(flashUtil, float64(n)), "ratio")
	ms.set("cxl.link_gbps", ratio(linkBytes, execSecs)/1e9, "GB/s")
	ms.set("fleet.migrations", float64(fleetMigr), "count")
}

// Paper headline values the accuracy metrics compare against.
const (
	paperFig14Speedup    = 6.11
	paperFig14DRAMShare  = 0.75
	paperFig17AMATReduce = 14.19
	paperFig18WriteCut   = 23.08
)

// accuracy is a workload's fidelity scoreboard: each figure's measured
// headline, computed exactly as the campaign's fig14 and fig18 notes
// compute it (and fig17 as the geometric mean of the Base-CSSD over
// SkyByte-Full AMAT ratios its table lists), plus the error
// |ln(measured/paper)|.
type accuracy struct {
	Fig14Speedup, Fig14DRAMShare, Fig17AMATReduction, Fig18WriteReduction float64
}

// resultIndex maps "app|variant" to the Result of a workload's
// single-app, single-device design point at the paper's thread count.
type resultIndex map[string]*system.Result

func indexResults(pts []runner.Spec, outs []outcome) resultIndex {
	idx := resultIndex{}
	for i, s := range pts {
		if s.Workload == "" || s.Devices > 0 || s.Threads != 0 || outs[i].err != nil {
			continue
		}
		idx[s.Workload+"|"+string(s.Variant)] = outs[i].res
	}
	return idx
}

// computeAccuracy returns the scoreboard over apps, or ok=false when the
// workload did not run every design point the scoreboard needs.
func computeAccuracy(idx resultIndex, apps []string) (acc accuracy, ok bool) {
	var full, dram, amat, writes []float64
	for _, app := range apps {
		base := idx[app+"|"+string(system.BaseCSSD)]
		f := idx[app+"|"+string(system.SkyByteFull)]
		d := idx[app+"|"+string(system.DRAMOnly)]
		if base == nil || f == nil || d == nil {
			return acc, false
		}
		full = append(full, float64(base.ExecTime)/float64(f.ExecTime))
		dram = append(dram, float64(base.ExecTime)/float64(d.ExecTime))
		amat = append(amat, float64(base.AMAT.Mean())/float64(f.AMAT.Mean()))
		bp := float64(base.Traffic.TotalPrograms())
		if pr := float64(f.Traffic.TotalPrograms()); bp != 0 && pr > 0 {
			writes = append(writes, bp/pr)
		}
	}
	acc.Fig14Speedup = stats.GeoMean(full)
	acc.Fig14DRAMShare = stats.GeoMean(full) / stats.GeoMean(dram)
	acc.Fig17AMATReduction = stats.GeoMean(amat)
	if len(writes) > 0 {
		acc.Fig18WriteReduction = stats.GeoMean(writes)
	}
	return acc, true
}

// metrics returns each measured headline and, where it is positive, its
// error against the paper.
func (a accuracy) metrics() metricSet {
	ms := metricSet{}
	for _, h := range []struct {
		name            string
		measured, paper float64
		unit            string
	}{
		{"fig14_speedup", a.Fig14Speedup, paperFig14Speedup, "x"},
		{"fig14_dram_share", a.Fig14DRAMShare, paperFig14DRAMShare, "ratio"},
		{"fig17_amat_reduction", a.Fig17AMATReduction, paperFig17AMATReduce, "x"},
		{"fig18_write_reduction", a.Fig18WriteReduction, paperFig18WriteCut, "x"},
	} {
		ms.set(h.name, h.measured, h.unit)
		if h.measured > 0 {
			ms.set(h.name+"_err", math.Abs(math.Log(h.measured/h.paper)), "abs_ln")
		}
	}
	return ms
}
