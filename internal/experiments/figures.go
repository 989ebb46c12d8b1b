package experiments

import (
	"fmt"

	"skybyte/internal/flash"
	"skybyte/internal/mem"
	"skybyte/internal/osched"
	"skybyte/internal/sim"
	"skybyte/internal/stats"
	"skybyte/internal/system"
	"skybyte/internal/workloads"
)

// Every figure is written as a plan/build pair: the lowercase planner
// declares its design points against a Plan and returns the closure
// that renders the table once results exist; the exported method wraps
// it for standalone use. All() reuses the planners to batch the whole
// campaign into one parallel execution.

// fourCore mutates a config to the motivation study's 4-thread/4-core
// setup (§II-C: "we launch four threads on four cores").
func fourCore(c *system.Config) { c.Cores = 4 }

// motivationPair plans the DRAM and Base-CSSD runs of §II-C.
func (p *Plan) motivationPair(spec workloads.Spec) (dramR, baseR *Pending) {
	dramR = p.Add(solo(spec.Name, system.DRAMOnly, p.h.Opt.TotalInstr, 4), fourCore)
	baseR = p.Add(solo(spec.Name, system.BaseCSSD, p.h.Opt.TotalInstr, 4), fourCore)
	return
}

// Fig02 reproduces Fig. 2: end-to-end execution time of DRAM vs. the
// baseline CXL-SSD (paper: 1.5–31.4x worse).
func (h *Harness) Fig02() Table { return h.table(h.fig02) }

func (h *Harness) fig02(p *Plan) func() Table {
	type row struct {
		name    string
		dram, b *Pending
	}
	var rows []row
	for _, spec := range h.specs() {
		d, b := p.motivationPair(spec)
		rows = append(rows, row{spec.Name, d, b})
	}
	return func() Table {
		t := Table{
			ID:     "fig02",
			Title:  "Execution time, DRAM vs baseline CXL-SSD (normalized to DRAM)",
			Header: []string{"workload", "DRAM", "Base-CSSD", "slowdown"},
			Note:   "paper reports 1.5-31.4x slowdowns",
		}
		for _, r := range rows {
			d, b := r.dram.Result(), r.b.Result()
			t.Rows = append(t.Rows, []string{
				r.name, "1.00", f2(float64(b.ExecTime) / float64(d.ExecTime)),
				f2(float64(b.ExecTime) / float64(d.ExecTime)),
			})
		}
		return t
	}
}

// Fig03 reproduces Fig. 3: off-chip access latency distributions. The
// paper's headline: >90% of CXL-SSD requests within 200 ns, tails at
// hundreds of µs (ms under GC).
func (h *Harness) Fig03() Table { return h.table(h.fig03) }

func (h *Harness) fig03(p *Plan) func() Table {
	type row struct {
		name    string
		dram, b *Pending
	}
	var rows []row
	for _, spec := range h.specs() {
		if !in(spec.Name, "bc", "bfs-dense", "srad", "tpcc") {
			continue
		}
		d, b := p.motivationPair(spec)
		rows = append(rows, row{spec.Name, d, b})
	}
	return func() Table {
		t := Table{
			ID:     "fig03",
			Title:  "Off-chip read latency distribution (ns)",
			Header: []string{"workload", "memory", "p50", "p90", "p99", "p99.9", "max", "<200ns"},
		}
		for _, r := range rows {
			for _, pair := range []struct {
				label string
				r     *system.Result
			}{{"DRAM", r.dram.Result()}, {"CXL-SSD", r.b.Result()}} {
				lh := pair.r.ReadLat
				t.Rows = append(t.Rows, []string{
					r.name, pair.label,
					fmt.Sprintf("%.0f", lh.Percentile(50).Nanoseconds()),
					fmt.Sprintf("%.0f", lh.Percentile(90).Nanoseconds()),
					fmt.Sprintf("%.0f", lh.Percentile(99).Nanoseconds()),
					fmt.Sprintf("%.0f", lh.Percentile(99.9).Nanoseconds()),
					fmt.Sprintf("%.0f", lh.Max().Nanoseconds()),
					pct(lh.FractionBelow(200 * sim.Nanosecond)),
				})
			}
		}
		return t
	}
}

// Fig04 reproduces Fig. 4: memory- vs compute-bounded execution (paper:
// 62.9–98.7% memory-bound on DRAM, 77–99.8% on the CXL-SSD).
func (h *Harness) Fig04() Table { return h.table(h.fig04) }

func (h *Harness) fig04(p *Plan) func() Table {
	type row struct {
		name    string
		dram, b *Pending
	}
	var rows []row
	for _, spec := range h.specs() {
		d, b := p.motivationPair(spec)
		rows = append(rows, row{spec.Name, d, b})
	}
	return func() Table {
		t := Table{
			ID:     "fig04",
			Title:  "Execution boundedness, DRAM vs baseline CXL-SSD",
			Header: []string{"workload", "DRAM mem", "DRAM compute", "CSSD mem", "CSSD compute"},
		}
		for _, r := range rows {
			d, b := r.dram.Result(), r.b.Result()
			t.Rows = append(t.Rows, []string{
				r.name,
				pct(d.Bound.MemFrac()), pct(d.Bound.ComputeFrac()),
				pct(b.Bound.MemFrac()), pct(b.Bound.ComputeFrac()),
			})
		}
		return t
	}
}

// localityRatios are the footprint:cache ratios swept in Figs. 5–6.
var localityRatios = []int{4, 16, 64}

// Fig05 reproduces Fig. 5: the CDF of the fraction of cachelines read per
// page resident in the SSD DRAM cache (paper: most workloads touch <40% of
// lines in >75% of pages).
func (h *Harness) Fig05() Table { return h.table(h.fig05) }

func (h *Harness) fig05(p *Plan) func() Table { return h.locality(p, "fig05", true) }

// Fig06 reproduces Fig. 6: the same distribution for dirty lines per page
// flushed to flash.
func (h *Harness) Fig06() Table { return h.table(h.fig06) }

func (h *Harness) fig06(p *Plan) func() Table { return h.locality(p, "fig06", false) }

func (h *Harness) locality(p *Plan, id string, read bool) func() Table {
	type cell struct {
		name string
		n    int
		run  *Pending
	}
	var cells []cell
	for _, spec := range h.specs() {
		if !in(spec.Name, "bc", "dlrm", "radix", "ycsb") {
			continue
		}
		for _, n := range localityRatios {
			n := n
			footprint := int(spec.FootprintBytes())
			run := p.Add(solo(spec.Name, system.BaseCSSD, h.Opt.SweepInstr, 0), func(c *system.Config) {
				*c = c.WithSSDDRAM(footprint / n)
				c.TrackLocality = true
			})
			cells = append(cells, cell{spec.Name, n, run})
		}
	}
	return func() Table {
		title := "Dirty-line ratio of pages flushed to flash (CDF points)"
		if read {
			title = "Accessed-line ratio of pages read into SSD DRAM (CDF points)"
		}
		t := Table{
			ID:     id,
			Title:  title,
			Header: []string{"workload", "ratio 1:n", "<=12.5%", "<=25%", "<=50%", "mean"},
		}
		for _, c := range cells {
			r := c.run.Result()
			dist := r.ReadLocality
			if !read {
				dist = r.WriteLocality
			}
			row := []string{c.name, fmt.Sprintf("1:%d", c.n)}
			for _, cut := range []float64{0.125, 0.25, 0.5} {
				frac := 0.0
				for _, pt := range dist {
					if pt.Value <= cut {
						frac = pt.Cum
					}
				}
				row = append(row, pct(frac))
			}
			// Approximate mean from the CDF points.
			var mean float64
			prev := 0.0
			for _, pt := range dist {
				mean += pt.Value * (pt.Cum - prev)
				prev = pt.Cum
			}
			row = append(row, f3(mean))
			t.Rows = append(t.Rows, row)
		}
		return t
	}
}

// fig9Thresholds are the trigger thresholds of Fig. 9, in µs.
var fig9Thresholds = []int{2, 10, 20, 40, 60, 80}

// Fig09 reproduces Fig. 9: sensitivity to the context-switch trigger
// threshold (paper: 2 µs is best; higher thresholds forgo switches).
func (h *Harness) Fig09() Table { return h.table(h.fig09) }

func (h *Harness) fig09(p *Plan) func() Table {
	type row struct {
		name string
		runs []*Pending
	}
	var rows []row
	for _, spec := range h.specs() {
		if !in(spec.Name, "bc", "bfs-dense", "srad", "tpcc") {
			continue
		}
		r := row{name: spec.Name}
		for _, us := range fig9Thresholds {
			us := us
			r.runs = append(r.runs, p.Add(solo(spec.Name, system.SkyByteFull, h.Opt.SweepInstr, 0), func(c *system.Config) {
				c.HintThreshold = sim.Time(us) * sim.Microsecond
			}))
		}
		rows = append(rows, r)
	}
	return func() Table {
		t := Table{
			ID:     "fig09",
			Title:  "Execution time vs trigger threshold (normalized to 2µs)",
			Header: append([]string{"workload"}, mapStrings(fig9Thresholds, func(v int) string { return fmt.Sprintf("%dµs", v) })...),
		}
		for _, r := range rows {
			base := r.runs[0].Result().ExecTime
			row := []string{r.name}
			for _, run := range r.runs {
				row = append(row, f2(float64(run.Result().ExecTime)/float64(base)))
			}
			t.Rows = append(t.Rows, row)
		}
		return t
	}
}

// fig10Policies is the scheduling-policy comparison set of Fig. 10.
var fig10Policies = []osched.PolicyKind{osched.PolicyRR, osched.PolicyRandom, osched.PolicyCFS}

// Fig10 reproduces Fig. 10: the three scheduling policies perform
// similarly; context-switch time is visible for switch-heavy workloads.
func (h *Harness) Fig10() Table { return h.table(h.fig10) }

func (h *Harness) fig10(p *Plan) func() Table {
	type row struct {
		name string
		runs []*Pending
	}
	var rows []row
	for _, spec := range h.specs() {
		if !in(spec.Name, "bc", "radix", "srad", "tpcc") {
			continue
		}
		r := row{name: spec.Name}
		for _, pol := range fig10Policies {
			pol := pol
			r.runs = append(r.runs, p.Add(solo(spec.Name, system.SkyByteFull, h.Opt.SweepInstr, 0), func(c *system.Config) { c.Policy = pol }))
		}
		rows = append(rows, r)
	}
	return func() Table {
		t := Table{
			ID:     "fig10",
			Title:  "Scheduling policies (exec normalized to RR; time breakdown)",
			Header: []string{"workload", "policy", "norm exec", "ctx", "mem", "compute"},
		}
		for _, r := range rows {
			base := r.runs[0].Result().ExecTime
			for i, pol := range fig10Policies {
				res := r.runs[i].Result()
				t.Rows = append(t.Rows, []string{
					r.name, string(pol), f2(float64(res.ExecTime) / float64(base)),
					pct(res.Bound.CtxFrac()), pct(res.Bound.MemFrac()), pct(res.Bound.ComputeFrac()),
				})
			}
		}
		return t
	}
}

// Fig14 reproduces the headline Fig. 14: every variant's execution time
// normalized to Base-CSSD (paper: SkyByte-Full 6.11x mean speedup, reaching
// 75% of DRAM-Only).
func (h *Harness) Fig14() Table { return h.table(h.fig14) }

func (h *Harness) fig14(p *Plan) func() Table {
	type row struct {
		name     string
		base     *Pending
		variants []*Pending
	}
	var rows []row
	for _, spec := range h.specs() {
		r := row{name: spec.Name, base: p.Add(solo(spec.Name, system.BaseCSSD, h.Opt.TotalInstr, 0))}
		for _, v := range system.AllVariants {
			r.variants = append(r.variants, p.Add(solo(spec.Name, v, h.Opt.TotalInstr, 0)))
		}
		rows = append(rows, r)
	}
	mixes := h.planMixPoints(p, system.AllVariants)
	return func() Table {
		t := Table{
			ID:     "fig14",
			Title:  "Normalized execution time over Base-CSSD (lower is better)",
			Header: append([]string{"workload"}, mapStrings(system.AllVariants, func(v system.Variant) string { return string(v) })...),
		}
		speedups := map[system.Variant][]float64{}
		for _, r := range rows {
			base := r.base.Result()
			row := []string{r.name}
			for i, v := range system.AllVariants {
				res := r.variants[i].Result()
				row = append(row, f3(float64(res.ExecTime)/float64(base.ExecTime)))
				speedups[v] = append(speedups[v], float64(base.ExecTime)/float64(res.ExecTime))
			}
			t.Rows = append(t.Rows, row)
		}
		geo := []string{"geo.mean"}
		for _, v := range system.AllVariants {
			geo = append(geo, f3(1/stats.GeoMean(speedups[v])))
		}
		t.Rows = append(t.Rows, geo)
		// Per-tenant rows: each tenant's completion time under every
		// variant, normalized to that same tenant's completion under the
		// Base-CSSD mixed run — co-runner interference included on both
		// sides, so the column reads exactly like the solo rows above.
		baseIdx := 0
		for i, v := range system.AllVariants {
			if v == system.BaseCSSD {
				baseIdx = i
			}
		}
		for _, pt := range mixes {
			base := pt.tenants(baseIdx)
			for ti := range base {
				row := []string{pt.rowName(base[ti])}
				for vi := range system.AllVariants {
					tr := pt.tenants(vi)[ti]
					row = append(row, f3(float64(tr.ExecTime)/float64(base[ti].ExecTime)))
				}
				t.Rows = append(t.Rows, row)
			}
		}
		t.Note = fmt.Sprintf("SkyByte-Full mean speedup over Base-CSSD: %.2fx (paper: 6.11x); of DRAM-Only: %.0f%% (paper: 75%%)",
			stats.GeoMean(speedups[system.SkyByteFull]),
			100*stats.GeoMean(speedups[system.SkyByteFull])/stats.GeoMean(speedups[system.DRAMOnly]))
		return t
	}
}

// fig15Threads is the thread sweep of Fig. 15.
var fig15Threads = []int{8, 16, 24, 32, 40, 48}

// Fig15 reproduces Fig. 15: throughput and SSD bandwidth utilization of
// SkyByte-Full as threads increase (normalized to SkyByte-WP @ 8 threads).
func (h *Harness) Fig15() Table { return h.table(h.fig15) }

func (h *Harness) fig15(p *Plan) func() Table {
	type row struct {
		name string
		wp   *Pending
		full []*Pending
	}
	var rows []row
	for _, spec := range h.specs() {
		r := row{name: spec.Name, wp: p.Add(solo(spec.Name, system.SkyByteWP, h.Opt.SweepInstr, 8))}
		for _, n := range fig15Threads {
			r.full = append(r.full, p.Add(solo(spec.Name, system.SkyByteFull, h.Opt.SweepInstr, n)))
		}
		rows = append(rows, r)
	}
	return func() Table {
		t := Table{
			ID:     "fig15",
			Title:  "SkyByte-Full throughput (and link GB/s) vs thread count, normalized to SkyByte-WP@8",
			Header: append([]string{"workload"}, mapStrings(fig15Threads, func(v int) string { return fmt.Sprintf("t=%d", v) })...),
		}
		for _, r := range rows {
			baseIPS := r.wp.Result().IPS()
			row := []string{r.name}
			for _, run := range r.full {
				res := run.Result()
				row = append(row, fmt.Sprintf("%s (%.2fGB/s)", f2(res.IPS()/baseIPS), res.SSDBandwidthBps/1e9))
			}
			t.Rows = append(t.Rows, row)
		}
		return t
	}
}

// Fig16 reproduces Fig. 16: the breakdown of memory requests served by
// host DRAM, SSD DRAM hits, SSD DRAM misses, and SSD writes.
func (h *Harness) Fig16() Table { return h.table(h.fig16) }

func (h *Harness) fig16(p *Plan) func() Table {
	type row struct {
		name string
		full *Pending
	}
	var rows []row
	for _, spec := range h.specs() {
		rows = append(rows, row{spec.Name, p.Add(solo(spec.Name, system.SkyByteFull, h.Opt.TotalInstr, 0))})
	}
	mixes := h.planMixPoints(p, []system.Variant{system.SkyByteFull})
	return func() Table {
		t := Table{
			ID:     "fig16",
			Title:  "Memory request breakdown of SkyByte-Full",
			Header: []string{"workload", "H-R/W", "S-R-H", "S-R-M", "S-W"},
		}
		for _, r := range rows {
			res := r.full.Result()
			row := []string{r.name}
			for c := stats.HostRW; c <= stats.SSDWrite; c++ {
				row = append(row, pct(res.Breakdown.Frac(c)))
			}
			t.Rows = append(t.Rows, row)
		}
		// Per-tenant rows: where each tenant's own requests were served
		// while co-located — tenants attribute requests to themselves, so
		// every row still sums to 100%.
		for _, pt := range mixes {
			for _, tr := range pt.tenants(0) {
				row := []string{pt.rowName(tr)}
				for c := stats.HostRW; c <= stats.SSDWrite; c++ {
					row = append(row, pct(tr.Breakdown.Frac(c)))
				}
				t.Rows = append(t.Rows, row)
			}
		}
		return t
	}
}

// fig17Variants is the design set of Fig. 17.
var fig17Variants = []system.Variant{system.BaseCSSD, system.SkyByteP, system.SkyByteW, system.SkyByteWP, system.SkyByteFull, system.DRAMOnly}

// Fig17 reproduces Fig. 17: average memory access time and its breakdown
// (paper: 14.19x AMAT reduction for Full over Base on average).
func (h *Harness) Fig17() Table { return h.table(h.fig17) }

func (h *Harness) fig17(p *Plan) func() Table {
	type row struct {
		name string
		runs []*Pending
	}
	var rows []row
	for _, spec := range h.specs() {
		r := row{name: spec.Name}
		for _, v := range fig17Variants {
			r.runs = append(r.runs, p.Add(solo(spec.Name, v, h.Opt.TotalInstr, 0)))
		}
		rows = append(rows, r)
	}
	mixes := h.planMixPoints(p, fig17Variants)
	return func() Table {
		t := Table{
			ID:     "fig17",
			Title:  "AMAT (ns) and component breakdown",
			Header: []string{"workload", "design", "AMAT", "host", "protocol", "indexing", "ssdDRAM", "flash"},
		}
		amatRow := func(name string, v system.Variant, a stats.AMAT) []string {
			return []string{
				name, string(v),
				fmt.Sprintf("%.0f", a.Mean().Nanoseconds()),
				fmt.Sprintf("%.0f", a.MeanOf(stats.AMATHostDRAM).Nanoseconds()),
				fmt.Sprintf("%.0f", a.MeanOf(stats.AMATCXLProtocol).Nanoseconds()),
				fmt.Sprintf("%.0f", a.MeanOf(stats.AMATIndexing).Nanoseconds()),
				fmt.Sprintf("%.0f", a.MeanOf(stats.AMATSSDDRAM).Nanoseconds()),
				fmt.Sprintf("%.0f", a.MeanOf(stats.AMATFlash).Nanoseconds()),
			}
		}
		for _, r := range rows {
			for i, v := range fig17Variants {
				t.Rows = append(t.Rows, amatRow(r.name, v, r.runs[i].Result().AMAT))
			}
		}
		// Per-tenant rows: each tenant's demand-access AMAT while
		// co-located, grouped like the solo rows (tenant outer, design
		// inner).
		for _, pt := range mixes {
			for ti := range pt.mix.Tenants {
				for vi, v := range fig17Variants {
					tr := pt.tenants(vi)[ti]
					t.Rows = append(t.Rows, amatRow(pt.rowName(tr), v, tr.AMAT))
				}
			}
		}
		return t
	}
}

// fig18Variants is the design set of Fig. 18.
var fig18Variants = []system.Variant{system.BaseCSSD, system.SkyByteP, system.SkyByteC, system.SkyByteW, system.SkyByteCP, system.SkyByteWP, system.SkyByteFull}

// Fig18 reproduces Fig. 18: flash write traffic normalized to Base-CSSD
// (paper: 23.08x mean reduction for the full design).
func (h *Harness) Fig18() Table { return h.table(h.fig18) }

func (h *Harness) fig18(p *Plan) func() Table {
	type row struct {
		name string
		base *Pending
		runs []*Pending
	}
	var rows []row
	for _, spec := range h.specs() {
		r := row{name: spec.Name, base: p.Add(solo(spec.Name, system.BaseCSSD, h.Opt.TotalInstr, 0))}
		for _, v := range fig18Variants {
			r.runs = append(r.runs, p.Add(solo(spec.Name, v, h.Opt.TotalInstr, 0)))
		}
		rows = append(rows, r)
	}
	return func() Table {
		t := Table{
			ID:     "fig18",
			Title:  "Flash write traffic normalized to Base-CSSD (lower is better)",
			Header: append([]string{"workload"}, mapStrings(fig18Variants, func(v system.Variant) string { return string(v) })...),
		}
		var reductions []float64
		for _, r := range rows {
			bp := float64(r.base.Result().Traffic.TotalPrograms())
			row := []string{r.name}
			for i, v := range fig18Variants {
				pr := float64(r.runs[i].Result().Traffic.TotalPrograms())
				if bp == 0 {
					row = append(row, "n/a")
					continue
				}
				row = append(row, f3(pr/bp))
				if v == system.SkyByteFull && pr > 0 {
					reductions = append(reductions, bp/pr)
				}
			}
			t.Rows = append(t.Rows, row)
		}
		if len(reductions) > 0 {
			t.Note = fmt.Sprintf("SkyByte-Full mean write-traffic reduction: %.1fx (paper: 23.08x)", stats.GeoMean(reductions))
		}
		return t
	}
}

// fig19Sizes are the write-log sizes of Figs. 19–20, scaled 1/64 from the
// paper's 0.5–256 MB sweep over a 512 MB SSD DRAM.
var fig19Sizes = []int{16 * mem.KiB, 64 * mem.KiB, 256 * mem.KiB, 1 * mem.MiB, 4 * mem.MiB}

// Fig19 reproduces Fig. 19: performance vs write-log size (total SSD DRAM
// held constant).
func (h *Harness) Fig19() Table { return h.table(h.fig19) }

func (h *Harness) fig19(p *Plan) func() Table { return h.logSweep(p, "fig19", true) }

// Fig20 reproduces Fig. 20: flash write traffic vs write-log size.
func (h *Harness) Fig20() Table { return h.table(h.fig20) }

func (h *Harness) fig20(p *Plan) func() Table { return h.logSweep(p, "fig20", false) }

func (h *Harness) logSweep(p *Plan, id string, perf bool) func() Table {
	type row struct {
		name string
		runs []*Pending
	}
	var rows []row
	for _, spec := range h.specs() {
		r := row{name: spec.Name}
		for _, sz := range fig19Sizes {
			sz := sz
			r.runs = append(r.runs, p.Add(solo(spec.Name, system.SkyByteFull, h.Opt.SweepInstr, 0), func(c *system.Config) { c.WriteLogBytes = sz }))
		}
		rows = append(rows, r)
	}
	return func() Table {
		title := "Flash write traffic vs write-log size (normalized to 1MB)"
		if perf {
			title = "Execution time vs write-log size (normalized to 1MB)"
		}
		t := Table{
			ID:     id,
			Title:  title,
			Header: append([]string{"workload"}, mapStrings(fig19Sizes, bytesLabel)...),
			Note:   "1MB is 1/64 of the paper's default 64MB log; total SSD DRAM fixed",
		}
		for _, r := range rows {
			var base float64
			vals := make([]float64, len(fig19Sizes))
			for i, sz := range fig19Sizes {
				res := r.runs[i].Result()
				if perf {
					vals[i] = float64(res.ExecTime)
				} else {
					vals[i] = float64(res.Traffic.TotalPrograms())
				}
				if sz == 1*mem.MiB {
					base = vals[i]
				}
			}
			row := []string{r.name}
			for _, v := range vals {
				if base == 0 {
					row = append(row, "n/a")
				} else {
					row = append(row, f3(v/base))
				}
			}
			t.Rows = append(t.Rows, row)
		}
		return t
	}
}

// fig21Sizes are the SSD DRAM capacities of Fig. 21, scaled 1/64 from
// 0.125–2 GB.
var fig21Sizes = []int{2 * mem.MiB, 4 * mem.MiB, 8 * mem.MiB, 16 * mem.MiB, 32 * mem.MiB}

var fig21Variants = []system.Variant{system.BaseCSSD, system.SkyByteP, system.SkyByteW, system.SkyByteWP, system.SkyByteFull}

// Fig21 reproduces Fig. 21: performance with varying SSD DRAM cache size
// (host promotion budget and log scale with it, as §VI-F specifies).
func (h *Harness) Fig21() Table { return h.table(h.fig21) }

func (h *Harness) fig21(p *Plan) func() Table {
	type row struct {
		name string
		ref  *Pending
		runs [][]*Pending // [variant][size]
	}
	var rows []row
	for _, spec := range h.specs() {
		r := row{name: spec.Name, ref: p.Add(solo(spec.Name, system.SkyByteFull, h.Opt.SweepInstr, 0), sizeMutation(8*mem.MiB))}
		for range fig21Variants {
			r.runs = append(r.runs, nil)
		}
		for i, v := range fig21Variants {
			for _, sz := range fig21Sizes {
				r.runs[i] = append(r.runs[i], p.Add(solo(spec.Name, v, h.Opt.SweepInstr, 0), sizeMutation(sz)))
			}
		}
		rows = append(rows, r)
	}
	return func() Table {
		t := Table{
			ID:     "fig21",
			Title:  "Execution time vs SSD DRAM size (normalized to SkyByte-Full @8MB)",
			Header: append([]string{"workload", "design"}, mapStrings(fig21Sizes, bytesLabel)...),
		}
		for _, r := range rows {
			ref := r.ref.Result()
			for i, v := range fig21Variants {
				row := []string{r.name, string(v)}
				for _, run := range r.runs[i] {
					row = append(row, f2(float64(run.Result().ExecTime)/float64(ref.ExecTime)))
				}
				t.Rows = append(t.Rows, row)
			}
		}
		return t
	}
}

// sizeMutation resizes the SSD DRAM, keeping the paper's ratios to it
// (Config.WithSSDDRAM, §VI-F).
func sizeMutation(bytes int) mutate {
	return func(c *system.Config) { *c = c.WithSSDDRAM(bytes) }
}

// fig22Timings are Table IV's NAND classes.
var fig22Timings = []struct {
	name   string
	timing flash.Timing
}{{"ULL", flash.TimingULL}, {"ULL2", flash.TimingULL2}, {"SLC", flash.TimingSLC}, {"MLC", flash.TimingMLC}}

// fig22Variants and fig22FullThreads are the per-NAND-class columns.
var (
	fig22Variants    = []system.Variant{system.SkyByteP, system.SkyByteW, system.SkyByteWP}
	fig22FullThreads = []int{16, 24, 32}
)

// Fig22 reproduces Fig. 22: sensitivity to flash latency class, varying
// SkyByte-Full's thread count (16/24/32).
func (h *Harness) Fig22() Table { return h.table(h.fig22) }

func (h *Harness) fig22(p *Plan) func() Table {
	type row struct {
		name string
		nand string
		runs []*Pending
	}
	var rows []row
	for _, spec := range h.specs() {
		for _, nand := range fig22Timings {
			nand := nand
			mut := func(c *system.Config) { c.Timing = nand.timing }
			r := row{name: spec.Name, nand: nand.name}
			for _, v := range fig22Variants {
				r.runs = append(r.runs, p.Add(solo(spec.Name, v, h.Opt.SweepInstr, 0), mut))
			}
			for _, n := range fig22FullThreads {
				r.runs = append(r.runs, p.Add(solo(spec.Name, system.SkyByteFull, h.Opt.SweepInstr, n), mut))
			}
			rows = append(rows, r)
		}
	}
	return func() Table {
		t := Table{
			ID:     "fig22",
			Title:  "Execution time (µs) by NAND class (Table IV)",
			Header: []string{"workload", "NAND", "SkyByte-P", "SkyByte-W", "SkyByte-WP", "Full-16", "Full-24", "Full-32"},
		}
		for _, r := range rows {
			row := []string{r.name, r.nand}
			for _, run := range r.runs {
				row = append(row, fmt.Sprintf("%.0f", run.Result().ExecTime.Microseconds()))
			}
			t.Rows = append(t.Rows, row)
		}
		return t
	}
}

// fig23Variants is the migration-mechanism comparison set of Fig. 23.
var fig23Variants = []system.Variant{system.SkyByteC, system.AstriFlashCXL, system.SkyByteCT, system.SkyByteCP, system.SkyByteWCT, system.SkyByteFull}

// Fig23 reproduces Fig. 23: alternative page-management mechanisms,
// normalized to SkyByte-C.
func (h *Harness) Fig23() Table { return h.table(h.fig23) }

func (h *Harness) fig23(p *Plan) func() Table {
	type row struct {
		name string
		base *Pending
		runs []*Pending
	}
	var rows []row
	for _, spec := range h.specs() {
		r := row{name: spec.Name, base: p.Add(solo(spec.Name, system.SkyByteC, h.Opt.SweepInstr, 0))}
		for _, v := range fig23Variants {
			r.runs = append(r.runs, p.Add(solo(spec.Name, v, h.Opt.SweepInstr, 0)))
		}
		rows = append(rows, r)
	}
	return func() Table {
		t := Table{
			ID:     "fig23",
			Title:  "Page-migration mechanisms (exec normalized to SkyByte-C)",
			Header: append([]string{"workload"}, mapStrings(fig23Variants, func(v system.Variant) string { return string(v) })...),
		}
		for _, r := range rows {
			base := r.base.Result()
			row := []string{r.name}
			for _, run := range r.runs {
				row = append(row, f3(float64(run.Result().ExecTime)/float64(base.ExecTime)))
			}
			t.Rows = append(t.Rows, row)
		}
		return t
	}
}

func in(name string, set ...string) bool {
	for _, s := range set {
		if s == name {
			return true
		}
	}
	return false
}

func mapStrings[T any](xs []T, f func(T) string) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = f(x)
	}
	return out
}
