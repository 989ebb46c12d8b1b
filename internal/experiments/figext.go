package experiments

import (
	"skybyte/internal/stats"
	"skybyte/internal/system"
	"skybyte/internal/workloads"
)

// FigExt is an extension beyond the paper: the extra built-in
// scenarios composed from the declarative workload primitives
// (WORKLOADS.md) — a scan-heavy analytics mix, a bursty log-append
// writer, and a Graph500-style pointer-chase kernel — compared across
// Base-CSSD, the SkyByte ablations, and DRAM-Only. It is optional: the
// default campaign (All/RunShard) excludes it so the paper's tables
// stay the paper's; render it with skybyte-bench -figure figext.
func (h *Harness) FigExt() Table { return h.table(h.figExt) }

func (h *Harness) figExt(p *Plan) func() Table {
	variants := []system.Variant{system.BaseCSSD, system.SkyByteW, system.SkyByteC, system.SkyByteFull, system.DRAMOnly}
	specs := workloads.Extras()
	type row struct {
		spec workloads.Spec
		runs []*Pending
	}
	var rows []row
	for _, spec := range specs {
		r := row{spec: spec}
		for _, v := range variants {
			r.runs = append(r.runs, p.Add(solo(spec.Name, v, h.Opt.SweepInstr, 0)))
		}
		rows = append(rows, r)
	}
	return func() Table {
		t := Table{
			ID:     "figext",
			Title:  "Extension scenarios (declarative primitives) across design points",
			Note:   "execution time normalized to Base-CSSD per workload; scenarios are data, not code (WORKLOADS.md)",
			Header: []string{"workload", "suite"},
		}
		for _, v := range variants {
			t.Header = append(t.Header, string(v))
		}
		t.Header = append(t.Header, "Full speedup")
		var speedups []float64
		for _, r := range rows {
			base := float64(r.runs[0].Result().ExecTime)
			cells := []string{r.spec.Name, r.spec.Suite}
			var full float64
			for i, pe := range r.runs {
				norm := float64(pe.Result().ExecTime) / base
				if variants[i] == system.SkyByteFull {
					full = 1 / norm
				}
				cells = append(cells, f3(norm))
			}
			speedups = append(speedups, full)
			cells = append(cells, f2(full))
			t.Rows = append(t.Rows, cells)
		}
		gm := make([]string, len(t.Header))
		for i := range gm {
			gm[i] = ""
		}
		gm[0] = "geo.mean"
		gm[len(gm)-1] = f2(stats.GeoMean(speedups))
		t.Rows = append(t.Rows, gm)
		return t
	}
}
