package experiments

import (
	"context"
	"fmt"
	"strings"

	"skybyte/internal/stats"
	"skybyte/internal/system"
	"skybyte/internal/trace"
)

// Table1 reproduces Table I: the measured characteristics of each workload
// generator against the paper's figures.
func (h *Harness) Table1() Table { return h.table(h.table1) }

func (h *Harness) table1(p *Plan) func() Table {
	type row struct {
		name string
		dram *Pending
	}
	var rows []row
	for _, spec := range h.specs() {
		rows = append(rows, row{spec.Name, p.Add(solo(spec.Name, system.DRAMOnly, h.Opt.TotalInstr, 0))})
	}
	return func() Table {
		t := Table{
			ID:     "table1",
			Title:  "Workload characteristics (measured vs paper)",
			Header: []string{"workload", "footprint", "write ratio", "paper wr", "MPKI", "paper MPKI"},
			Note:   "footprints are 1/64 of Table I; MPKI measured on the DRAM-Only configuration",
		}
		for i, spec := range h.specs() {
			// Measure the write ratio directly from the generator.
			st := spec.Stream(0, h.Opt.Seed)
			var loads, stores uint64
			for n := 0; n < 60000; n++ {
				r, ok := st.Next()
				if !ok {
					break
				}
				switch r.Kind {
				case trace.Load, trace.LoadDep:
					loads++
				case trace.Store:
					stores++
				}
			}
			d := rows[i].dram.Result()
			t.Rows = append(t.Rows, []string{
				spec.Name,
				stats.FormatGB(spec.FootprintBytes()),
				pct(float64(stores) / float64(loads+stores)),
				pct(spec.WriteRatio),
				f2(d.MPKI),
				f2(spec.PaperMPKI),
			})
		}
		return t
	}
}

// Table3 reproduces Table III: the average flash read latency under
// SkyByte-WP (paper: 3.3–25.7 µs — queueing inflates some workloads well
// above tR).
func (h *Harness) Table3() Table { return h.table(h.table3) }

func (h *Harness) table3(p *Plan) func() Table {
	type row struct {
		name string
		wp   *Pending
	}
	var rows []row
	for _, spec := range h.specs() {
		rows = append(rows, row{spec.Name, p.Add(solo(spec.Name, system.SkyByteWP, h.Opt.TotalInstr, 0))})
	}
	return func() Table {
		t := Table{
			ID:     "table3",
			Title:  "Average flash read latency of SkyByte-WP (µs)",
			Header: []string{"workload", "latency", "paper"},
		}
		paper := map[string]string{
			"bc": "3.5", "bfs-dense": "25.7", "dlrm": "3.4", "radix": "4.9",
			"srad": "22.5", "tpcc": "19.6", "ycsb": "3.3",
		}
		for _, r := range rows {
			t.Rows = append(t.Rows, []string{
				r.name,
				f2(r.wp.Result().FlashLat.Mean().Microseconds()),
				paper[r.name],
			})
		}
		return t
	}
}

// CostEffectiveness reproduces §VI-B's cost analysis: DDR5 at $4.28/GB vs
// ULL flash at $0.27/GB (summer 2024 prices quoted by the paper), SkyByte
// is 15.9x cheaper than DRAM-only and improves cost-effectiveness 11.8x.
func (h *Harness) CostEffectiveness() Table { return h.table(h.costEffectiveness) }

func (h *Harness) costEffectiveness(p *Plan) func() Table {
	type row struct {
		name       string
		full, dram *Pending
	}
	var rows []row
	for _, spec := range h.specs() {
		rows = append(rows, row{
			spec.Name,
			p.Add(solo(spec.Name, system.SkyByteFull, h.Opt.TotalInstr, 0)),
			p.Add(solo(spec.Name, system.DRAMOnly, h.Opt.TotalInstr, 0)),
		})
	}
	return func() Table {
		const dramPerGB, ssdPerGB = 4.28, 0.27
		t := Table{
			ID:     "cost",
			Title:  "Cost-effectiveness of SkyByte-Full vs DRAM-Only (§VI-B)",
			Header: []string{"workload", "perf vs DRAM", "cost ratio", "perf/$ gain"},
			Note:   fmt.Sprintf("unit prices: DDR5 $%.2f/GB, ULL SSD $%.2f/GB (paper: 15.9x cheaper, 11.8x better perf/$)", dramPerGB, ssdPerGB),
		}
		costRatio := dramPerGB / ssdPerGB
		var perfs []float64
		for _, r := range rows {
			perf := float64(r.dram.Result().ExecTime) / float64(r.full.Result().ExecTime)
			perfs = append(perfs, perf)
			t.Rows = append(t.Rows, []string{r.name, pct(perf), f2(costRatio), f2(perf * costRatio)})
		}
		t.Rows = append(t.Rows, []string{"geo.mean", pct(stats.GeoMean(perfs)), f2(costRatio), f2(stats.GeoMean(perfs) * costRatio)})
		return t
	}
}

// WriteLogStats reports §III-B's implementation claims: the two-level hash
// index footprint (paper: 5.6 MB average on a 64 MB log, ≤32 MB worst
// case — here at 1/64 scale) and the mean compaction time (paper: 146 µs).
func (h *Harness) WriteLogStats() Table { return h.table(h.writeLogStats) }

func (h *Harness) writeLogStats(p *Plan) func() Table {
	type row struct {
		name string
		full *Pending
	}
	var rows []row
	for _, spec := range h.specs() {
		rows = append(rows, row{spec.Name, p.Add(solo(spec.Name, system.SkyByteFull, h.Opt.TotalInstr, 0))})
	}
	return func() Table {
		t := Table{
			ID:     "writelog",
			Title:  "Write-log index footprint and compaction time (SkyByte-Full)",
			Header: []string{"workload", "peak index", "log capacity", "compactions", "mean compaction"},
			Note:   "paper: index averages 5.6MB on a 64MB log; a compaction averages 146µs",
		}
		for _, r := range rows {
			res := r.full.Result()
			t.Rows = append(t.Rows, []string{
				r.name,
				stats.FormatGB(uint64(res.LogIndexPeak)),
				stats.FormatGB(uint64(h.Opt.BaseConfig.WriteLogBytes)),
				fmt.Sprintf("%d", res.Compaction.Count),
				res.Compaction.Mean().String(),
			})
		}
		return t
	}
}

// catalogEntry names one experiment: the id its Table carries (and
// the one the CLIs accept), its plan phase, and whether it is an
// optional extension excluded from the default campaign.
type catalogEntry struct {
	id       string
	plan     planner
	optional bool
}

// catalog lists every experiment in paper order, the optional
// extensions last. Optional entries render on demand (Render, -figure)
// but are excluded from All/AllErr/RunShard so the default campaign —
// and its store fingerprint sharding — stays exactly the paper's
// evaluation.
func (h *Harness) catalog() []catalogEntry {
	return []catalogEntry{
		{id: "table1", plan: h.table1},
		{id: "fig02", plan: h.fig02},
		{id: "fig03", plan: h.fig03},
		{id: "fig04", plan: h.fig04},
		{id: "fig05", plan: h.fig05},
		{id: "fig06", plan: h.fig06},
		{id: "fig09", plan: h.fig09},
		{id: "fig10", plan: h.fig10},
		{id: "fig14", plan: h.fig14},
		{id: "fig15", plan: h.fig15},
		{id: "fig16", plan: h.fig16},
		{id: "fig17", plan: h.fig17},
		{id: "fig18", plan: h.fig18},
		{id: "fig19", plan: h.fig19},
		{id: "fig20", plan: h.fig20},
		{id: "fig21", plan: h.fig21},
		{id: "fig22", plan: h.fig22},
		{id: "fig23", plan: h.fig23},
		{id: "table3", plan: h.table3},
		{id: "cost", plan: h.costEffectiveness},
		{id: "writelog", plan: h.writeLogStats},
		{id: "figext", plan: h.figExt, optional: true},
		{id: "figmix", plan: h.figMix, optional: true},
		{id: "figopen", plan: h.figOpen, optional: true},
		{id: "figfleet", plan: h.figFleet, optional: true},
	}
}

// planners lists the default campaign's plan phases in paper order
// (optional extensions excluded).
func (h *Harness) planners() []planner {
	var out []planner
	for _, c := range h.catalog() {
		if !c.optional {
			out = append(out, c.plan)
		}
	}
	return out
}

// IDs returns the valid experiment ids in paper order, optional
// extensions included.
func IDs() []string {
	var h Harness
	cat := h.catalog()
	out := make([]string, len(cat))
	for i, c := range cat {
		out[i] = c.id
	}
	return out
}

// Render runs one experiment by id with error reporting: an unknown id
// lists the valid ones, and in render-from-cache mode a design point
// missing from the store surfaces as an error instead of a panic.
func (h *Harness) Render(ctx context.Context, id string) (Table, error) {
	for _, c := range h.catalog() {
		if c.id != id {
			continue
		}
		p := h.NewPlan()
		build := c.plan(p)
		if err := p.Execute(ctx); err != nil {
			return Table{}, err
		}
		return build(), nil
	}
	return Table{}, fmt.Errorf("experiments: unknown experiment %q (valid: all %s)", id, strings.Join(IDs(), " "))
}

// planAll plans every experiment in paper order into one de-duplicated
// batch and returns the plan plus the deferred table builders.
func (h *Harness) planAll() (*Plan, []func() Table) {
	p := h.NewPlan()
	var builds []func() Table
	for _, f := range h.planners() {
		builds = append(builds, f(p))
	}
	return p, builds
}

// All runs every experiment in paper order as one campaign: the design
// points of all figures and tables are planned first, de-duplicated,
// executed once across the worker pool, and only then rendered. At
// Parallelism N the sweep keeps N simulations in flight from start to
// finish; the tables are byte-identical to a sequential run — and,
// with a result store attached, byte-identical whether the results
// were simulated here, recalled from a warm store, or merged from
// shards executed elsewhere.
func (h *Harness) All() []Table {
	tables, err := h.AllErr(context.Background())
	if err != nil {
		panic(err)
	}
	return tables
}

// AllErr is All with error reporting, required on the paths where
// failure is environmental rather than programmer error — above all
// render-from-cache, where a design point missing from the store means
// a shard has not run yet.
func (h *Harness) AllErr(ctx context.Context) ([]Table, error) {
	p, builds := h.planAll()
	if err := p.Execute(ctx); err != nil {
		return nil, err
	}
	tables := make([]Table, len(builds))
	for i, b := range builds {
		tables[i] = b()
	}
	return tables, nil
}

// RunShard plans the full campaign, de-duplicates it exactly as All
// does, and executes only the Opt.Shard-th of Opt.ShardCount slices,
// persisting results into the store (Opt.CacheDir is required — an
// unpersisted shard would be wasted work). No tables are rendered;
// once every shard has run against a shared (or later merged) store,
// any machine renders the campaign with FromCache. Returns the
// processed and total design-point counts; processed includes warm
// recalls from the store (observe Verbose, which fires only for real
// simulations, to tell them apart).
func (h *Harness) RunShard(ctx context.Context) (processed, total int, err error) {
	if h.storeErr != nil {
		return 0, 0, h.storeErr
	}
	if h.run.Store == nil {
		return 0, 0, fmt.Errorf("experiments: RunShard requires Options.CacheDir")
	}
	n := h.Opt.ShardCount
	if n <= 0 {
		n = 1
	}
	if h.Opt.Shard < 0 || h.Opt.Shard >= n {
		return 0, 0, fmt.Errorf("experiments: shard %d out of range 0..%d", h.Opt.Shard, n-1)
	}
	p, _ := h.planAll()
	slice := p.Shard(h.Opt.Shard, n)
	if _, err := h.run.RunAll(ctx, slice); err != nil {
		return 0, 0, err
	}
	return len(slice), p.Size(), nil
}
