package experiments

import (
	"fmt"

	"skybyte/internal/arrival"
	"skybyte/internal/runner"
	"skybyte/internal/sim"
	"skybyte/internal/system"
	"skybyte/internal/telemetry"
)

// figopenVariants is the open-loop comparison set: the baseline, each
// SkyByte mechanism alone, and the full design — the same axis as
// figmix, here under arrival-driven load instead of closed-loop replay.
var figopenVariants = []system.Variant{system.BaseCSSD, system.SkyByteC, system.SkyByteW, system.SkyByteFull}

// figopenScales is the offered-intensity axis: every cohort rate of the
// arrival spec is multiplied by each scale in turn. The points bracket
// the saturation knee of the scaled machine: x1 is comfortably
// unsaturated, x2 sits near the baseline's knee, and x4/x6 are past it —
// where the coordinated context switch converts oversubscription into
// delivered throughput and the baseline's tail collapses first.
var figopenScales = []float64{1, 2, 4, 6}

// figopenCadence is the sampling period of a telemetry-mode figopen
// run: fine enough that the shortest built-in intensity window (20µs)
// collects many ticks, coarse enough that the bounded series keep
// useful granularity after stride-doubling downsamples a long run.
const figopenCadence = sim.Microsecond

// openCell is one planned figopen run and the axes that label its rows.
type openCell struct {
	spec  arrival.Spec
	scale float64
	v     system.Variant
	run   *Pending
}

// FigOpen is the open-loop traffic study (an extension beyond the
// paper, whose evaluation replays threads closed-loop): each arrival
// spec's client cohorts offer load at sampled instants, and the table
// reports, per SLO class, the offered vs delivered request rate and the
// sojourn-latency percentiles as the offered intensity scales through
// the saturation knee. Like figmix it is optional: the default campaign
// excludes it; render with skybyte-bench -figure figopen. With
// Options.Telemetry, the rows resolve in time instead: write-log
// occupancy and the per-class windowed p99 per intensity window.
func (h *Harness) FigOpen() Table { return h.table(h.figOpen) }

func (h *Harness) figOpen(p *Plan) func() Table {
	// Open-loop percentiles need request populations, not just retired
	// instructions; give each cell twice the campaign budget so a class
	// collects hundreds of completions.
	budget := 2 * h.Opt.TotalInstr
	var muts []mutate
	if h.Opt.Telemetry {
		// The cadence is part of the config, so telemetry rows come from
		// different design points than the plain table.
		muts = append(muts, func(c *system.Config) { c.TelemetryCadence = figopenCadence })
	}
	var cells []openCell
	for _, name := range h.Opt.Arrivals {
		a, err := arrival.ByName(name)
		if err != nil {
			panic(err)
		}
		for _, scale := range figopenScales {
			for _, v := range figopenVariants {
				cells = append(cells, openCell{
					spec: a, scale: scale, v: v,
					run: p.Add(runner.Spec{Arrival: a.Name, ArrivalScale: scale, Variant: v, TotalInstr: budget}, muts...),
				})
			}
		}
	}
	if h.Opt.Telemetry {
		return func() Table { return figOpenTelemetryTable(cells) }
	}
	return func() Table { return figOpenTable(cells) }
}

// figOpenTable renders the end-of-run percentile rows (the default
// figopen shape).
func figOpenTable(cells []openCell) Table {
	t := Table{
		ID:    "figopen",
		Title: "Open-loop traffic: offered vs delivered rate and sojourn percentiles per SLO class",
		Note: "latency = completion - arrival (queueing behind the client thread counts); " +
			"goodput over the class's own completion span; qdelay = service start - arrival",
		Header: []string{"arrival", "scale", "variant", "class", "offered rps", "goodput rps", "p50", "p95", "p99", "p99.9", "mean qdelay"},
	}
	for _, c := range cells {
		res := c.run.Result()
		if res.OpenLoop == nil {
			panic(fmt.Sprintf("experiments: arrival run %q carries no OpenLoop section", res.CacheKey))
		}
		for _, cl := range res.OpenLoop.Classes {
			t.Rows = append(t.Rows, []string{
				c.spec.Name,
				fmt.Sprintf("x%g", c.scale),
				string(c.v),
				cl.Name,
				f0(cl.OfferedRPS),
				f0(cl.Stats.GoodputRPS()),
				cl.Stats.Latency.Percentile(50).String(),
				cl.Stats.Latency.Percentile(95).String(),
				cl.Stats.Latency.Percentile(99).String(),
				cl.Stats.Latency.Percentile(99.9).String(),
				cl.Stats.QueueDelay.Mean().String(),
			})
		}
	}
	return t
}

// openWindow is one intensity window of an arrival spec, as a label
// plus its [from, to) offsets within the repeating window cycle.
type openWindow struct {
	label    string
	from, to sim.Time
}

// specWindows derives the intensity windows rows resolve over: the
// first cohort that declares windows defines the cycle (the built-in
// bursty specs pace one cohort); a spec with none is a single steady
// window.
func specWindows(a arrival.Spec) (ws []openWindow, cycle sim.Time) {
	for _, c := range a.Cohorts {
		if len(c.Windows) == 0 {
			continue
		}
		var at sim.Time
		for i, w := range c.Windows {
			d := sim.Time(w.DurUS * float64(sim.Microsecond))
			ws = append(ws, openWindow{
				label: fmt.Sprintf("w%d [%g-%gµs]", i, at.Microseconds(), (at + d).Microseconds()),
				from:  at, to: at + d,
			})
			at += d
		}
		return ws, at
	}
	return []openWindow{{label: "steady"}}, 0
}

// windowAgg folds a dumped series into per-window aggregates by point
// instant modulo the window cycle, so every repetition of a window
// contributes to its row. A point's samples attribute to the window
// holding its first-sample instant — at high downsampling strides a
// point can straddle windows, which keeps the fold simple and exact in
// count at the cost of edge smearing (the table note says so).
type windowAgg struct {
	sum  float64
	n    uint64
	max  float64
	seen bool
}

func foldWindows(d *telemetry.SeriesDump, ws []openWindow, cycle sim.Time) []windowAgg {
	agg := make([]windowAgg, len(ws))
	if d == nil {
		return agg
	}
	for _, p := range d.Points {
		t := p.T
		if cycle > 0 {
			t = p.T % cycle
		}
		for i, w := range ws {
			if cycle > 0 && (t < w.from || t >= w.to) {
				continue
			}
			a := &agg[i]
			a.sum += p.Sum
			a.n += p.Count
			if !a.seen || p.Max > a.max {
				a.max = p.Max
			}
			a.seen = true
			break
		}
	}
	return agg
}

func (a *windowAgg) mean() float64 {
	if a.n == 0 {
		return 0
	}
	return a.sum / float64(a.n)
}

// figOpenTelemetryTable renders the time-resolved rows: one row per
// (arrival, scale, variant, window, class) with the write-log occupancy
// and the windowed-p99 ceiling observed across every repetition of
// that intensity window.
func figOpenTelemetryTable(cells []openCell) Table {
	t := Table{
		ID:    "figopen",
		Title: "Open-loop traffic, time-resolved: write-log occupancy and per-class windowed p99 per intensity window",
		Note: fmt.Sprintf("probes sampled every %v (internal/telemetry); windows fold modulo the arrival spec's cycle, "+
			"so every repetition contributes; log occ = mean/peak write-log fill (\"-\" where the variant has no write log); "+
			"p99 = ceiling of the per-cadence-window p99 series; downsampled points attribute to the window of their first sample", figopenCadence),
		Header: []string{"arrival", "scale", "variant", "window", "log occ", "log peak", "class", "win p99 max"},
	}
	for _, c := range cells {
		res := c.run.Result()
		if res.OpenLoop == nil || res.Telemetry == nil {
			panic(fmt.Sprintf("experiments: telemetry figopen run %q carries no OpenLoop/Telemetry section", res.CacheKey))
		}
		ws, cycle := specWindows(c.spec)
		occ := foldWindows(res.Telemetry.SeriesByName("writelog.occupancy"), ws, cycle)
		for wi, w := range ws {
			occMean, occPeak := "-", "-"
			if occ[wi].seen {
				occMean = fmt.Sprintf("%.1f%%", 100*occ[wi].mean())
				occPeak = fmt.Sprintf("%.1f%%", 100*occ[wi].max)
			}
			for _, cl := range res.OpenLoop.Classes {
				p99 := foldWindows(res.Telemetry.SeriesByName("class."+cl.Name+".p99_us"), ws, cycle)
				val := "-"
				if p99[wi].seen {
					val = fmt.Sprintf("%.1fµs", p99[wi].max)
				}
				t.Rows = append(t.Rows, []string{
					c.spec.Name,
					fmt.Sprintf("x%g", c.scale),
					string(c.v),
					w.label,
					occMean,
					occPeak,
					cl.Name,
					val,
				})
			}
		}
	}
	return t
}

func f0(x float64) string { return fmt.Sprintf("%.0f", x) }
