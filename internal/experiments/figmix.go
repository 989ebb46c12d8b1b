package experiments

import (
	"fmt"

	"skybyte/internal/stats"
	"skybyte/internal/system"
	"skybyte/internal/tenant"
)

// figmixVariants is the figmix comparison set: the baseline, each
// SkyByte mechanism alone (who pays for context switches; who pays
// for log drains), and the full design.
var figmixVariants = []system.Variant{system.BaseCSSD, system.SkyByteC, system.SkyByteW, system.SkyByteFull}

// FigMix is the multi-tenant fairness/interference study (an extension
// beyond the paper, which replays one workload on every thread): each
// mix co-locates heterogeneous tenants on one machine, and the table
// reports every tenant's slowdown against its own solo run — the same
// workload, thread count, and per-thread budget on an otherwise idle
// machine — plus the mix's max/min slowdown disparity and Jain
// fairness index. Like figext it is optional: the default campaign
// excludes it; render with skybyte-bench -figure figmix.
func (h *Harness) FigMix() Table { return h.table(h.figMix) }

func (h *Harness) figMix(p *Plan) func() Table {
	type cell struct {
		mix   tenant.Mix
		v     system.Variant
		mixed *Pending
		solos []*Pending
	}
	var cells []cell
	for _, name := range h.Opt.Mixes {
		m, err := tenant.ByName(name)
		if err != nil {
			panic(err)
		}
		for _, v := range figmixVariants {
			c := cell{mix: m, v: v}
			c.mixed = p.Add(mixSpec(m, v, h.Opt.SweepInstr))
			for i, td := range m.Tenants {
				// The solo baseline replays exactly the tenant's share of
				// the mixed run: same streams (tenant-local thread ids
				// 0..Threads-1), same per-thread budget, alone on the
				// machine.
				per := m.PerThreadInstr(i, h.Opt.SweepInstr)
				c.solos = append(c.solos, p.Add(solo(td.Workload, v, per*uint64(td.Threads), td.Threads)))
			}
			cells = append(cells, c)
		}
	}
	return func() Table {
		t := Table{
			ID:    "figmix",
			Title: "Multi-tenant interference: per-tenant slowdown vs solo run",
			Note: "slowdown = tenant completion time co-located / same workload+threads+budget solo; " +
				"Jain index over per-tenant slowdowns (1 = perfectly fair)",
			Header: []string{"mix", "variant", "tenant", "workload", "threads", "solo", "mixed", "slowdown", "max/min", "Jain"},
		}
		for _, c := range cells {
			mixed := c.mixed.Result()
			if len(mixed.Tenants) != len(c.mix.Tenants) {
				panic(fmt.Sprintf("experiments: mix %q produced %d tenant results, want %d",
					c.mix.Name, len(mixed.Tenants), len(c.mix.Tenants)))
			}
			slowdowns := make([]float64, len(mixed.Tenants))
			for i := range mixed.Tenants {
				solo := c.solos[i].Result()
				slowdowns[i] = stats.Ratio(float64(mixed.Tenants[i].ExecTime), float64(solo.ExecTime))
			}
			for i, tr := range mixed.Tenants {
				solo := c.solos[i].Result()
				row := []string{
					c.mix.Name, string(c.v), tr.Name, tr.Workload,
					fmt.Sprintf("%d", tr.Threads),
					solo.ExecTime.String(), tr.ExecTime.String(),
					f2(slowdowns[i]),
					"", "",
				}
				if i == 0 {
					row[8] = f2(stats.MaxMinRatio(slowdowns))
					row[9] = f3(stats.JainIndex(slowdowns))
				}
				t.Rows = append(t.Rows, row)
			}
		}
		return t
	}
}
