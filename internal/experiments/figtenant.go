package experiments

import (
	"fmt"

	"skybyte/internal/system"
	"skybyte/internal/tenant"
)

// This file is the per-tenant extension of the paper's figures: when
// Options.TenantRows is set, Figs. 14, 16, and 17 plan every mix in
// Options.Mixes under their own variant set and append one
// "mix/tenant" row per tenant, built from the mixed run's
// Result.Tenants slice. figmix answers "who is slowed down by whom";
// these rows answer the figure's own question (normalized completion,
// request breakdown, AMAT components) for tenants sharing a machine.

// mixPoint is one mix planned under a figure's variant set; runs is
// aligned with the variants slice handed to planMixPoints.
type mixPoint struct {
	mix  tenant.Mix
	runs []*Pending
}

// planMixPoints plans every Opt.Mixes mix under each of the figure's
// variants when Opt.TenantRows asks for per-tenant rows, and returns
// nil otherwise — so the default campaign plans and renders exactly
// the paper's tables. Mixed runs use the sweep budget, like figmix:
// the per-tenant rows compare tenants within one machine, not against
// the full-budget solo rows above them, and the design points are
// shared with figmix wherever the variant sets overlap.
func (h *Harness) planMixPoints(p *Plan, variants []system.Variant) []mixPoint {
	if !h.Opt.TenantRows {
		return nil
	}
	var pts []mixPoint
	for _, name := range h.Opt.Mixes {
		m, err := tenant.ByName(name)
		if err != nil {
			panic(err)
		}
		pt := mixPoint{mix: m}
		for _, v := range variants {
			pt.runs = append(pt.runs, p.Add(mixSpec(m, v, h.Opt.SweepInstr)))
		}
		pts = append(pts, pt)
	}
	return pts
}

// tenants returns the per-tenant results of the i-th variant's mixed
// run, in mix declaration order.
func (pt mixPoint) tenants(i int) []system.TenantResult {
	mixed := pt.runs[i].Result()
	if len(mixed.Tenants) != len(pt.mix.Tenants) {
		panic(fmt.Sprintf("experiments: mix %q produced %d tenant results, want %d",
			pt.mix.Name, len(mixed.Tenants), len(pt.mix.Tenants)))
	}
	return mixed.Tenants
}

// rowName labels a tenant row so it cannot collide with a solo
// workload row: "mix/tenant".
func (pt mixPoint) rowName(tr system.TenantResult) string {
	return pt.mix.Name + "/" + tr.Name
}
