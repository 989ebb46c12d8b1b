package experiments

import (
	"fmt"

	"skybyte/internal/fleet"
	"skybyte/internal/runner"
	"skybyte/internal/system"
)

// figFleetVariants is the fleet table's variant axis: the paper's
// baseline device and the full SkyByte design, so the K-sweep shows
// whether clustering helps a dumb device more than a smart one.
var figFleetVariants = []system.Variant{system.BaseCSSD, system.SkyByteFull}

// figFleetPreferred is the workload subset the fleet sweep defaults to
// when the campaign's workload set contains them: one read-dominated
// and one write-heavy benchmark keep the table readable while still
// showing both bottleneck regimes. Campaigns scoped to other workloads
// sweep their first workload instead.
var figFleetPreferred = []string{"ycsb", "srad"}

// FigFleet renders the optional cluster-scaling table (EXPERIMENTS.md
// "figfleet"): K CXL-SSDs behind the placement layer, swept over device
// count x placement policy x {Base-CSSD, SkyByte-Full}. Each row
// reports execution time, speedup over the K=1 baseline, shared-link
// and flash utilization (whose opposite trends locate the
// link-vs-flash bottleneck crossover), per-device page imbalance, and
// hot/cold migration volume.
func (h *Harness) FigFleet() Table { return h.table(h.figFleet) }

// figFleetWorkloads resolves the sweep's workload subset against the
// campaign's workload scope.
func (h *Harness) figFleetWorkloads() []string {
	var out []string
	for _, pref := range figFleetPreferred {
		for _, name := range h.Opt.Workloads {
			if name == pref {
				out = append(out, name)
			}
		}
	}
	if len(out) == 0 && len(h.Opt.Workloads) > 0 {
		out = append(out, h.Opt.Workloads[0])
	}
	return out
}

func (h *Harness) figFleet(p *Plan) func() Table {
	type cell struct {
		workload  string
		variant   system.Variant
		devices   int
		placement string
		pend      *Pending
	}
	var cells []cell
	// The K=1 baseline is the single-device machine, planned once per
	// workload x variant with no placement (a placement needs a fleet to
	// place across).
	base := make(map[string]*Pending)
	for _, w := range h.figFleetWorkloads() {
		for _, v := range figFleetVariants {
			for _, k := range h.Opt.FleetDevices {
				if k == 1 {
					pend := p.Add(runner.Spec{
						Workload: w, Variant: v, TotalInstr: h.Opt.SweepInstr,
						Devices: 1,
					})
					base[w+"|"+string(v)] = pend
					cells = append(cells, cell{w, v, 1, string(fleet.Striped), pend})
					continue
				}
				for _, placement := range h.Opt.FleetPlacements {
					pend := p.Add(runner.Spec{
						Workload: w, Variant: v, TotalInstr: h.Opt.SweepInstr,
						Devices: k, Placement: placement,
					})
					cells = append(cells, cell{w, v, k, placement, pend})
				}
			}
		}
	}
	return func() Table {
		t := Table{
			ID:     "figfleet",
			Title:  "Fleet scaling: K CXL-SSDs behind the placement layer",
			Header: []string{"workload", "variant", "K", "placement", "exec", "speedup", "link util", "flash util", "imbalance", "migr"},
			Note:   "speedup vs the K=1 baseline of the same workload+variant; link util is shared-link TX busy time over exec time",
		}
		for _, c := range cells {
			res := c.pend.Result()
			speedup := "1.00"
			if b, ok := base[c.workload+"|"+string(c.variant)]; ok && b != c.pend {
				speedup = f2(res.Speedup(b.Result()))
			}
			linkUtil := 0.0
			if res.ExecTime > 0 {
				linkUtil = float64(res.LinkStats.BusyTx) / float64(res.ExecTime)
			}
			t.Rows = append(t.Rows, []string{
				c.workload,
				string(c.variant),
				fmt.Sprintf("%d", c.devices),
				c.placement,
				res.ExecTime.String(),
				speedup,
				pct(linkUtil),
				pct(res.FlashUtilization),
				f2(fleetImbalance(res)),
				fmt.Sprintf("%d", res.FleetMigrations),
			})
		}
		return t
	}
}

// fleetImbalance is the max/mean ratio of per-device owned-page counts
// — 1.00 is a perfectly even spread; a capacity-weighted fleet reads as
// its dominant weight share. Returns 1 for empty or single-device runs.
func fleetImbalance(res *system.Result) float64 {
	if len(res.Devices) < 2 {
		return 1
	}
	var sum, max uint64
	for _, d := range res.Devices {
		sum += d.Pages
		if d.Pages > max {
			max = d.Pages
		}
	}
	if sum == 0 {
		return 1
	}
	mean := float64(sum) / float64(len(res.Devices))
	return float64(max) / mean
}
