package main

import (
	"fmt"

	"skybyte/internal/arrival"
	"skybyte/internal/fleet"
	"skybyte/internal/runner"
	"skybyte/internal/system"
	"skybyte/internal/tenant"
	"skybyte/internal/workloads"
)

// Budgets are pinned here rather than read from the campaign defaults,
// so a change to experiments.DefaultOptions cannot silently change what
// a workload measures.
const (
	// defaultBudget and sweepBudget are the campaign's TotalInstr and
	// SweepInstr as of this benchmark's definition.
	defaultBudget uint64 = 384_000
	sweepBudget   uint64 = 192_000
	// steadyBudget is 10x the default: large enough that SkyByte-Full
	// compacts its write log on every write-heavy Table I app.
	steadyBudget uint64 = 3_840_000
)

// A design point is one runner.Spec: an (app, variant, budget) triple,
// where the app is a Table I workload, a multi-tenant mix, or an arrival
// spec, optionally on a fleet of several devices. The benchmark wires
// and runs it itself, through the same public calls the runner uses.

// pointID renders a design point compactly for spans and logs.
func pointID(s runner.Spec) string {
	name := s.Workload
	switch {
	case s.Mix != "":
		name = "mix:" + s.Mix
	case s.Arrival != "":
		name = fmt.Sprintf("arr:%s@%g", s.Arrival, s.ArrivalScale)
	}
	id := fmt.Sprintf("%s/%s/%d", name, s.Variant, s.TotalInstr)
	if s.Devices > 0 {
		id += fmt.Sprintf("/K%d:%s", s.Devices, s.Placement)
	}
	return id
}

// workloadNames lists the benchmark's workloads in documentation order.
var workloadNames = []string{"paper", "read-path", "sweep"}

// planWorkload returns the design points of one named workload.
func planWorkload(name string) ([]runner.Spec, error) {
	switch name {
	case "paper":
		return paperPoints(), nil
	case "read-path":
		return readPathPoints(), nil
	case "sweep":
		return sweepPoints()
	}
	return nil, fmt.Errorf("unknown workload %q (valid: %v)", name, workloadNames)
}

func solo(app string, v system.Variant, budget uint64) runner.Spec {
	return runner.Spec{Workload: app, Variant: v, TotalInstr: budget}
}

// paperVariants are the designs the fidelity scoreboard compares.
var paperVariants = []system.Variant{system.DRAMOnly, system.BaseCSSD, system.SkyByteFull}

// paperPoints is Table I's seven apps under the scoreboard's three
// designs at the steady-state budget.
func paperPoints() []runner.Spec {
	var pts []runner.Spec
	for _, app := range workloads.Table1Names() {
		for _, v := range paperVariants {
			pts = append(pts, solo(app, v, steadyBudget))
		}
	}
	return pts
}

// readPathVariants leave the write log off, so the write path is idle.
var readPathVariants = []system.Variant{system.BaseCSSD, system.SkyByteC, system.SkyByteCP}

// readPathPoints is the two least write-heavy apps under the variants
// without a write log, at the steady-state budget.
func readPathPoints() []runner.Spec {
	var pts []runner.Spec
	for _, app := range []string{"ycsb", "bc"} {
		for _, v := range readPathVariants {
			pts = append(pts, solo(app, v, steadyBudget))
		}
	}
	return pts
}

// The sweep's axes mirror the campaign's figmix, figopen and figfleet
// grids.
var (
	sweepScenarioVariants = []system.Variant{system.BaseCSSD, system.SkyByteC, system.SkyByteW, system.SkyByteFull}
	sweepArrivalScales    = []float64{1, 4}
	sweepFleetApps        = []string{"ycsb", "srad"}
	sweepFleetVariants    = []system.Variant{system.BaseCSSD, system.SkyByteFull}
	sweepFleetDevices     = []int{2, 4}
)

// sweepPoints is the campaign's breadth at default budgets: the Fig. 14
// variant grid, every built-in mix with its solo baselines, every
// built-in arrival spec at two intensities, and two fleet sizes under
// every placement policy.
func sweepPoints() ([]runner.Spec, error) {
	var pts []runner.Spec
	for _, app := range workloads.Table1Names() {
		for _, v := range system.AllVariants {
			pts = append(pts, solo(app, v, defaultBudget))
		}
	}
	for _, m := range tenant.Builtins() {
		for _, v := range sweepScenarioVariants {
			pts = append(pts, runner.Spec{Mix: m.Name, Variant: v, TotalInstr: sweepBudget, Threads: m.TotalThreads()})
			for i, t := range m.Tenants {
				per := m.PerThreadInstr(i, sweepBudget)
				pts = append(pts, runner.Spec{Workload: t.Workload, Variant: v, TotalInstr: per * uint64(t.Threads), Threads: t.Threads})
			}
		}
	}
	for _, a := range arrival.Builtins() {
		for _, scale := range sweepArrivalScales {
			for _, v := range sweepScenarioVariants {
				pts = append(pts, runner.Spec{Arrival: a.Name, ArrivalScale: scale, Variant: v, TotalInstr: 2 * defaultBudget})
			}
		}
	}
	for _, app := range sweepFleetApps {
		for _, v := range sweepFleetVariants {
			for _, k := range sweepFleetDevices {
				for _, pol := range fleet.PolicyNames() {
					if err := fleet.Validate(k, pol); err != nil {
						return nil, err
					}
					pts = append(pts, runner.Spec{Workload: app, Variant: v, TotalInstr: sweepBudget, Devices: k, Placement: pol})
				}
			}
		}
	}
	return pts, nil
}
