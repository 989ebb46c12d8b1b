// Allocation budget for the inner loop. The event engine, CPU, system,
// controller, FTL and flash layers pool their event records and
// continuations and schedule through typed handlers, and every page
// movement (promotion, demotion, TPP, AstriFlash, fleet migration)
// runs through pooled records, so a design point's allocations are
// warm-up only — pools growing to their working size — for every
// variant: none scales with run length (internal/system's
// TestSteadyStateAllocs pins that per variant). This test pins the
// cold cost of one run: the pre-pooling engine spent ~274k allocations
// (~21 per request) on this exact run, the pooled engine before the
// write log and trace generators stopped allocating per write and per
// refill ~10.7k (0.82/request), and the engine before page movement
// was pooled ~3.05k (0.23/request). The budgets below sit ~3x above
// today's measurement (~1.38k, 0.11/request), so a regression that
// reintroduces per-event or per-write garbage fails loudly while
// normal drift does not.
// Allocation counts are hardware-independent, which makes this the
// portable half of the perf gate (cmd/benchgate and the newest
// BENCH_<n>.json snapshot carry the wall-clock half).
package skybyte_test

import (
	"testing"

	"skybyte"
)

func TestColdRunAllocsBudget(t *testing.T) {
	w, err := skybyte.WorkloadByName("ycsb")
	if err != nil {
		t.Fatal(err)
	}
	cfg := skybyte.ScaledConfig().WithVariant(skybyte.SkyByteFull)
	if cfg.TelemetryCadence != 0 {
		t.Fatal("allocation budget must measure the telemetry-disabled path")
	}
	var reqs uint64
	allocs := testing.AllocsPerRun(3, func() {
		r := skybyte.Run(cfg, w, 24, 8000, 1)
		reqs = r.Breakdown.Total()
		if r.Telemetry != nil {
			t.Error("telemetry-disabled run carried a Telemetry section")
		}
	})
	if reqs == 0 {
		t.Fatal("run classified no requests")
	}
	const runBudget = 4_200
	if allocs > runBudget {
		t.Errorf("cold design point performed %.0f allocations; budget is %d (pre-pooling engine: ~274k)", allocs, runBudget)
	}
	perReq := allocs / float64(reqs)
	const perReqBudget = 0.3
	if perReq > perReqBudget {
		t.Errorf("%.2f allocations per off-chip request (%.0f allocs / %d requests); budget is %.1f (pre-pooling engine: ~21)",
			perReq, allocs, reqs, perReqBudget)
	}
}
