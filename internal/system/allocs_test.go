package system

import (
	"runtime"
	"testing"

	"skybyte/internal/trace"
)

// steadyAllocsPerKinstr bounds the allocations a run makes per thousand
// instructions once its pools are warm. Every variant and the hot/cold
// fleet measure at most ~0.21 below; a path that allocates per
// promotion, demotion, fetch, migration, scan or idle wake-up measures
// 1.5 to 9.
const steadyAllocsPerKinstr = 0.5

// TestSteadyStateAllocs: no Run path allocates in proportion to run
// length. Each case runs a budget of T instructions per thread and then
// 2T from the same seed; what the longer run allocates beyond the
// shorter is the cost of its extra T, by which point every pool
// (engine records, request transactions, promotion, demotion and fetch
// records, the write log's slabs) has reached its working size. The
// budget is large enough that the page-movement paths run in that
// window: adaptive promotion, TPP's periodic scans, AstriFlash's host
// page cache and the fleet's tier migrations.
func TestSteadyStateAllocs(t *testing.T) {
	const threads, budget = 8, 40_000
	mk := func(i int) trace.Stream { return scatterStream(uint64(i)+1, 8192, 0.3, 16) }
	run := func(cfg Config, per uint64) (allocs uint64, r *Result) {
		s := New(cfg)
		for i := 0; i < threads; i++ {
			s.AddThread(mk(i), per)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r = s.Run()
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs, r
	}
	type point struct {
		name string
		cfg  Config
	}
	var points []point
	for _, v := range KnownVariants {
		points = append(points, point{string(v), ScaledConfig().WithVariant(v)})
	}
	points = append(points, point{"hotcold fleet", fleetConfigOf(BaseCSSD, 4, "hotcold")})
	for _, p := range points {
		short, r1 := run(p.cfg, budget)
		long, r2 := run(p.cfg, 2*budget)
		kinstr := float64(r2.Instructions-r1.Instructions) / 1000
		perK := (float64(long) - float64(short)) / kinstr
		t.Logf("%-14s %5d -> %5d allocations: %.3f per extra kinstr (promotions %d -> %d, fleet migrations %d -> %d)",
			p.name, short, long, perK, r1.Migration.Promotions, r2.Migration.Promotions, r1.FleetMigrations, r2.FleetMigrations)
		if perK > steadyAllocsPerKinstr {
			t.Errorf("%s: %.2f allocations per kinstr beyond warm-up (%d at %d instructions per thread, %d at %d); budget is %.1f",
				p.name, perK, short, budget, long, 2*budget, steadyAllocsPerKinstr)
		}
	}
}
