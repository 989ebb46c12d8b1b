package system

import (
	"testing"

	"skybyte/internal/core"
	"skybyte/internal/sim"
	"skybyte/internal/trace"
)

// fleetConfigOf is the scaled machine with a fleet section attached.
func fleetConfigOf(v Variant, devices int, placement string) Config {
	cfg := ScaledConfig().WithVariant(v)
	cfg.Devices = devices
	cfg.Placement = placement
	return cfg
}

func runFleet(t *testing.T, cfg Config, threads int, perThread uint64, stream func(i int) trace.Stream) *Result {
	t.Helper()
	s := New(cfg)
	for i := 0; i < threads; i++ {
		s.AddThread(stream(i), perThread)
	}
	r := s.Run()
	if r.Instructions < perThread*uint64(threads) {
		t.Fatalf("retired %d, want >= %d", r.Instructions, perThread*uint64(threads))
	}
	return r
}

// TestFleetDeviceSplitsSumToTotals pins the fleet section's shape
// (DESIGN.md §9) under every policy: one row per device, the resolved
// placement name, and placement that actually spreads pages. That the
// rows sum to the fleet totals is TestSplitsReconcile's (package
// skybyte).
func TestFleetDeviceSplitsSumToTotals(t *testing.T) {
	mk := func(i int) trace.Stream { return scatterStream(uint64(i)+1, 32768, 0.3, 16) }
	for _, tc := range []struct {
		devices   int
		placement string
	}{{2, "striped"}, {4, "striped"}, {4, "capacity"}, {4, "hotcold"}, {8, ""}} {
		res := runFleet(t, fleetConfigOf(SkyByteFull, tc.devices, tc.placement), 8, 12000, mk)
		if len(res.Devices) != tc.devices {
			t.Fatalf("k=%d/%s: %d device rows", tc.devices, tc.placement, len(res.Devices))
		}
		wantPolicy := tc.placement
		if wantPolicy == "" {
			wantPolicy = "striped"
		}
		if res.Placement != wantPolicy {
			t.Fatalf("k=%d/%s: Placement = %q", tc.devices, tc.placement, res.Placement)
		}
		// Placement actually spread work: more than one device owns pages
		// (hotcold concentrates flash traffic but still stripes cold pages).
		owners := 0
		for _, d := range res.Devices {
			if d.Pages > 0 {
				owners++
			}
		}
		if owners < 2 {
			t.Errorf("k=%d/%s: only %d device(s) own pages", tc.devices, tc.placement, owners)
		}
	}
}

// TestFleetOfOneMatchesLegacy pins the fleet-of-one identity: Devices=1
// is the single-device machine of Devices=0 — the same Result, byte for
// byte, with no per-device section. (The runner keys both alike;
// TestKeyFleetSegment.)
func TestFleetOfOneMatchesLegacy(t *testing.T) {
	mk := func(i int) trace.Stream { return synthStream(uint64(i)+1, 8192, 0.3, 32) }
	legacy := runFleet(t, fleetConfigOf(SkyByteFull, 0, ""), 4, 10000, mk)
	one := runFleet(t, fleetConfigOf(SkyByteFull, 1, ""), 4, 10000, mk)
	if one.Devices != nil || one.Placement != "" {
		t.Fatalf("fleet of one grew a fleet section: %d rows, placement %q", len(one.Devices), one.Placement)
	}
	a, err := EncodeResult(legacy)
	if err != nil {
		t.Fatal(err)
	}
	b, err := EncodeResult(one)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("Devices=1 and Devices=0 encode different Results")
	}
}

// TestFleetDeterminism pins byte-identical fleet results: two fresh
// systems under the same config and streams encode identically,
// per-device section included.
func TestFleetDeterminism(t *testing.T) {
	mk := func(i int) trace.Stream { return scatterStream(uint64(i)+1, 16384, 0.3, 16) }
	run := func() *Result { return runFleet(t, fleetConfigOf(SkyByteFull, 4, "hotcold"), 8, 8000, mk) }
	a, err := EncodeResult(run())
	if err != nil {
		t.Fatal(err)
	}
	b, err := EncodeResult(run())
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("identical fleet runs encoded differently")
	}
}

// TestFleetHotColdMigrates drives a tiny hot set through the hotcold
// policy: the hot pages must cross into the hot tier (FleetMigrations
// > 0). TestSplitsReconcile (package skybyte) checks that a migrating
// hotcold fleet stays fully accounted.
func TestFleetHotColdMigrates(t *testing.T) {
	mk := func(i int) trace.Stream { return hotStream(uint64(i)+1, 24) }
	res := runFleet(t, fleetConfigOf(BaseCSSD, 4, "hotcold"), 4, 8000, mk)
	if res.FleetMigrations == 0 {
		t.Fatal("hot pages never migrated to the hot tier")
	}
}

// TestFleetPageCacheProbePoolsDevices: the fleet-wide
// pagecache.hit_ratio probe pools every device's hits and misses
// (DESIGN.md §9) rather than reading device 0's cache alone.
func TestFleetPageCacheProbePoolsDevices(t *testing.T) {
	cfg := fleetConfigOf(SkyByteFull, 2, "")
	cfg.TelemetryCadence = sim.Microsecond
	s := New(cfg)
	s.devs[0].ctrl.Cache().Stats = core.PageCacheStats{Misses: 4}
	s.devs[1].ctrl.Cache().Stats = core.PageCacheStats{Hits: 12}
	res := s.Run() // no threads: the sampler takes one tick and stops
	ser := res.Telemetry.SeriesByName("pagecache.hit_ratio")
	if ser == nil || len(ser.Points) == 0 {
		t.Fatal("no pagecache.hit_ratio samples")
	}
	if got := ser.Points[0].Last; got != 0.75 {
		t.Fatalf("pagecache.hit_ratio = %v, want 0.75 (12 hits of 16 accesses over both devices)", got)
	}
}

// TestFleetInvalidConfigPanics: a malformed fleet section must fail
// loudly at construction, not place pages arbitrarily.
func TestFleetInvalidConfigPanics(t *testing.T) {
	for _, cfg := range []Config{
		fleetConfigOf(BaseCSSD, 99, ""),
		fleetConfigOf(BaseCSSD, 4, "nope"),
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New accepted devices=%d placement=%q", cfg.Devices, cfg.Placement)
				}
			}()
			New(cfg)
		}()
	}
}
