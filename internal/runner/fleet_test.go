package runner

import (
	"context"
	"strings"
	"testing"

	"skybyte/internal/system"
)

func fleetSpec(workload string, v system.Variant, devices int, placement string) Spec {
	return Spec{Workload: workload, Variant: v, TotalInstr: 24_000, Threads: 8,
		Devices: devices, Placement: placement}
}

// TestKeyFleetSegment pins the fleet key-derivation scheme (DESIGN.md
// §9): Devices=0 keys are byte-identical to the pre-fleet format (a
// warm store stays warm across the upgrade), Devices=1 is that same
// single-device machine under the same key, an unset placement keys as
// striped (the resolved default — the same machine must not get two
// cache identities), and changing only the placement policy re-keys.
func TestKeyFleetSegment(t *testing.T) {
	r := testRunner(1)
	legacy := spec("bc", system.BaseCSSD)
	if strings.Contains(legacy.Key(), "fleet=") {
		t.Fatalf("Devices=0 key grew a fleet segment: %q", legacy.Key())
	}
	one := legacy
	one.Devices = 1
	if strings.Contains(one.Key(), "fleet=") {
		t.Fatalf("Devices=1 key grew a fleet segment: %q", one.Key())
	}
	if r.Key(one) != r.Key(legacy) {
		t.Fatalf("Devices=1 keyed %q, Devices=0 %q: one machine, two keys", r.Key(one), r.Key(legacy))
	}
	k2 := fleetSpec("bc", system.BaseCSSD, 2, "striped")
	if !strings.Contains(k2.Key(), "|fleet=2:striped|") {
		t.Fatalf("fleet key = %q, want a |fleet=2:striped| segment", k2.Key())
	}
	if fleetSpec("bc", system.BaseCSSD, 2, "").Key() != k2.Key() || r.Key(fleetSpec("bc", system.BaseCSSD, 2, "")) != r.Key(k2) {
		t.Fatal("unset placement and explicit striped keyed differently for the same machine")
	}
	// Surgical re-keying: only the placement (or device count) dimension
	// moves the key.
	if fleetSpec("bc", system.BaseCSSD, 2, "capacity").Key() == k2.Key() {
		t.Fatal("placement change did not re-key the spec")
	}
	if fleetSpec("bc", system.BaseCSSD, 4, "striped").Key() == k2.Key() {
		t.Fatal("device-count change did not re-key the spec")
	}
}

// TestFleetPlacementRequiresDevices pins the key-soundness guard: a
// placement without a fleet (Devices < 2) would not fold into the key,
// so the runner must reject it rather than alias two machines onto one
// store entry.
func TestFleetPlacementRequiresDevices(t *testing.T) {
	r := testRunner(1)
	for _, devices := range []int{0, 1} {
		if _, err := r.Run(context.Background(), fleetSpec("bc", system.BaseCSSD, devices, "striped")); err == nil {
			t.Fatalf("placement on %d devices accepted", devices)
		}
	}
	if _, err := r.Run(context.Background(), fleetSpec("bc", system.BaseCSSD, 99, "")); err == nil {
		t.Fatal("out-of-range device count accepted")
	}
	if _, err := r.Run(context.Background(), fleetSpec("bc", system.BaseCSSD, 2, "nope")); err == nil {
		t.Fatal("unknown placement accepted")
	}
	// The runner stays usable after the rejections.
	if _, err := r.Run(context.Background(), fleetSpec("bc", system.BaseCSSD, 2, "")); err != nil {
		t.Fatalf("valid fleet spec failed after rejections: %v", err)
	}
}

// TestFleetParallelByteIdentity pins placement determinism across
// worker-pool sizes: the same fleet design points executed at
// parallelism 1 and 8 encode byte-identically — device assignment,
// per-device splits, and migration counts included.
func TestFleetParallelByteIdentity(t *testing.T) {
	specs := []Spec{
		fleetSpec("bc", system.BaseCSSD, 2, "striped"),
		fleetSpec("bc", system.SkyByteFull, 4, "capacity"),
		fleetSpec("srad", system.SkyByteFull, 4, "hotcold"),
	}
	seq, err := testRunner(1).RunAll(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	par, err := testRunner(8).RunAll(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range specs {
		a, err := system.EncodeResult(seq[i])
		if err != nil {
			t.Fatal(err)
		}
		b, err := system.EncodeResult(par[i])
		if err != nil {
			t.Fatal(err)
		}
		if string(a) != string(b) {
			t.Errorf("spec %d (%s): parallel fleet run diverged from sequential", i, specs[i].Key())
		}
		if len(seq[i].Devices) != specs[i].Devices {
			t.Errorf("spec %d: %d device rows, want %d", i, len(seq[i].Devices), specs[i].Devices)
		}
	}
}

// TestFleetStoreRoundTrip pins the store contract for fleet runs: a
// warm recall decodes to the same bytes the cold run produced —
// per-device section included — and placement-distinct specs occupy
// distinct store entries.
func TestFleetStoreRoundTrip(t *testing.T) {
	shared := &countingStore{}
	striped := fleetSpec("bc", system.SkyByteFull, 4, "striped")
	hotcold := fleetSpec("bc", system.SkyByteFull, 4, "hotcold")

	cold := testRunner(2)
	cold.Store = shared
	coldRes, err := cold.RunAll(context.Background(), []Spec{striped, hotcold})
	if err != nil {
		t.Fatal(err)
	}
	if len(shared.m) != 2 {
		t.Fatalf("store holds %d entries, want 2 (placement-distinct specs must not alias)", len(shared.m))
	}

	warm := testRunner(2)
	warm.Store = shared
	warm.CacheOnly = true
	warmRes, err := warm.RunAll(context.Background(), []Spec{striped, hotcold})
	if err != nil {
		t.Fatal(err)
	}
	for i := range coldRes {
		a, err := system.EncodeResult(coldRes[i])
		if err != nil {
			t.Fatal(err)
		}
		b, err := system.EncodeResult(warmRes[i])
		if err != nil {
			t.Fatal(err)
		}
		if string(a) != string(b) {
			t.Errorf("spec %d: store round trip changed the result bytes", i)
		}
	}
}
