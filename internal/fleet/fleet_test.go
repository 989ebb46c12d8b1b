package fleet

import (
	"strings"
	"testing"
)

func TestParsePolicy(t *testing.T) {
	for _, name := range PolicyNames() {
		p, err := ParsePolicy(name)
		if err != nil {
			t.Fatalf("ParsePolicy(%q): %v", name, err)
		}
		if string(p) != name {
			t.Fatalf("ParsePolicy(%q) = %q", name, p)
		}
	}
	if p, err := ParsePolicy(""); err != nil || p != Striped {
		t.Fatalf("ParsePolicy(\"\") = %q, %v; want striped default", p, err)
	}
	_, err := ParsePolicy("round-robin")
	if err == nil {
		t.Fatal("ParsePolicy accepted unknown policy")
	}
	for _, name := range PolicyNames() {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("error %q does not list valid policy %q", err, name)
		}
	}
}

func TestValidate(t *testing.T) {
	if err := Validate(1, ""); err != nil {
		t.Fatalf("Validate(1, \"\"): %v", err)
	}
	if err := Validate(MaxDevices, "hotcold"); err != nil {
		t.Fatalf("Validate(%d, hotcold): %v", MaxDevices, err)
	}
	if err := Validate(0, ""); err == nil || !strings.Contains(err.Error(), "1..16") {
		t.Fatalf("Validate(0) = %v; want range error listing 1..16", err)
	}
	if err := Validate(MaxDevices+1, ""); err == nil {
		t.Fatal("Validate accepted oversized fleet")
	}
	if err := Validate(2, "bogus"); err == nil {
		t.Fatal("Validate accepted unknown policy")
	}
}

func TestStripedPlacement(t *testing.T) {
	p, err := NewPlacer(Config{Devices: 4})
	if err != nil {
		t.Fatal(err)
	}
	if p.Policy() != Striped {
		t.Fatalf("default policy = %q", p.Policy())
	}
	for lpa := uint64(0); lpa < 64; lpa++ {
		if got, want := p.Device(lpa), int(lpa%4); got != want {
			t.Fatalf("Device(%d) = %d, want %d", lpa, got, want)
		}
	}
	for d := 0; d < 4; d++ {
		if p.Pages(d) != 16 {
			t.Fatalf("Pages(%d) = %d, want 16", d, p.Pages(d))
		}
		if p.Inbound(d) != 0 {
			t.Fatalf("Inbound(%d) = %d on a static policy", d, p.Inbound(d))
		}
	}
	if _, ok := p.NoteAccess(7); ok {
		t.Fatal("striped placement migrated a page")
	}
	if p.Migrations() != 0 {
		t.Fatalf("Migrations = %d on a static policy", p.Migrations())
	}
}

func TestCapacityPlacement(t *testing.T) {
	// Equal ranges over four devices — each should own about a quarter
	// of a large uniform page population.
	cfg := Config{Devices: 4, Policy: Capacity}
	p, err := NewPlacer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const n = 100000
	for lpa := uint64(0); lpa < n; lpa++ {
		p.Device(lpa)
	}
	var sum uint64
	for d := 0; d < 4; d++ {
		if share := float64(p.Pages(d)) / n; share < 0.23 || share > 0.27 {
			t.Fatalf("device %d share = %.3f, want ~0.25", d, share)
		}
		sum += p.Pages(d)
	}
	if sum != n {
		t.Fatalf("pages sum %d != %d", sum, n)
	}

	// Placement is a pure function of the page number: a second placer
	// from the same config agrees on every page, in any probe order.
	q, err := NewPlacer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for lpa := uint64(n); lpa > 0; lpa-- {
		if p.Device(lpa-1) != q.Device(lpa-1) {
			t.Fatalf("placers disagree on lpa %d", lpa-1)
		}
	}
}

func TestHotColdMigration(t *testing.T) {
	p, err := NewPlacer(Config{Devices: 4, Policy: HotCold})
	if err != nil {
		t.Fatal(err)
	}
	// The hot tier for K=4 is one device; cold pages stripe across
	// devices 1..3.
	const lpa = 5 // cold home: 1 + 5%3 = 3
	if got := p.Device(lpa); got != 3 {
		t.Fatalf("cold home of %d = %d, want 3", lpa, got)
	}
	for i := 0; i < hotThreshold-1; i++ {
		if _, ok := p.NoteAccess(lpa); ok {
			t.Fatalf("migrated after %d accesses, threshold %d", i+1, hotThreshold)
		}
	}
	m, ok := p.NoteAccess(lpa)
	if !ok {
		t.Fatal("no migration at threshold")
	}
	if m != (Migration{LPA: lpa, From: 3, To: 0}) {
		t.Fatalf("migration = %+v", m)
	}
	if got := p.Device(lpa); got != 0 {
		t.Fatalf("post-migration owner = %d, want 0", got)
	}
	if p.Inbound(0) != 1 || p.Migrations() != 1 {
		t.Fatalf("inbound=%d migrations=%d, want 1/1", p.Inbound(0), p.Migrations())
	}
	if p.Pages(3) != 0 || p.Pages(0) != 1 {
		t.Fatalf("page counts after migration: dev3=%d dev0=%d", p.Pages(3), p.Pages(0))
	}
	// Hot pages never migrate again.
	if _, ok := p.NoteAccess(lpa); ok {
		t.Fatal("hot page migrated twice")
	}
}

func TestHotColdNeedsColdTier(t *testing.T) {
	if _, err := NewPlacer(Config{Devices: 1, Policy: HotCold}); err == nil {
		t.Fatal("accepted a one-device hotcold fleet, whose hot tier is the whole fleet")
	}
	// The hot tier is max(1, K/4) devices: K=8 has hot devices 0 and 1.
	p, err := NewPlacer(Config{Devices: 8, Policy: HotCold})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Device(0); got != 2 {
		t.Fatalf("cold home of page 0 = %d, want 2 (the first cold device)", got)
	}
}
