package experiments

import (
	"context"
	"testing"

	"skybyte/internal/arrival"
	"skybyte/internal/system"
)

// figopenOptions keeps open-loop test campaigns fast: the figopen
// budget is 2x TotalInstr, split over each spec's cohort threads.
func figopenOptions() Options {
	o := tinyOptions()
	o.TotalInstr = 48_000
	return o
}

// TestFigOpenRendersAndStaysOptional: the open-loop table produces one
// row per arrival spec x intensity scale x variant x SLO class with
// sane offered/goodput numbers, and — like figmix — never leaks into
// the default campaign.
func TestFigOpenRendersAndStaysOptional(t *testing.T) {
	o := figopenOptions()
	h := NewHarness(o)
	tab, err := h.Render(context.Background(), "figopen")
	if err != nil {
		t.Fatal(err)
	}
	wantRows := 0
	for _, name := range h.Opt.Arrivals {
		a, err := arrival.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		classes, err := a.Classes(1)
		if err != nil {
			t.Fatal(err)
		}
		wantRows += len(classes) * len(figopenScales) * len(figopenVariants)
	}
	if len(tab.Rows) != wantRows {
		t.Fatalf("figopen has %d rows, want %d", len(tab.Rows), wantRows)
	}
	for i, row := range tab.Rows {
		if offered := parse(t, row[4]); offered <= 0 {
			t.Errorf("row %d: offered rate %q not positive", i, row[4])
		}
		if goodput := parse(t, row[5]); goodput <= 0 {
			t.Errorf("row %d: goodput %q not positive", i, row[5])
		}
		for col := 6; col <= 9; col++ { // p50..p99.9
			if row[col] == "" {
				t.Errorf("row %d: percentile column %d empty", i, col)
			}
		}
	}
	// Offered load scales with the intensity axis: the x4 rows of a
	// class offer 4x its x1 rows. The first spec renders 4 variants x
	// 2 classes = 8 rows per scale, so row 16 is (x4, Base, class 0).
	if r1, r4 := parse(t, tab.Rows[0][4]), parse(t, tab.Rows[16][4]); r4 < 3.9*r1 || r4 > 4.1*r1 {
		t.Errorf("offered rate does not track the intensity scale: x1=%g x4=%g", r1, r4)
	}

	tables, err := NewHarness(o).AllErr(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, tb := range tables {
		if tb.ID == "figopen" {
			t.Fatal("optional figopen leaked into the default campaign")
		}
	}
}

// TestFigOpenParallelDeterminism is the open-loop acceptance contract:
// per-class percentiles, goodput, and queue delays render
// byte-identically at any parallelism.
func TestFigOpenParallelDeterminism(t *testing.T) {
	render := func(parallelism int) string {
		o := figopenOptions()
		o.TotalInstr = 24_000
		o.Arrivals = []string{"open-steady"}
		o.Parallelism = parallelism
		tab, err := NewHarness(o).Render(context.Background(), "figopen")
		if err != nil {
			t.Fatal(err)
		}
		return tab.String()
	}
	seq := render(1)
	par := render(8)
	if seq != par {
		t.Errorf("figopen differs between Parallelism 1 and 8:\n--- sequential ---\n%s--- parallel ---\n%s", seq, par)
	}
}

// TestFigOpenWarmCacheStability: an arrival campaign recalls from the
// persistent store byte-for-byte with zero re-simulations — open-loop
// sections survive the codec round trip.
func TestFigOpenWarmCacheStability(t *testing.T) {
	dir := t.TempDir()
	render := func(counter *int) string {
		o := figopenOptions()
		o.TotalInstr = 24_000
		o.Arrivals = []string{"open-steady"}
		o.CacheDir = dir
		h := NewHarness(o)
		if counter != nil {
			h.Verbose = func(string, *system.Result) { *counter++ }
		}
		tab, err := h.Render(context.Background(), "figopen")
		if err != nil {
			t.Fatal(err)
		}
		return tab.String()
	}
	coldSims := 0
	cold := render(&coldSims)
	if coldSims == 0 {
		t.Fatal("cold figopen simulated nothing")
	}
	warmSims := 0
	warm := render(&warmSims)
	if warmSims != 0 {
		t.Fatalf("warm figopen simulated %d times, want 0", warmSims)
	}
	if cold != warm {
		t.Errorf("figopen differs between cold and warm runs:\n--- cold ---\n%s--- warm ---\n%s", cold, warm)
	}
}
