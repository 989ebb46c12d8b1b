package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"runtime/pprof"
	"strconv"
	"strings"
	"testing"

	"skybyte/internal/experiments"
	"skybyte/internal/runner"
	"skybyte/internal/stats"
	"skybyte/internal/store"
	"skybyte/internal/system"
	"skybyte/internal/workloads"
)

const testSeed = 7

// executeAll runs pts once against a fresh store and fails the test on
// any failed point.
func executeAll(t *testing.T, pts []runner.Spec) []outcome {
	t.Helper()
	st, err := store.Open(t.TempDir(), store.Fingerprint(baseConfig(), testSeed))
	if err != nil {
		t.Fatal(err)
	}
	var outs []outcome
	for _, s := range pts {
		o := execute(s, testSeed, st, nil, -1)
		if o.err != nil {
			t.Fatalf("%s: %v", o.id, o.err)
		}
		outs = append(outs, o)
	}
	return outs
}

// TestAccuracyMatchesHarnessNotes checks, at the default budget, that
// the benchmark's scoreboard equals what the campaign's fig14 and fig18
// notes print and what the fig17 table lists, for the same design
// points.
func TestAccuracyMatchesHarnessNotes(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the default-budget Fig. 14 grid")
	}
	opt := experiments.DefaultOptions()
	if opt.TotalInstr != defaultBudget || opt.Seed != testSeed {
		t.Fatalf("campaign defaults moved (budget %d, seed %d): re-pin the benchmark's budgets deliberately", opt.TotalInstr, opt.Seed)
	}
	h := experiments.NewHarness(opt)
	fig14, fig17, fig18 := h.Fig14(), h.Fig17(), h.Fig18()

	apps := workloads.Table1Names()
	var pts []runner.Spec
	for _, app := range apps {
		for _, v := range paperVariants {
			pts = append(pts, solo(app, v, defaultBudget))
		}
	}
	acc, ok := computeAccuracy(indexResults(pts, executeAll(t, pts)), apps)
	if !ok {
		t.Fatal("scoreboard design points missing")
	}

	want14 := fmt.Sprintf("SkyByte-Full mean speedup over Base-CSSD: %.2fx (paper: 6.11x); of DRAM-Only: %.0f%% (paper: 75%%)",
		acc.Fig14Speedup, 100*acc.Fig14DRAMShare)
	if fig14.Note != want14 {
		t.Errorf("fig14 note %q, benchmark computes %q", fig14.Note, want14)
	}
	want18 := fmt.Sprintf("SkyByte-Full mean write-traffic reduction: %.1fx (paper: 23.08x)", acc.Fig18WriteReduction)
	if fig18.Note != want18 {
		t.Errorf("fig18 note %q, benchmark computes %q", fig18.Note, want18)
	}

	// Fig. 17 has no note: rebuild its headline from the table's
	// rounded Base-CSSD and SkyByte-Full AMAT rows.
	amat := map[string]float64{}
	for _, row := range fig17.Rows {
		v, err := strconv.ParseFloat(row[2], 64)
		if err != nil {
			t.Fatal(err)
		}
		amat[row[0]+"|"+row[1]] = v
	}
	var ratios []float64
	for _, app := range apps {
		ratios = append(ratios, amat[app+"|"+string(system.BaseCSSD)]/amat[app+"|"+string(system.SkyByteFull)])
	}
	if table := stats.GeoMean(ratios); math.Abs(table/acc.Fig17AMATReduction-1) > 0.005 {
		t.Errorf("fig17 table gives %.4fx AMAT reduction, benchmark computes %.4fx", table, acc.Fig17AMATReduction)
	}
}

// TestReadPathDoesNoWriteLogWork pins the read-path workload's reason
// to exist: none of its variants enables the write log.
func TestReadPathDoesNoWriteLogWork(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the read-path workload")
	}
	ms := metricSet{}
	modelled(executeAll(t, readPathPoints()), ms)
	if got := ms["writelog.lines_absorbed"].Value; got != 0 {
		t.Errorf("read-path absorbed %v lines into the write log, want 0", got)
	}
	if got := ms["core.compactions"].Value; got != 0 {
		t.Errorf("read-path compacted %v times, want 0", got)
	}
}

// TestPaperCompactsOnWriteHeavyApps pins the paper workload's budget:
// SkyByte-Full must compact its write log on every write-heavy app.
func TestPaperCompactsOnWriteHeavyApps(t *testing.T) {
	if testing.Short() {
		t.Skip("runs SkyByte-Full at the steady-state budget")
	}
	for _, app := range []string{"radix", "dlrm", "srad", "tpcc"} {
		o := executeAll(t, []runner.Spec{solo(app, system.SkyByteFull, steadyBudget)})[0]
		if o.res.Compaction.Count == 0 {
			t.Errorf("%s: SkyByte-Full at %d instructions never compacted", app, steadyBudget)
		}
	}
}

// TestWorkloadsPlan checks every workload plans, with unique points.
func TestWorkloadsPlan(t *testing.T) {
	for _, name := range workloadNames {
		pts, err := planWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		for _, s := range pts {
			if seen[s.Key()] {
				t.Errorf("%s: design point %s planned twice", name, pointID(s))
			}
			seen[s.Key()] = true
		}
	}
	if _, err := planWorkload("nope"); err == nil {
		t.Error("unknown workload planned")
	}
}

// TestCheckSplitsRejectsMismatch checks that a split that does not sum
// to its total fails the point.
func TestCheckSplitsRejectsMismatch(t *testing.T) {
	r := &system.Result{Instructions: 10, Tenants: []system.TenantResult{{Instructions: 4}, {Instructions: 5}}}
	if checkSplits(r) == nil {
		t.Error("tenant split 4+5 accepted against a total of 10")
	}
	r.Tenants[1].Instructions = 6
	if err := checkSplits(r); err != nil {
		t.Error(err)
	}
	r = &system.Result{OpenLoop: &system.OpenLoopResult{
		Classes: []system.SLOClassResult{{Stats: stats.OpenStats{Admitted: 2}}},
		Total:   stats.OpenStats{Admitted: 3},
	}}
	if checkSplits(r) == nil {
		t.Error("SLO-class split 2 accepted against a total of 3")
	}
}

func TestPackageOf(t *testing.T) {
	for fn, want := range map[string]string{
		"skybyte/internal/core.(*Controller).MemRd":          "core",
		"skybyte/internal/system.(*System).getReadTxn.func1": "system",
		"skybyte/internal/writelog.(*Log).Append":            "writelog",
		"runtime.mallocgc": "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall": "runtime",
		"encoding/json.(*encodeState).marshal":         "other",
	} {
		if got := packageOf(fn); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestTracedPassWritesSpansAndProfile runs a traced pass over two short
// points and checks the span tree and the CPU-share decoding.
func TestTracedPassWritesSpansAndProfile(t *testing.T) {
	pts := []runner.Spec{solo("bc", system.BaseCSSD, 96_000), solo("srad", system.SkyByteFull, 96_000)}
	tr := newTracer()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Fatal(err)
	}
	p, err := runPass(pts, testSeed, t.TempDir(), tr)
	pprof.StopCPUProfile()
	if err != nil {
		t.Fatal(err)
	}
	shares, err := cpuShares(prof.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, v := range shares {
		total += v
	}
	if math.Abs(total-1) > 1e-9 || shares["runtime"]+shares["sim"]+shares["cpu"]+shares["system"] == 0 {
		t.Errorf("implausible CPU shares %v", shares)
	}
	for _, o := range p.outs {
		if o.err != nil {
			t.Fatalf("%s: %v", o.id, o.err)
		}
	}
	names := map[string]int{}
	for _, s := range tr.spans {
		names[s.Name]++
		if s.End < s.Start {
			t.Errorf("span %s ends before it starts", s.Name)
		}
		if s.Name != "workload" && s.Parent < 0 {
			t.Errorf("span %s has no parent", s.Name)
		}
	}
	for _, n := range []string{"wire", "run", "encode", "decode", "store.put", "store.get", "point"} {
		if names[n] != len(pts) {
			t.Errorf("%d %q spans, want %d", names[n], n, len(pts))
		}
	}
	path := t.TempDir() + "/spans.json"
	if err := tr.write(path); err != nil {
		t.Fatal(err)
	}
	if data, err := os.ReadFile(path); err != nil || !strings.Contains(string(data), `"name":"run"`) {
		t.Errorf("span file unreadable or missing run spans: %v", err)
	}
}
