package experiments

import (
	"context"
	"strconv"
	"strings"
	"testing"

	"skybyte/internal/mem"
	"skybyte/internal/runner"
	"skybyte/internal/system"
	"skybyte/internal/tenant"
	"skybyte/internal/workloads"
)

// tinyOptions keeps unit-test campaigns fast: two workloads, small budget.
func tinyOptions() Options {
	o := DefaultOptions()
	o.TotalInstr = 96_000
	o.SweepInstr = 48_000
	o.Workloads = []string{"bc", "srad"}
	return o
}

func parse(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	if err != nil {
		t.Fatalf("cell %q not numeric: %v", s, err)
	}
	return v
}

func TestFig02ShowsSlowdown(t *testing.T) {
	h := NewHarness(tinyOptions())
	tab := h.Fig02()
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if s := parse(t, row[3]); s < 1.5 {
			t.Errorf("%s: CXL-SSD slowdown %.2f below the paper's 1.5x floor", row[0], s)
		}
	}
}

func TestFig04MemoryBound(t *testing.T) {
	h := NewHarness(tinyOptions())
	tab := h.Fig04()
	for _, row := range tab.Rows {
		cssdMem := parse(t, row[3])
		if cssdMem < 50 {
			t.Errorf("%s: CXL-SSD only %.1f%% memory bound; paper reports 77-99.8%%", row[0], cssdMem)
		}
	}
}

func TestFig14FullBeatsBase(t *testing.T) {
	h := NewHarness(tinyOptions())
	tab := h.Fig14()
	// Columns follow system.AllVariants; find Base-CSSD and SkyByte-Full.
	baseCol, fullCol, dramCol := -1, -1, -1
	for i, hd := range tab.Header {
		switch hd {
		case string(system.BaseCSSD):
			baseCol = i
		case string(system.SkyByteFull):
			fullCol = i
		case string(system.DRAMOnly):
			dramCol = i
		}
	}
	if baseCol < 0 || fullCol < 0 || dramCol < 0 {
		t.Fatal("variant columns missing")
	}
	for _, row := range tab.Rows {
		base := parse(t, row[baseCol])
		full := parse(t, row[fullCol])
		dram := parse(t, row[dramCol])
		if full > base {
			t.Errorf("%s: SkyByte-Full (%.3f) slower than Base (%.3f)", row[0], full, base)
		}
		if dram > full {
			t.Errorf("%s: DRAM-Only (%.3f) slower than Full (%.3f)", row[0], dram, full)
		}
	}
}

func TestFig18WriteLogReduces(t *testing.T) {
	h := NewHarness(tinyOptions())
	tab := h.Fig18()
	wCol := -1
	for i, hd := range tab.Header {
		if hd == string(system.SkyByteW) {
			wCol = i
		}
	}
	for _, row := range tab.Rows {
		if row[wCol] == "n/a" {
			continue
		}
		if v := parse(t, row[wCol]); v > 1.0 {
			t.Errorf("%s: SkyByte-W write traffic %.3f not reduced vs Base", row[0], v)
		}
	}
}

func TestFig16FractionsSumToOne(t *testing.T) {
	h := NewHarness(tinyOptions())
	tab := h.Fig16()
	for _, row := range tab.Rows {
		sum := 0.0
		for _, c := range row[1:] {
			sum += parse(t, c)
		}
		if sum < 99 || sum > 101 {
			t.Errorf("%s: breakdown sums to %.1f%%", row[0], sum)
		}
	}
}

func TestTable1Shape(t *testing.T) {
	h := NewHarness(tinyOptions())
	tab := h.Table1()
	if len(tab.Rows) != 2 || len(tab.Header) != 6 {
		t.Fatalf("table1 shape %dx%d", len(tab.Rows), len(tab.Header))
	}
	for _, row := range tab.Rows {
		if parse(t, row[4]) <= 0 {
			t.Errorf("%s: measured MPKI missing", row[0])
		}
	}
}

func TestTableRendering(t *testing.T) {
	tab := Table{ID: "x", Title: "T", Header: []string{"a", "bb"}, Rows: [][]string{{"1", "2"}}}
	s := tab.String()
	if !strings.Contains(s, "== x: T ==") || !strings.Contains(s, "bb") {
		t.Fatalf("rendering broken:\n%s", s)
	}
}

// TestOptionsFieldDefaults pins the field-wise defaulting: a caller
// scoping only Workloads (TotalInstr left zero) keeps that scope and
// inherits the default budgets, rather than having the whole Options
// replaced.
func TestOptionsFieldDefaults(t *testing.T) {
	h := NewHarness(Options{Workloads: []string{"bc"}, Parallelism: 2})
	if len(h.Opt.Workloads) != 1 || h.Opt.Workloads[0] != "bc" {
		t.Fatalf("caller Workloads discarded: %v", h.Opt.Workloads)
	}
	def := DefaultOptions()
	if h.Opt.TotalInstr != def.TotalInstr || h.Opt.SweepInstr != def.SweepInstr || h.Opt.Seed != def.Seed {
		t.Fatalf("zero fields not defaulted: %+v", h.Opt)
	}
	if h.Opt.BaseConfig.Cores == 0 {
		t.Fatal("BaseConfig not defaulted")
	}
}

// TestCampaignParallelDeterminism is the contract of the plan/execute
// split: a campaign rendered at Parallelism 1 and at Parallelism 8 must
// produce byte-identical tables — same runs, same order, same numbers.
func TestCampaignParallelDeterminism(t *testing.T) {
	render := func(parallelism int) []string {
		o := tinyOptions()
		o.TotalInstr = 48_000
		o.SweepInstr = 24_000
		o.Parallelism = parallelism
		var out []string
		for _, tab := range NewHarness(o).All() {
			out = append(out, tab.String())
		}
		return out
	}
	seq := render(1)
	par := render(8)
	if len(seq) != len(par) {
		t.Fatalf("table counts differ: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		if seq[i] != par[i] {
			t.Errorf("table %d differs between Parallelism 1 and 8:\n--- sequential ---\n%s--- parallel ---\n%s", i, seq[i], par[i])
		}
	}
}

// renderAll renders every campaign table to one string per table.
func renderAll(t *testing.T, h *Harness) []string {
	t.Helper()
	tables, err := h.AllErr(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(tables))
	for i, tab := range tables {
		out[i] = tab.String()
	}
	return out
}

func shardOptions(cacheDir string) Options {
	o := tinyOptions()
	o.TotalInstr = 48_000
	o.SweepInstr = 24_000
	o.CacheDir = cacheDir
	return o
}

// TestShardMergeDeterminism is the acceptance contract of the sharded
// store: a campaign split into 4 shards, executed by 4 independent
// harnesses into one store, then rendered from cache by a fifth that
// simulated nothing, must produce byte-identical tables to a direct
// unsharded (and storeless) run — and so must a 1-shard run.
func TestShardMergeDeterminism(t *testing.T) {
	direct := func() []string {
		o := tinyOptions()
		o.TotalInstr = 48_000
		o.SweepInstr = 24_000
		return renderAll(t, NewHarness(o))
	}()

	for _, shards := range []int{1, 4} {
		dir := t.TempDir()
		total := 0
		for i := 0; i < shards; i++ {
			o := shardOptions(dir)
			o.Shard, o.ShardCount = i, shards
			h := NewHarness(o)
			executed, planned, err := h.RunShard(context.Background())
			if err != nil {
				t.Fatalf("%d shards: shard %d: %v", shards, i, err)
			}
			total += executed
			if planned == 0 {
				t.Fatalf("%d shards: shard %d planned nothing", shards, i)
			}
		}

		o := shardOptions(dir)
		o.FromCache = true
		h := NewHarness(o)
		sims := 0
		h.Verbose = func(string, *system.Result) { sims++ }
		merged := renderAll(t, h)
		if sims != 0 {
			t.Fatalf("%d shards: render-from-cache simulated %d times", shards, sims)
		}
		if len(merged) != len(direct) {
			t.Fatalf("%d shards: table counts differ: %d vs %d", shards, len(merged), len(direct))
		}
		for i := range direct {
			if merged[i] != direct[i] {
				t.Errorf("%d shards: table %d differs from the direct run:\n--- direct ---\n%s--- merged ---\n%s",
					shards, i, direct[i], merged[i])
			}
		}
	}
}

// TestShardsPartitionThePlan pins the slice arithmetic: shards are
// disjoint, contiguous, cover the whole de-duplicated plan, and are
// identical however many processes compute them.
func TestShardsPartitionThePlan(t *testing.T) {
	h := NewHarness(tinyOptions())
	p, _ := h.planAll()
	n := 5
	covered := 0
	seen := map[string]bool{}
	for i := 0; i < n; i++ {
		for _, s := range p.Shard(i, n) {
			key := h.run.Key(s)
			if seen[key] {
				t.Fatalf("spec %s appears in two shards", key)
			}
			seen[key] = true
			covered++
		}
	}
	if covered != p.Size() {
		t.Fatalf("shards cover %d of %d specs", covered, p.Size())
	}
	if p.Shard(0, 1); len(p.Shard(0, 1)) != p.Size() {
		t.Fatal("1-shard slice is not the whole plan")
	}
}

// TestDefaultSweepCellSharesTheReferenceRun: a sensitivity-sweep cell
// at the default value builds the reference machine, so the plan keeps
// one design point for both; a cell at any other value is its own.
func TestDefaultSweepCellSharesTheReferenceRun(t *testing.T) {
	h := NewHarness(tinyOptions())
	p := h.NewPlan()
	ref := p.Add(solo("bc", system.SkyByteFull, h.Opt.SweepInstr, 0))
	def := p.Add(solo("bc", system.SkyByteFull, h.Opt.SweepInstr, 0), sizeMutation(8*mem.MiB))
	if *def != *ref || p.Size() != 1 {
		t.Fatalf("default-size cell planned apart from the reference run (plan size %d)", p.Size())
	}
	other := p.Add(solo("bc", system.SkyByteFull, h.Opt.SweepInstr, 0), sizeMutation(16*mem.MiB))
	if *other == *ref || p.Size() != 2 {
		t.Fatalf("16MB cell shared the reference run (plan size %d)", p.Size())
	}
}

// TestWarmStoreSkipsAllSimulations: re-running a campaign against the
// store it populated performs zero simulations and renders identical
// bytes — the headline warm-run speedup is pure recall.
func TestWarmStoreSkipsAllSimulations(t *testing.T) {
	dir := t.TempDir()
	cold := renderAll(t, NewHarness(shardOptions(dir)))

	h := NewHarness(shardOptions(dir))
	sims := 0
	h.Verbose = func(string, *system.Result) { sims++ }
	warm := renderAll(t, h)
	if sims != 0 {
		t.Fatalf("warm campaign simulated %d times, want 0", sims)
	}
	for i := range cold {
		if warm[i] != cold[i] {
			t.Errorf("table %d differs between cold and warm runs", i)
		}
	}
}

// TestForeignStoreIsInvisible: a store populated under a different
// seed (hence fingerprint) must not serve a single result — the
// campaign re-simulates everything rather than render wrong tables.
func TestForeignStoreIsInvisible(t *testing.T) {
	dir := t.TempDir()
	o := shardOptions(dir)
	o.Workloads = []string{"bc"}
	NewHarness(o).Fig02()

	o2 := o
	o2.Seed = o.Seed + 1
	h := NewHarness(o2)
	sims := 0
	h.Verbose = func(string, *system.Result) { sims++ }
	h.Fig02()
	if sims == 0 {
		t.Fatal("campaign with a different seed recalled foreign store entries")
	}
}

// TestCampaignPlansOnce checks that All() de-duplicates across figures:
// the campaign executes exactly as many simulations as there are unique
// design points, however many figures share them.
func TestCampaignPlansOnce(t *testing.T) {
	o := tinyOptions()
	o.TotalInstr = 48_000
	o.SweepInstr = 24_000
	h := NewHarness(o)
	p := h.NewPlan()
	for _, f := range h.planners() {
		f(p)
	}
	unique := p.Size()
	runs := 0
	var last struct {
		done, total int
	}
	h.Opt.Progress = func(done, total int, key string) {
		runs++
		last.done, last.total = done, total
	}
	h.All()
	if runs != unique {
		t.Fatalf("campaign executed %d runs; %d unique design points planned", runs, unique)
	}
	if last.done != unique || last.total != unique {
		t.Fatalf("final progress %d/%d, want %d/%d", last.done, last.total, unique, unique)
	}
}

func TestHarnessMemoisation(t *testing.T) {
	h := NewHarness(tinyOptions())
	runs := 0
	h.Verbose = func(string, *system.Result) { runs++ }
	h.Fig14()
	afterFig14 := runs
	h.Fig16() // shares every design point with Fig14
	if runs != afterFig14 {
		t.Fatalf("Fig16 re-ran %d simulations; memoisation broken", runs-afterFig14)
	}
}

// TestFigExtRendersButStaysOutOfTheCampaign pins the optional-entry
// contract: figext renders on demand with one row per extension
// scenario (plus the geomean), its id is listed, and the default
// campaign excludes it so the paper's table set stays the paper's.
func TestFigExtRendersButStaysOutOfTheCampaign(t *testing.T) {
	o := tinyOptions()
	h := NewHarness(o)
	tab, err := h.Render(context.Background(), "figext")
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != len(workloads.Extras())+1 {
		t.Fatalf("figext has %d rows, want %d scenarios + geomean", len(tab.Rows), len(workloads.Extras()))
	}
	found := false
	for _, id := range IDs() {
		if id == "figext" {
			found = true
		}
	}
	if !found {
		t.Fatal("figext missing from IDs()")
	}
	tables, err := NewHarness(o).AllErr(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, tb := range tables {
		if tb.ID == "figext" {
			t.Fatal("optional figext leaked into the default campaign")
		}
	}
}

// TestFigMixRendersAndStaysOptional pins the multi-tenant fairness
// table: one row per (mix, variant, tenant), a slowdown in every
// tenant row, max/min and Jain on each group's first row — and, like
// figext, exclusion from the default campaign.
func TestFigMixRendersAndStaysOptional(t *testing.T) {
	o := tinyOptions()
	h := NewHarness(o)
	tab, err := h.Render(context.Background(), "figmix")
	if err != nil {
		t.Fatal(err)
	}
	wantRows := 0
	for _, name := range h.Opt.Mixes {
		m, err := tenant.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		wantRows += len(m.Tenants) * len(figmixVariants)
	}
	if len(tab.Rows) != wantRows {
		t.Fatalf("figmix has %d rows, want %d", len(tab.Rows), wantRows)
	}
	for i, row := range tab.Rows {
		if s := parse(t, row[7]); s <= 0 {
			t.Errorf("row %d: slowdown %q not positive", i, row[7])
		}
	}
	// Jain index lives on each group's first row and is a fraction.
	if j := parse(t, tab.Rows[0][9]); j <= 0 || j > 1 {
		t.Errorf("Jain index %v outside (0,1]", j)
	}
	tables, err := NewHarness(o).AllErr(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, tb := range tables {
		if tb.ID == "figmix" {
			t.Fatal("optional figmix leaked into the default campaign")
		}
	}
}

// TestFigMixParallelDeterminism is the mixed-run acceptance contract:
// the fairness table — per-tenant completion times, slowdowns, and
// fairness indices included — renders byte-identically at any
// parallelism.
func TestFigMixParallelDeterminism(t *testing.T) {
	render := func(parallelism int) string {
		o := tinyOptions()
		o.SweepInstr = 24_000
		o.Parallelism = parallelism
		tab, err := NewHarness(o).Render(context.Background(), "figmix")
		if err != nil {
			t.Fatal(err)
		}
		return tab.String()
	}
	seq := render(1)
	par := render(8)
	if seq != par {
		t.Errorf("figmix differs between Parallelism 1 and 8:\n--- sequential ---\n%s--- parallel ---\n%s", seq, par)
	}
}

// TestFigExtShapes pins the extension scenarios' stories the way the
// Fig. 14/18 tests pin the paper's: graph500's pointer chase is the
// coordinated context switch's win (SkyByte-C beats Base-CSSD), and
// log-append's dense sequential appends are the write log's
// adversarial case (SkyByte-W provides no win over Base-CSSD's
// page-granular cache there).
func TestFigExtShapes(t *testing.T) {
	h := NewHarness(tinyOptions())
	tab := h.FigExt()
	cCol, wCol := -1, -1
	for i, hd := range tab.Header {
		switch hd {
		case string(system.SkyByteC):
			cCol = i
		case string(system.SkyByteW):
			wCol = i
		}
	}
	if cCol < 0 || wCol < 0 {
		t.Fatal("variant columns missing from figext")
	}
	found := map[string]bool{}
	for _, row := range tab.Rows {
		switch row[0] {
		case "graph500":
			found["graph500"] = true
			if norm := parse(t, row[cCol]); norm >= 1.0 {
				t.Errorf("graph500: SkyByte-C normalized time %.3f; the context switch should win (<1.0)", norm)
			}
		case "log-append":
			found["log-append"] = true
			if norm := parse(t, row[wCol]); norm < 0.98 {
				t.Errorf("log-append: SkyByte-W normalized time %.3f; dense appends should deny the log a win (>=0.98)", norm)
			}
		}
	}
	if !found["graph500"] || !found["log-append"] {
		t.Fatalf("figext rows missing scenarios: %v", found)
	}
}

// TestRunMixRejectsUnregisteredOrEditedMixes: a plan declares a mix
// run by name and the runner resolves the name when the batch
// executes, so no planned value can disagree with its registered
// definition. A name nothing registered fails Execute with the valid
// set and simulates nothing, and an edited copy of a built-in mix
// cannot be registered over it.
func TestRunMixRejectsUnregisteredOrEditedMixes(t *testing.T) {
	h := NewHarness(tinyOptions())
	sims := 0
	h.Verbose = func(string, *system.Result) { sims++ }
	p := h.NewPlan()
	p.Add(runner.Spec{Mix: "never-registered", Variant: system.BaseCSSD, TotalInstr: 1000})
	if err := p.Execute(context.Background()); err == nil || !strings.Contains(err.Error(), "valid:") {
		t.Errorf("unregistered: Execute error %v, want an unknown-name error listing the valid set", err)
	}
	if sims != 0 {
		t.Fatalf("an unregistered mix simulated %d runs", sims)
	}

	reg, err := tenant.ByName("graph-vs-log")
	if err != nil {
		t.Fatal(err)
	}
	edited := reg
	edited.Tenants = append([]tenant.TenantDef(nil), reg.Tenants...)
	edited.Tenants[0].Intensity = 2 // same name, different semantics
	if err := tenant.Register(edited); err == nil || !strings.Contains(err.Error(), "built-in") {
		t.Errorf("edited copy of a registered mix: Register error %v, want a built-in rejection", err)
	}

	// The registered definition itself plans and executes.
	p = h.NewPlan()
	pe := p.Add(mixSpec(reg, system.BaseCSSD, 16_000))
	if err := p.Execute(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(pe.Result().Tenants) != len(reg.Tenants) {
		t.Fatalf("mix run carries %d tenant results, want %d", len(pe.Result().Tenants), len(reg.Tenants))
	}
}

// TestSurgicalStoreInvalidation pins the §2.1 contract after the
// WorkloadDigest → source-folded-spec-key change: registering an
// *unrelated* workload must not cool a single cached entry — the warm
// campaign still performs zero simulations — because invalidation now
// lives in each spec's own key, not in a whole-registry digest.
func TestSurgicalStoreInvalidation(t *testing.T) {
	dir := t.TempDir()
	o := shardOptions(dir)
	o.Workloads = []string{"bc"}

	sims := 0
	h := NewHarness(o)
	h.Verbose = func(string, *system.Result) { sims++ }
	h.Fig02()
	if sims == 0 {
		t.Fatal("cold campaign simulated nothing")
	}

	// An unrelated registration: a brand-new declarative workload no
	// planned spec resolves.
	unrelated := workloads.Def{
		Format:         workloads.DefFormatVersion,
		Name:           "surgical-unrelated",
		FootprintPages: 1024,
		Regions:        []workloads.RegionDef{{Name: "r", Start: 0, Size: 1}},
		Phases: []workloads.PhaseDef{{Ops: []workloads.OpDef{
			{Op: "load", Region: "r"},
			{Op: "compute", Min: 4},
		}}},
	}
	if err := workloads.Register(unrelated.MustSpec()); err != nil {
		t.Fatal(err)
	}

	sims = 0
	h2 := NewHarness(shardOptionsScoped(dir, "bc"))
	h2.Verbose = func(string, *system.Result) { sims++ }
	h2.Fig02()
	if sims != 0 {
		t.Fatalf("registering an unrelated workload cooled the store: %d re-simulations", sims)
	}
}

func shardOptionsScoped(dir, workload string) Options {
	o := shardOptions(dir)
	o.Workloads = []string{workload}
	return o
}

// TestMixEditRecoldsOnlyMixEntries pins the mix half of surgical
// invalidation: re-registering an edited mix re-simulates exactly the
// co-located design points — the tenants' solo baselines, whose
// workloads did not change, recall warm from the store.
func TestMixEditRecoldsOnlyMixEntries(t *testing.T) {
	mixOf := func(intensity float64) tenant.Mix {
		return tenant.Mix{
			Format: tenant.MixFormatVersion,
			Name:   "edit-mix",
			Tenants: []tenant.TenantDef{
				{Workload: "bc", Threads: 2},
				{Workload: "srad", Threads: 2, Intensity: intensity},
			},
		}
	}
	if err := tenant.Register(mixOf(1)); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	opts := func() Options {
		o := shardOptions(dir)
		o.Mixes = []string{"edit-mix"}
		return o
	}

	sims := 0
	h := NewHarness(opts())
	h.Verbose = func(string, *system.Result) { sims++ }
	if _, err := h.Render(context.Background(), "figmix"); err != nil {
		t.Fatal(err)
	}
	mixedRuns := len(figmixVariants)    // one co-located run per variant
	soloRuns := 2 * len(figmixVariants) // two tenants' baselines per variant
	if sims != mixedRuns+soloRuns {
		t.Fatalf("cold figmix simulated %d runs, want %d", sims, mixedRuns+soloRuns)
	}

	// The editing loop: same name, changed intensity.
	if err := tenant.Register(mixOf(0.5)); err != nil {
		t.Fatal(err)
	}
	sims = 0
	h2 := NewHarness(opts())
	h2.Verbose = func(string, *system.Result) { sims++ }
	if _, err := h2.Render(context.Background(), "figmix"); err != nil {
		t.Fatal(err)
	}
	// The changed intensity alters tenant 1's budget, so its solo
	// baselines are genuinely different design points (new budget in
	// the key) — they re-simulate along with the mixed runs. Tenant 0's
	// baselines are untouched and must recall warm.
	if want := mixedRuns + len(figmixVariants); sims != want {
		t.Fatalf("edited mix re-simulated %d runs, want %d (mixed runs + the re-budgeted tenant's solos)", sims, want)
	}
}

// TestTenantRowsExtendFigures pins the per-tenant extension of
// Figs. 14, 16, and 17: with Options.TenantRows set, every
// (mix, tenant) pair contributes a "mix/tenant" row carrying the
// figure's own metric — normalized completion with the Base-CSSD
// column at exactly 1.000 (fig14), a request breakdown that still
// sums to 100% (fig16), and one AMAT row per design (fig17) — and
// with it unset (the default) the tables carry no tenant rows at all,
// so the paper's table set stays byte-identical.
func TestTenantRowsExtendFigures(t *testing.T) {
	o := tinyOptions()
	o.SweepInstr = 24_000
	o.Mixes = []string{"graph-vs-log"}
	o.TenantRows = true
	h := NewHarness(o)

	m, err := tenant.ByName("graph-vs-log")
	if err != nil {
		t.Fatal(err)
	}
	nTen := len(m.Tenants)
	nSolo := len(o.Workloads)
	const prefix = "graph-vs-log/"

	fig14 := h.Fig14()
	if want := nSolo + 1 + nTen; len(fig14.Rows) != want { // solo rows, geo.mean, tenant rows
		t.Fatalf("fig14 has %d rows, want %d", len(fig14.Rows), want)
	}
	baseCol := -1
	for i, hd := range fig14.Header {
		if hd == string(system.BaseCSSD) {
			baseCol = i
		}
	}
	for _, row := range fig14.Rows[nSolo+1:] {
		if !strings.HasPrefix(row[0], prefix) {
			t.Errorf("fig14 tenant row named %q, want %s*", row[0], prefix)
		}
		if row[baseCol] != "1.000" {
			t.Errorf("fig14 %s: Base-CSSD column %q; each tenant normalizes to its own base run", row[0], row[baseCol])
		}
	}

	fig16 := h.Fig16()
	if want := nSolo + nTen; len(fig16.Rows) != want {
		t.Fatalf("fig16 has %d rows, want %d", len(fig16.Rows), want)
	}
	for _, row := range fig16.Rows[nSolo:] {
		if !strings.HasPrefix(row[0], prefix) {
			t.Errorf("fig16 tenant row named %q, want %s*", row[0], prefix)
		}
		sum := 0.0
		for _, c := range row[1:] {
			sum += parse(t, c)
		}
		if sum < 99 || sum > 101 {
			t.Errorf("fig16 %s: tenant breakdown sums to %.1f%%", row[0], sum)
		}
	}

	fig17 := h.Fig17()
	soloRows := nSolo * len(fig17Variants)
	if want := soloRows + nTen*len(fig17Variants); len(fig17.Rows) != want {
		t.Fatalf("fig17 has %d rows, want %d", len(fig17.Rows), want)
	}
	for _, row := range fig17.Rows[soloRows:] {
		if !strings.HasPrefix(row[0], prefix) {
			t.Errorf("fig17 tenant row named %q, want %s*", row[0], prefix)
		}
		if amat := parse(t, row[2]); amat <= 0 {
			t.Errorf("fig17 %s/%s: AMAT %q not positive", row[0], row[1], row[2])
		}
	}

	// Unset (the default): exactly the paper's rows, no tenant rows.
	o.TenantRows = false
	plain := NewHarness(o)
	if tab := plain.Fig16(); len(tab.Rows) != nSolo {
		t.Fatalf("fig16 without TenantRows has %d rows, want %d", len(tab.Rows), nSolo)
	}
}
