package runner

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"skybyte/internal/arrival"
	"skybyte/internal/sim"
	"skybyte/internal/system"
	"skybyte/internal/tenant"
	"skybyte/internal/trace"
	"skybyte/internal/workloads"
)

func testRunner(parallelism int) *Runner {
	return New(system.ScaledConfig(), 7, parallelism)
}

func spec(workload string, v system.Variant) Spec {
	return Spec{Workload: workload, Variant: v, TotalInstr: 24_000, Threads: 8}
}

func TestKeyStable(t *testing.T) {
	r := testRunner(1)
	s := spec("bc", system.BaseCSSD)
	wantPrefix := "bc|Base-CSSD|24000|8|src="
	if !strings.HasPrefix(s.Key(), wantPrefix) {
		t.Fatalf("Key() = %q, want prefix %q", s.Key(), wantPrefix)
	}
	if !strings.HasPrefix(r.Key(s), s.Key()+"|cfg=") {
		t.Fatalf("runner key %q does not extend spec key %q with the machine", r.Key(s), s.Key())
	}
	if r.Key(s) != r.Key(spec("bc", system.BaseCSSD)) {
		t.Fatal("identical specs must yield identical keys")
	}
	// A mutation is identified by the machine it builds: two different
	// mutations key apart, and one that writes the default value keys
	// as no mutation at all.
	withThreshold := func(us sim.Time) Spec {
		m := spec("bc", system.BaseCSSD)
		m.Mutate = func(c *system.Config) { c.HintThreshold = us * sim.Microsecond }
		return m
	}
	if r.Key(withThreshold(10)) == r.Key(withThreshold(20)) {
		t.Fatal("distinct mutations must yield distinct keys")
	}
	if def := system.ScaledConfig().HintThreshold / sim.Microsecond; r.Key(withThreshold(def)) != r.Key(s) {
		t.Fatal("a mutation writing the default value must key as no mutation")
	}
	if strings.HasSuffix(spec("bc", system.BaseCSSD).Key(), "unresolved") {
		t.Fatal("built-in workload keyed as unresolved")
	}
	if !strings.HasSuffix(spec("no-such", system.BaseCSSD).Key(), "src=unresolved") {
		t.Fatal("unknown workload should key as unresolved")
	}
}

// TestKeyFoldsWorkloadSource pins the surgical-invalidation scheme:
// the spec key folds the resolved workload's source identity, so a
// replaced definition re-keys exactly its own specs — and registering
// an unrelated workload changes no existing key at all.
func TestKeyFoldsWorkloadSource(t *testing.T) {
	defOf := func(theta float64) workloads.Def {
		return workloads.Def{
			Format:         workloads.DefFormatVersion,
			Name:           "keyfold-w",
			FootprintPages: 2048,
			Regions:        []workloads.RegionDef{{Name: "r", Start: 0, Size: 1}},
			Phases: []workloads.PhaseDef{{Ops: []workloads.OpDef{
				{Op: "load", Region: "r", Kernel: workloads.KernelZipf, Theta: theta},
				{Op: "compute", Min: 4},
			}}},
		}
	}
	if err := workloads.Register(defOf(0.8).MustSpec()); err != nil {
		t.Fatal(err)
	}
	bcBefore := spec("bc", system.BaseCSSD).Key()
	regBefore := spec("keyfold-w", system.BaseCSSD).Key()

	// Edit the registered definition (the file-editing loop): its own
	// key must change, every other key must not.
	if err := workloads.Register(defOf(0.7).MustSpec()); err != nil {
		t.Fatal(err)
	}
	if got := spec("keyfold-w", system.BaseCSSD).Key(); got == regBefore {
		t.Fatal("edited definition kept its old spec key (stale store entries would serve)")
	}
	if got := spec("bc", system.BaseCSSD).Key(); got != bcBefore {
		t.Fatalf("editing one workload re-keyed an unrelated spec: %q vs %q", got, bcBefore)
	}

	// A mix referencing the edited workload re-keys too.
	m := tenant.Mix{
		Format: tenant.MixFormatVersion,
		Name:   "keyfold-mix",
		Tenants: []tenant.TenantDef{
			{Workload: "keyfold-w", Threads: 2},
			{Workload: "bc", Threads: 2},
		},
	}
	if err := tenant.Register(m); err != nil {
		t.Fatal(err)
	}
	mixSpec := Spec{Mix: "keyfold-mix", Variant: system.BaseCSSD, TotalInstr: 24_000, Threads: 4}
	mixBefore := mixSpec.Key()
	if !strings.HasPrefix(mixBefore, "mix:keyfold-mix|Base-CSSD|24000|4|src=") {
		t.Fatalf("mix key format unexpected: %q", mixBefore)
	}
	if err := workloads.Register(defOf(0.9).MustSpec()); err != nil {
		t.Fatal(err)
	}
	if mixSpec.Key() == mixBefore {
		t.Fatal("editing a member workload did not re-key the mix spec")
	}
}

func TestThreadsFor(t *testing.T) {
	cfg := system.ScaledConfig()
	if n := ThreadsFor(cfg.WithVariant(system.BaseCSSD)); n != cfg.Cores {
		t.Errorf("BaseCSSD threads = %d, want %d", n, cfg.Cores)
	}
	if n := ThreadsFor(cfg.WithVariant(system.SkyByteFull)); n != 3*cfg.Cores {
		t.Errorf("SkyByteFull threads = %d, want %d", n, 3*cfg.Cores)
	}
	if n := ThreadsFor(cfg.WithVariant(system.AstriFlashCXL)); n != 3*cfg.Cores {
		t.Errorf("AstriFlashCXL threads = %d, want %d", n, 3*cfg.Cores)
	}
}

func TestRunMemoizes(t *testing.T) {
	r := testRunner(2)
	execs := 0
	r.OnEvent = func(Event) { execs++ }
	a, err := r.Run(context.Background(), spec("bc", system.BaseCSSD))
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Run(context.Background(), spec("bc", system.BaseCSSD))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("second Run of the same spec returned a different result")
	}
	if execs != 1 {
		t.Fatalf("executed %d times, want 1", execs)
	}
	if a.CacheKey != r.Key(spec("bc", system.BaseCSSD)) {
		t.Fatalf("CacheKey = %q", a.CacheKey)
	}
}

func TestRunAllDedupAndOrdering(t *testing.T) {
	r := testRunner(4)
	var mu sync.Mutex
	execs, cached, lastDone := 0, 0, 0
	r.OnEvent = func(ev Event) {
		mu.Lock()
		if ev.Cached {
			cached++
		} else {
			execs++
		}
		if ev.Done > lastDone {
			lastDone = ev.Done
		}
		if ev.Total != 4 {
			t.Errorf("Event.Total = %d, want 4", ev.Total)
		}
		mu.Unlock()
	}
	specs := []Spec{
		spec("bc", system.BaseCSSD),
		spec("srad", system.BaseCSSD),
		spec("bc", system.BaseCSSD), // duplicate of [0]
		spec("bc", system.DRAMOnly),
	}
	res, err := r.RunAll(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 {
		t.Fatalf("got %d results", len(res))
	}
	for i, s := range specs {
		if res[i] == nil || res[i].CacheKey != r.Key(s) {
			t.Fatalf("results[%d] does not match specs[%d]", i, i)
		}
	}
	if res[0] != res[2] {
		t.Fatal("duplicate specs did not share one execution")
	}
	if execs != 3 {
		t.Fatalf("executed %d simulations, want 3 (singleflight)", execs)
	}
	if cached != 1 {
		t.Fatalf("cached recalls = %d, want 1 (the duplicate spec)", cached)
	}
	if lastDone != 4 {
		t.Fatalf("final Event.Done = %d, want 4 (hits count toward progress)", lastDone)
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	specs := []Spec{
		spec("bc", system.BaseCSSD),
		spec("bc", system.SkyByteFull),
		spec("srad", system.BaseCSSD),
		spec("srad", system.SkyByteFull),
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
		if seq[i].ExecTime != par[i].ExecTime || seq[i].Instructions != par[i].Instructions ||
			seq[i].LLCMisses != par[i].LLCMisses || seq[i].CtxSwitches != par[i].CtxSwitches {
			t.Errorf("spec %d (%s): parallel run diverged from sequential", i, specs[i].Key())
		}
	}
}

func TestUnknownWorkloadErrorsWithoutPoisoning(t *testing.T) {
	r := testRunner(1)
	if _, err := r.Run(context.Background(), spec("nope", system.BaseCSSD)); err == nil {
		t.Fatal("unknown workload accepted")
	}
	// The failed key must not be cached: a good spec sharing the runner
	// still works, and retrying the bad one re-reports the error.
	if _, err := r.Run(context.Background(), spec("bc", system.BaseCSSD)); err != nil {
		t.Fatalf("good spec failed after bad one: %v", err)
	}
	if _, err := r.Run(context.Background(), spec("nope", system.BaseCSSD)); err == nil {
		t.Fatal("error was cached instead of re-evaluated")
	}
}

func TestCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := testRunner(1)
	if _, err := r.Run(ctx, spec("bc", system.BaseCSSD)); err == nil {
		t.Fatal("cancelled context did not stop the run")
	}
	// A fresh context retries cleanly.
	if _, err := r.Run(context.Background(), spec("bc", system.BaseCSSD)); err != nil {
		t.Fatalf("retry after cancellation failed: %v", err)
	}
}

// countingStore is a map-backed Store with hit/miss/put accounting so
// tests can see exactly how the runner drives its second-level store.
type countingStore struct {
	mu               sync.Mutex
	m                map[string]*system.Result
	gets, hits, puts int
}

func (s *countingStore) Get(key string) (*system.Result, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	res, ok := s.m[key]
	s.gets++
	if ok {
		s.hits++
	}
	return res, ok
}

func (s *countingStore) Put(key string, res *system.Result) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.m == nil {
		s.m = make(map[string]*system.Result)
	}
	s.puts++
	s.m[key] = res
}

// TestStoreWarmRunSkipsSimulation is the tentpole contract: a second
// runner sharing the first's store performs zero simulations, every
// result arriving as a Stored event, and returns identical
// measurements.
func TestStoreWarmRunSkipsSimulation(t *testing.T) {
	shared := &countingStore{}
	specs := []Spec{
		spec("bc", system.BaseCSSD),
		spec("srad", system.SkyByteFull),
	}

	cold := testRunner(2)
	cold.Store = shared
	coldRes, err := cold.RunAll(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	if shared.puts != len(specs) {
		t.Fatalf("cold run inserted %d results, want %d", shared.puts, len(specs))
	}

	warm := testRunner(2)
	warm.Store = shared
	var mu sync.Mutex
	sims, stored := 0, 0
	warm.OnEvent = func(ev Event) {
		mu.Lock()
		defer mu.Unlock()
		if ev.Stored {
			stored++
		} else if !ev.Cached {
			sims++
		}
	}
	warmRes, err := warm.RunAll(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	if sims != 0 {
		t.Fatalf("warm run simulated %d times, want 0", sims)
	}
	if stored != len(specs) {
		t.Fatalf("warm run emitted %d Stored events, want %d", stored, len(specs))
	}
	for i := range specs {
		if coldRes[i].ExecTime != warmRes[i].ExecTime || coldRes[i].Instructions != warmRes[i].Instructions {
			t.Errorf("spec %d: warm result diverges from cold", i)
		}
	}

	// Within the warm runner, a repeat Run must come from the memo, not
	// another store read.
	before := shared.gets
	if _, err := warm.Run(context.Background(), specs[0]); err != nil {
		t.Fatal(err)
	}
	if shared.gets != before {
		t.Error("memoised recall consulted the second-level store")
	}
}

// TestCacheOnlyMissErrors pins the render-from-cache contract: a miss
// is an error naming the key, never a silent simulation, and the error
// does not poison the key for a later non-cache-only runner sharing
// the store.
func TestCacheOnlyMissErrors(t *testing.T) {
	shared := &countingStore{}
	r := testRunner(1)
	r.Store = shared
	r.CacheOnly = true
	s := spec("bc", system.BaseCSSD)
	if _, err := r.Run(context.Background(), s); err == nil {
		t.Fatal("cache-only miss did not error")
	}
	// Executing normally afterwards works and feeds the store...
	r.CacheOnly = false
	if _, err := r.Run(context.Background(), s); err != nil {
		t.Fatalf("retry after cache-only miss failed: %v", err)
	}
	// ...and cache-only now succeeds from the store on a fresh runner.
	r2 := testRunner(1)
	r2.Store = shared
	r2.CacheOnly = true
	if _, err := r2.Run(context.Background(), s); err != nil {
		t.Fatalf("cache-only read of a populated store failed: %v", err)
	}
}

func TestRunAllConcurrentCallers(t *testing.T) {
	// Two goroutines race identical batches through one runner: the
	// singleflight layer must hand both the same memoized results.
	r := testRunner(4)
	specs := []Spec{
		spec("bc", system.BaseCSSD),
		spec("srad", system.SkyByteFull),
	}
	var wg sync.WaitGroup
	out := make([][]*system.Result, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := r.RunAll(context.Background(), specs)
			if err != nil {
				t.Error(err)
			}
			out[i] = res
		}(i)
	}
	wg.Wait()
	for i := range specs {
		if out[0][i] != out[1][i] {
			t.Fatalf("caller results diverge at %d", i)
		}
	}
}

// TestMixSpecExecutes pins the runner's multi-tenant path: a mix spec
// resolves its tenant groups, runs them co-located, and returns a
// Result whose Tenants slice matches the mix in order and thread
// counts — with memoization working exactly as for workload specs.
func TestMixSpecExecutes(t *testing.T) {
	r := testRunner(2)
	s := Spec{Mix: "graph-vs-log", Variant: system.BaseCSSD, TotalInstr: 16_000}
	res, err := r.Run(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	m, err := tenant.ByName("graph-vs-log")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tenants) != len(m.Tenants) {
		t.Fatalf("got %d tenant results, want %d", len(res.Tenants), len(m.Tenants))
	}
	for i, tr := range res.Tenants {
		if tr.Workload != m.Tenants[i].Workload || tr.Threads != m.Tenants[i].Threads {
			t.Fatalf("tenant %d = %q/%d threads, want %q/%d", i, tr.Workload, tr.Threads, m.Tenants[i].Workload, m.Tenants[i].Threads)
		}
		if tr.Instructions == 0 || tr.ExecTime == 0 {
			t.Fatalf("tenant %d made no progress: %+v", i, tr)
		}
	}
	again, err := r.Run(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if again != res {
		t.Fatal("mix spec not memoized")
	}
	// Threads, when set, must agree with the mix declaration.
	bad := s
	bad.Threads = m.TotalThreads() + 1
	if _, err := r.Run(context.Background(), bad); err == nil {
		t.Fatal("mismatched Threads accepted for a mix spec")
	}
	if _, err := r.Run(context.Background(), Spec{Mix: "no-such-mix", Variant: system.BaseCSSD, TotalInstr: 1000}); err == nil {
		t.Fatal("unknown mix accepted")
	}
}

// TestMixParallelByteIdentity pins per-tenant determinism across
// worker-pool sizes: the same mixed design points executed at
// parallelism 1 and 8 must produce byte-identical encoded Results —
// per-tenant slices included.
func TestMixParallelByteIdentity(t *testing.T) {
	specs := []Spec{
		{Mix: "graph-vs-log", Variant: system.BaseCSSD, TotalInstr: 16_000},
		{Mix: "graph-vs-log", Variant: system.SkyByteFull, TotalInstr: 16_000},
		{Mix: "scan-vs-point", Variant: system.SkyByteFull, TotalInstr: 16_000},
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
			t.Errorf("spec %d (%s): parallel mixed run diverged from sequential", i, specs[i].Key())
		}
		if len(seq[i].Tenants) == 0 {
			t.Errorf("spec %d: no per-tenant results", i)
		}
	}
}

// TestInvalidArrivalScalesAreRejected: an arrival scale that is NaN,
// infinite or negative is an execution error naming the accepted
// range, raised before any System is built; 0 keys as the scale 1 it
// means.
func TestInvalidArrivalScalesAreRejected(t *testing.T) {
	r := testRunner(1)
	execs := 0
	r.OnEvent = func(Event) { execs++ }
	for _, scale := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1} {
		s := Spec{Arrival: "open-burst", ArrivalScale: scale, Variant: system.BaseCSSD, TotalInstr: 16_000}
		_, err := r.Run(context.Background(), s)
		if err == nil || !strings.Contains(err.Error(), "want a finite scale >= 0") {
			t.Errorf("scale %v: err = %v, want a rejection naming the accepted range", scale, err)
		}
	}
	if execs != 0 {
		t.Fatalf("invalid scales executed %d simulations", execs)
	}
	zero := Spec{Arrival: "open-burst", Variant: system.BaseCSSD, TotalInstr: 16_000}
	one := zero
	one.ArrivalScale = 1
	if zero.Key() != one.Key() {
		t.Fatalf("scale 0 keyed %q, scale 1 keyed %q; 0 means 1", zero.Key(), one.Key())
	}
}

// TestMixAndArrivalAreExclusive: a spec naming both a mix and an
// arrival spec is an error, not a silent arrival run.
func TestMixAndArrivalAreExclusive(t *testing.T) {
	s := Spec{Mix: "graph-vs-log", Arrival: "open-steady", Variant: system.BaseCSSD, TotalInstr: 16_000}
	_, err := testRunner(1).Run(context.Background(), s)
	if err == nil || !strings.Contains(err.Error(), "mutually exclusive") {
		t.Fatalf("err = %v, want mix and arrival rejected as mutually exclusive", err)
	}
}

func TestParseShard(t *testing.T) {
	i, n, err := ParseShard("1/4")
	if err != nil || i != 1 || n != 4 {
		t.Fatalf("ParseShard(1/4) = %d, %d, %v", i, n, err)
	}
	for _, bad := range []string{"", "1", "1/2/4", "2/2", "-1/2", "a/b", "0/0", "1/2x", "x1/2"} {
		if _, _, err := ParseShard(bad); err == nil {
			t.Errorf("ParseShard accepted %q", bad)
		}
	}
}

// TestInvalidMachineRejectedBeforeSimulating: a design point whose SSD
// DRAM leaves its data cache less than one set errors, naming both
// sizes, and nothing simulates.
func TestInvalidMachineRejectedBeforeSimulating(t *testing.T) {
	r := testRunner(1)
	execs := 0
	r.OnEvent = func(Event) { execs++ }
	s := spec("srad", system.SkyByteW)
	s.Mutate = func(c *system.Config) { c.WriteLogBytes = 8 << 20 }
	_, err := r.Run(context.Background(), s)
	if err == nil || !strings.Contains(err.Error(), "8.00MB of SSD DRAM beside a 8.00MB write log") {
		t.Fatalf("err = %v, want the log-fills-DRAM machine rejected naming both sizes", err)
	}
	if !strings.HasSuffix(r.Key(s), "|cfg=invalid") {
		t.Fatalf("invalid machine keyed %q", r.Key(s))
	}
	if execs != 0 {
		t.Fatalf("an invalid machine executed %d simulations", execs)
	}
}

// TestBudgetWithoutInstructionsRejected: a spec whose budget gives some
// thread no instructions — a negative thread count, a zero budget, or
// a budget too small to split across a mix or arrival spec's threads —
// errors before anything simulates, and nothing reaches the store.
func TestBudgetWithoutInstructionsRejected(t *testing.T) {
	r := testRunner(1)
	st := &countingStore{}
	r.Store = st
	execs := 0
	r.OnEvent = func(Event) { execs++ }
	negative := spec("bc", system.BaseCSSD)
	negative.Threads = -1
	zero := spec("bc", system.BaseCSSD)
	zero.TotalInstr = 0
	for _, s := range []Spec{
		negative,
		zero,
		{Mix: "graph-vs-log", Variant: system.BaseCSSD, TotalInstr: 1},
		{Arrival: "open-burst", Variant: system.BaseCSSD, TotalInstr: 1},
	} {
		res, err := r.Run(context.Background(), s)
		if err == nil || res != nil {
			t.Errorf("%s: ran (err %v), want a budget rejection", s.Key(), err)
		}
	}
	if execs != 0 || st.gets != 0 || st.puts != 0 {
		t.Fatalf("rejected specs executed %d simulations, %d store gets, %d puts", execs, st.gets, st.puts)
	}
}

// TestDeclaredThreadsShareAKey: a mix or an arrival spec keys as its
// declared thread count whether Threads is left 0 or written out — one
// machine, one key, one simulation — and a Threads that disagrees with
// the declaration is an error naming both counts.
func TestDeclaredThreadsShareAKey(t *testing.T) {
	r := testRunner(1)
	m, err := tenant.ByName("graph-vs-log")
	if err != nil {
		t.Fatal(err)
	}
	a, err := arrival.ByName("open-steady")
	if err != nil {
		t.Fatal(err)
	}
	arrThreads, err := a.TotalThreads()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		spec     Spec
		declared int
	}{
		{Spec{Mix: m.Name, Variant: system.BaseCSSD, TotalInstr: 16_000}, m.TotalThreads()},
		{Spec{Arrival: a.Name, Variant: system.BaseCSSD, TotalInstr: 16_000}, arrThreads},
	} {
		written := c.spec
		written.Threads = c.declared
		key := r.Key(c.spec)
		if key != r.Key(written) {
			t.Errorf("Threads 0 keyed %q, Threads %d keyed %q; want one key", key, c.declared, r.Key(written))
		}
		if want := fmt.Sprintf("|16000|%d|src=", c.declared); !strings.Contains(key, want) {
			t.Errorf("key %q does not carry the declared count (%s)", key, want)
		}
		bad := c.spec
		bad.Threads = c.declared + 1
		want := fmt.Sprintf("declares %d threads; spec asks for %d", c.declared, c.declared+1)
		if err := r.Check(bad); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: Check = %v, want an error containing %q", key, err, want)
		}
	}
}

// recordedWorkload registers a recorded trace of bc and returns its
// workload name: a workload that replays fixed addresses, so it runs
// only on the 1/64 machine.
func recordedWorkload(t *testing.T, name string) string {
	t.Helper()
	w, err := workloads.ByName("bc")
	if err != nil {
		t.Fatal(err)
	}
	tr := &trace.Trace{Meta: trace.Meta{Workload: name, Seed: 1, FootprintPages: w.FootprintPages, WriteRatio: w.WriteRatio}}
	tr.Threads = append(tr.Threads, trace.RecordStream(w.Stream(0, 1), 200))
	data, err := trace.EncodeTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := trace.NewReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	ts, err := workloads.SpecFromTrace(rd)
	if err != nil {
		t.Fatal(err)
	}
	if err := workloads.Register(ts); err != nil {
		t.Fatal(err)
	}
	return ts.Name
}

// TestCheckReportsWhatRunWould: every error Run reports for a spec —
// an unknown workload, mix or arrival name, an unknown cohort member,
// a workload or cohort member the machine cannot size, a combined
// footprint beyond the device — Check reports too, and a cache-only
// runner reports it instead of a store miss, without reading the
// store.
func TestCheckReportsWhatRunWould(t *testing.T) {
	recorded := recordedWorkload(t, "check-recorded")
	if err := tenant.Register(tenant.Mix{Format: tenant.MixFormatVersion, Name: "check-recorded-mix",
		Tenants: []tenant.TenantDef{{Workload: recorded, Threads: 1}, {Workload: "bc", Threads: 1}}}); err != nil {
		t.Fatal(err)
	}
	if err := arrival.Register(arrival.Spec{Format: arrival.SpecFormatVersion, Name: "check-member",
		Cohorts: []arrival.Cohort{{Workload: "no-such-member", Threads: 2,
			Process: arrival.Process{Dist: arrival.DistPoisson, Rate: 100}}}}); err != nil {
		t.Fatal(err)
	}
	if err := arrival.Register(arrival.Spec{Format: arrival.SpecFormatVersion, Name: "check-recorded-arrival",
		Cohorts: []arrival.Cohort{{Workload: recorded, Threads: 2,
			Process: arrival.Process{Dist: arrival.DistPoisson, Rate: 100}}}}); err != nil {
		t.Fatal(err)
	}
	// Eight tpcc tenants: each fits the 1/64 device alone, together they
	// exceed its logical pages.
	crowd := tenant.Mix{Format: tenant.MixFormatVersion, Name: "check-crowded-mix"}
	for i := 0; i < 8; i++ {
		crowd.Tenants = append(crowd.Tenants, tenant.TenantDef{Name: fmt.Sprintf("t%d", i), Workload: "tpcc", Threads: 1})
	}
	if err := tenant.Register(crowd); err != nil {
		t.Fatal(err)
	}
	quarter := New(system.ConfigAt(16), 7, 1)
	for _, c := range []struct {
		r    *Runner
		spec Spec
		want string
	}{
		{testRunner(1), Spec{Workload: "no-such-workload", Variant: system.BaseCSSD, TotalInstr: 16_000}, "no-such-workload"},
		{testRunner(1), Spec{Mix: "no-such-mix", Variant: system.BaseCSSD, TotalInstr: 16_000}, "no-such-mix"},
		{testRunner(1), Spec{Arrival: "no-such-arrival", Variant: system.BaseCSSD, TotalInstr: 16_000}, "no-such-arrival"},
		{testRunner(1), Spec{Arrival: "check-member", Variant: system.BaseCSSD, TotalInstr: 16_000}, "no-such-member"},
		{quarter, Spec{Workload: recorded, Variant: system.BaseCSSD, TotalInstr: 16_000}, "only on the 1/64 machine"},
		{quarter, Spec{Mix: "check-recorded-mix", Variant: system.BaseCSSD, TotalInstr: 16_000}, "only on the 1/64 machine"},
		{quarter, Spec{Arrival: "check-recorded-arrival", Variant: system.BaseCSSD, TotalInstr: 16_000}, `arrival spec "check-recorded-arrival"`},
		{quarter, Spec{Arrival: "check-recorded-arrival", Variant: system.BaseCSSD, TotalInstr: 16_000}, "only on the 1/64 machine"},
		{testRunner(1), Spec{Mix: "check-crowded-mix", Variant: system.BaseCSSD, TotalInstr: 16_000}, `mix "check-crowded-mix"`},
		{testRunner(1), Spec{Mix: "check-crowded-mix", Variant: system.BaseCSSD, TotalInstr: 16_000}, "exceeds the device's"},
	} {
		if err := c.r.Check(c.spec); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Check(%s) = %v, want an error containing %q", c.spec.Key(), err, c.want)
		}
		st := &countingStore{}
		c.r.Store, c.r.CacheOnly = st, true
		_, err := c.r.Run(context.Background(), c.spec)
		if err == nil || !strings.Contains(err.Error(), c.want) || st.gets != 0 {
			t.Errorf("cache-only Run(%s) = %v after %d store reads, want an error containing %q and no read", c.spec.Key(), err, st.gets, c.want)
		}
		c.r.Store, c.r.CacheOnly = nil, false
	}
	// The recorded workload runs on the 1/64 machine it was recorded on.
	if err := testRunner(1).Check(Spec{Workload: recorded, Variant: system.BaseCSSD, TotalInstr: 16_000}); err != nil {
		t.Fatalf("recorded workload on the 1/64 machine: %v", err)
	}
}
