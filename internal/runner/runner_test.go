package runner

import (
	"context"
	"math"
	"strings"
	"sync"
	"testing"

	"skybyte/internal/sim"
	"skybyte/internal/system"
	"skybyte/internal/tenant"
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

// countingStore wraps a MemStore with hit/miss/put accounting so tests
// can see exactly how the runner drives its second-level store.
type countingStore struct {
	*MemStore
	mu               sync.Mutex
	gets, hits, puts int
}

func (s *countingStore) Get(key string) (*system.Result, bool) {
	res, ok := s.MemStore.Get(key)
	s.mu.Lock()
	s.gets++
	if ok {
		s.hits++
	}
	s.mu.Unlock()
	return res, ok
}

func (s *countingStore) Put(key string, res *system.Result) {
	s.mu.Lock()
	s.puts++
	s.mu.Unlock()
	s.MemStore.Put(key, res)
}

// TestStoreWarmRunSkipsSimulation is the tentpole contract: a second
// runner sharing the first's store performs zero simulations, every
// result arriving as a Stored event, and returns identical
// measurements.
func TestStoreWarmRunSkipsSimulation(t *testing.T) {
	shared := &countingStore{MemStore: NewMemStore()}
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
	shared := &countingStore{MemStore: NewMemStore()}
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

func TestMemStore(t *testing.T) {
	s := NewMemStore()
	if _, ok := s.Get("k"); ok {
		t.Fatal("empty store hit")
	}
	res := &system.Result{Variant: "x"}
	s.Put("k", res)
	got, ok := s.Get("k")
	if !ok || got != res {
		t.Fatal("MemStore did not return the stored pointer")
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
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
