package runner

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"skybyte/internal/arrival"
	"skybyte/internal/fleet"
	"skybyte/internal/system"
	"skybyte/internal/tenant"
	"skybyte/internal/workloads"
)

// Event reports one completed simulation to OnEvent.
type Event struct {
	// Key is the executed spec's cache identity (Runner.Key).
	Key string
	// Result is the completed measurement set.
	Result *system.Result
	// Wall is the host-side execution time of this run.
	Wall time.Duration
	// Done and Total report batch progress: Done counts specs completed
	// so far in the current RunAll batch — executions and memoised
	// recalls alike, so Done reaches Total when the batch settles. Both
	// are zero for bare Run calls.
	Done, Total int
	// Cached marks a recall: the Result was produced by an earlier
	// execution (Wall is zero) — either this runner's memo or, when
	// Stored is also set, the persistent Store. Bare Run memo hits emit
	// no event; batch hits do, for the progress accounting above.
	Cached bool
	// Stored marks a persistent-store hit: no simulation ran, the
	// result was decoded from Runner.Store.
	Stored bool
}

// Runner executes Specs against one base machine configuration. It
// memoizes by Runner.Key with singleflight semantics — concurrent callers
// of an identical spec share one execution — and bounds concurrent
// simulations with a worker pool of Parallelism slots.
//
// Completed results live in an in-memory Store (a MemStore) for the
// Runner's lifetime (a full paper campaign is a few hundred results);
// the singleflight machinery only tracks in-flight executions. When
// Store is set, it is a second, typically persistent, cache level:
// consulted before every execution and written through after — a hit
// skips the simulation entirely.
//
// A Runner is safe for concurrent use.
type Runner struct {
	base        system.Config
	seed        uint64
	parallelism int
	sem         chan struct{}

	// Store, when set, is the second-level result store (typically the
	// content-addressed disk store of internal/store). It is consulted
	// on every memo miss before simulating and receives every executed
	// result. Set it before the first Run/RunAll call races with it.
	Store Store

	// CacheOnly makes a Store miss an error instead of an execution —
	// the render-from-cache mode: tables may only be built from results
	// some earlier (possibly sharded) run persisted. Requires Store.
	CacheOnly bool

	// OnEvent, when set, observes each simulation as it completes. It is
	// invoked serially (never concurrently) but from worker goroutines,
	// for executions and persistent-store hits — memo hits are silent
	// outside batches. Set it before the first Run/RunAll call races
	// with it.
	OnEvent func(Event)

	evMu sync.Mutex // serializes OnEvent and orders Done counts

	mem *MemStore // lifetime memo of completed results

	mu       sync.Mutex
	inflight map[string]*call
}

// call is one singleflight execution slot.
type call struct {
	done chan struct{}
	res  *system.Result
	err  error
}

// New builds a runner over base. Workload streams are seeded with seed;
// parallelism <= 0 means GOMAXPROCS.
func New(base system.Config, seed uint64, parallelism int) *Runner {
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	return &Runner{
		base:        base,
		seed:        seed,
		parallelism: parallelism,
		sem:         make(chan struct{}, parallelism),
		mem:         NewMemStore(),
		inflight:    make(map[string]*call),
	}
}

// Parallelism returns the pool size.
func (r *Runner) Parallelism() int { return r.parallelism }

// Run executes (or recalls) one spec. Concurrent calls with the same
// Key share a single execution; the result is memoized forever after.
// ctx only gates startup and waiting — a simulation that has begun runs
// to completion (individual runs are short; the pool stays consistent).
func (r *Runner) Run(ctx context.Context, spec Spec) (*system.Result, error) {
	res, _, err := r.run(ctx, spec, 0, nil)
	return res, err
}

// run is Run plus batch-progress plumbing: when counter is non-nil it is
// incremented under evMu and reported as Event.Done out of total.
func (r *Runner) run(ctx context.Context, spec Spec, total int, counter *int) (*system.Result, bool, error) {
	spec, cfg, key, err := r.resolve(spec)
	if err != nil {
		return nil, false, err
	}
	if res, ok := r.mem.Get(key); ok {
		if counter != nil {
			r.emit(Event{Key: key, Result: res, Total: total, Cached: true}, counter)
		}
		return res, true, nil
	}
	r.mu.Lock()
	if c, ok := r.inflight[key]; ok {
		r.mu.Unlock()
		select {
		case <-c.done:
			if c.err == nil && counter != nil {
				r.emit(Event{Key: key, Result: c.res, Total: total, Cached: true}, counter)
			}
			return c.res, true, c.err
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
	}
	// Re-check the memo under mu: a leader inserts its result before
	// unregistering from inflight, so a key absent from inflight may
	// have completed since the lock-free check above.
	if res, ok := r.mem.Get(key); ok {
		r.mu.Unlock()
		if counter != nil {
			r.emit(Event{Key: key, Result: res, Total: total, Cached: true}, counter)
		}
		return res, true, nil
	}
	c := &call{done: make(chan struct{})}
	r.inflight[key] = c
	r.mu.Unlock()

	// Leader: consult the persistent store before taking a pool slot —
	// a hit costs a decode, not a simulation, so warm runs never
	// contend for simulation slots.
	if r.Store != nil {
		if res, ok := r.Store.Get(key); ok {
			c.res = res
			r.mem.Put(key, res)
			r.finish(key, c)
			if r.OnEvent != nil || counter != nil {
				r.emit(Event{Key: key, Result: res, Total: total, Cached: true, Stored: true}, counter)
			}
			return res, true, nil
		}
		if r.CacheOnly {
			c.err = fmt.Errorf("runner: design point %q not in the result store (cache-only render; run the missing shard first)", key)
			r.finish(key, c)
			return nil, false, c.err
		}
	}

	// Take a pool slot, honoring cancellation while queued. The upfront
	// Err check matters when both select cases are ready — an
	// already-cancelled context must never start a simulation.
	acquired := false
	if ctx.Err() == nil {
		select {
		case r.sem <- struct{}{}:
			acquired = true
		case <-ctx.Done():
		}
	}
	if !acquired {
		c.err = ctx.Err()
		r.finish(key, c)
		return nil, false, c.err
	}
	start := time.Now()
	c.res, c.err = r.execute(spec, cfg, key)
	wall := time.Since(start)
	<-r.sem
	if c.err == nil {
		// Insert before unregistering (see the re-check above), and
		// write through to the persistent store. A failed execution is
		// inserted nowhere, so a later caller may retry (e.g. after
		// fixing a workload name).
		r.mem.Put(key, c.res)
		if r.Store != nil {
			r.Store.Put(key, c.res)
		}
	}
	r.finish(key, c)
	if c.err == nil && (r.OnEvent != nil || counter != nil) {
		r.emit(Event{Key: key, Result: c.res, Wall: wall, Total: total}, counter)
	}
	return c.res, false, c.err
}

// Key returns the design point's identity: Spec.Key with a solo thread
// count resolved, then |cfg= and 16 hex chars of the fingerprint of the
// config the run executes on. Specs that build the same machine share a
// key however they were written; an invalid fleet axis keys cfg=invalid.
func (r *Runner) Key(spec Spec) string {
	_, _, key, _ := r.resolve(spec)
	return key
}

// Check returns the error Run would report for spec before simulating
// anything: an invalid machine or fleet axis, or a budget that gives a
// thread no instructions. Names that do not resolve are reported by Run.
func (r *Runner) Check(spec Spec) error {
	_, _, _, err := r.resolve(spec)
	return err
}

// resolve builds the config spec runs on (variant, then Mutate, then the
// fleet axis), validates it, resolves a solo spec's Threads against it,
// and keys it. An invalid machine keys cfg=invalid and never simulates;
// neither does a spec whose budget leaves a thread no instructions.
func (r *Runner) resolve(spec Spec) (Spec, system.Config, string, error) {
	cfg := r.base.WithVariant(spec.Variant)
	if spec.Mutate != nil {
		spec.Mutate(&cfg)
	}
	if err := applyFleet(&cfg, spec); err != nil {
		return spec, cfg, spec.Key() + "|cfg=invalid", err
	}
	if err := cfg.Validate(); err != nil {
		return spec, cfg, spec.Key() + "|cfg=invalid", fmt.Errorf("runner: %w", err)
	}
	if spec.Mix == "" && spec.Arrival == "" && spec.Threads == 0 {
		spec.Threads = ThreadsFor(cfg)
	}
	key := spec.Key() + "|cfg=" + cfg.Fingerprint()[:16]
	return spec, cfg, key, checkBudget(spec)
}

// checkBudget rejects a spec that gives some thread no instructions: a
// negative thread count, or a per-thread budget of 0 — a solo run's
// TotalInstr/Threads, a mix tenant's PerThreadInstr, or an arrival
// run's TotalInstr over its threads. A mix or arrival name that does
// not resolve passes here; population reports it.
func checkBudget(spec Spec) error {
	if spec.Threads < 0 {
		return fmt.Errorf("runner: spec asks for %d threads; want 0 (the default) or more", spec.Threads)
	}
	threads, per := spec.Threads, uint64(0)
	switch {
	case spec.Arrival != "":
		a, err := arrival.ByName(spec.Arrival)
		if err != nil {
			return nil
		}
		if threads, err = a.TotalThreads(); err != nil || threads == 0 {
			return nil
		}
		per = spec.TotalInstr / uint64(threads)
	case spec.Mix != "":
		m, err := tenant.ByName(spec.Mix)
		if err != nil {
			return nil
		}
		threads, per = m.TotalThreads(), spec.TotalInstr
		for i := range m.Tenants {
			per = min(per, m.PerThreadInstr(i, spec.TotalInstr))
		}
	default:
		per = spec.TotalInstr / uint64(threads)
	}
	if per == 0 {
		return fmt.Errorf("runner: a budget of %d instructions over %d threads leaves a thread none; raise the budget or run fewer threads",
			spec.TotalInstr, threads)
	}
	return nil
}

// applyFleet validates a spec's fleet axis and threads it, placement
// resolved, into the run config (after Mutate, so spec-level
// Devices/Placement always win over mutation side effects). Specs
// without a fleet axis — Devices 0 or 1, the single-device machine —
// leave the config untouched.
func applyFleet(cfg *system.Config, spec Spec) error {
	if spec.Placement != "" && spec.Devices < 2 {
		// One device has nothing to place across: the machine would
		// ignore the placement.
		return fmt.Errorf("runner: spec placement %q requires Devices >= 2", spec.Placement)
	}
	if spec.Devices == 0 || spec.Devices == 1 {
		return nil
	}
	if err := fleet.Validate(spec.Devices, spec.Placement); err != nil {
		return fmt.Errorf("runner: %w", err)
	}
	placement, _ := fleet.ParsePolicy(spec.Placement)
	cfg.Devices = spec.Devices
	cfg.Placement = string(placement)
	return nil
}

// finish unregisters a completed (or failed) leader call and releases
// its waiters. The result, if any, must already be in the memo.
func (r *Runner) finish(key string, c *call) {
	r.mu.Lock()
	delete(r.inflight, key)
	r.mu.Unlock()
	close(c.done)
}

// emit serializes OnEvent and stamps batch progress.
func (r *Runner) emit(ev Event, counter *int) {
	r.evMu.Lock()
	defer r.evMu.Unlock()
	if counter != nil {
		*counter++
		ev.Done = *counter
	}
	if r.OnEvent != nil {
		r.OnEvent(ev)
	}
}

// RunAll executes every spec, de-duplicated, across the pool and returns
// results positionally: results[i] corresponds to specs[i], whatever
// order the workers finished in. The first error (unknown workload,
// cancellation) is returned after all goroutines settle; results for
// failed specs are nil.
func (r *Runner) RunAll(ctx context.Context, specs []Spec) ([]*system.Result, error) {
	results := make([]*system.Result, len(specs))
	errs := make([]error, len(specs))
	var counter int
	var wg sync.WaitGroup
	for i := range specs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], _, errs[i] = r.run(ctx, specs[i], len(specs), &counter)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return results, err
		}
	}
	return results, nil
}

// execute performs one simulation of a resolved spec on its resolved
// config: resolve the thread population, wire a fresh System, populate
// it, and drive every thread stream to retirement.
func (r *Runner) execute(spec Spec, cfg system.Config, key string) (*system.Result, error) {
	populate, err := r.population(spec, cfg)
	if err != nil {
		return nil, err
	}
	sys := system.New(cfg)
	if err := populate(sys); err != nil {
		return nil, err
	}
	res := sys.Run()
	res.CacheKey = key
	return res, nil
}

// population is the one switch from a Spec to its threads. It resolves
// every name and checks the spec before any System is built, and
// returns the call that adds the threads. A solo workload is one group
// of plain threads — no tenant declaration, no arena offset — so its
// Result and replay path are those of a bare AddThread loop. A mix or
// an arrival spec declares its own thread layout through the shared
// tenant layout; Spec.Threads, if set, must agree with it (a layout's
// thread counts are part of its definition, not a per-run knob). A solo
// workload is sized for cfg's devices here (workloads.Spec.ForDevice);
// the tenant layout sizes mixes and arrival cohorts the same way.
func (r *Runner) population(spec Spec, cfg system.Config) (func(*system.System) error, error) {
	switch {
	case spec.Mix != "" && spec.Arrival != "":
		return nil, fmt.Errorf("runner: spec sets both mix %q and arrival spec %q; they are mutually exclusive", spec.Mix, spec.Arrival)
	case spec.Arrival != "":
		if err := arrival.ValidateScale(spec.ArrivalScale); err != nil {
			return nil, fmt.Errorf("runner: %w", err)
		}
		a, err := arrival.ByName(spec.Arrival)
		if err != nil {
			return nil, err
		}
		if err := a.Resolve(); err != nil {
			return nil, err
		}
		total, err := a.TotalThreads()
		if err != nil {
			return nil, err
		}
		if err := checkThreads(spec, "arrival spec", spec.Arrival, total); err != nil {
			return nil, err
		}
		return func(sys *system.System) error {
			return a.Apply(sys, spec.TotalInstr, r.seed, spec.arrivalScale())
		}, nil
	case spec.Mix != "":
		m, err := tenant.ByName(spec.Mix)
		if err != nil {
			return nil, err
		}
		if err := checkThreads(spec, "mix", spec.Mix, m.TotalThreads()); err != nil {
			return nil, err
		}
		return func(sys *system.System) error { return m.Apply(sys, spec.TotalInstr, r.seed) }, nil
	}
	w, err := workloads.ByName(spec.Workload)
	if err != nil {
		return nil, err
	}
	if w, err = w.ForDevice(cfg.Geometry.Bytes()); err != nil {
		return nil, err
	}
	per := spec.TotalInstr / uint64(spec.Threads)
	return func(sys *system.System) error {
		for i := 0; i < spec.Threads; i++ {
			sys.AddThread(w.Stream(i, r.seed), per)
		}
		return nil
	}, nil
}

// checkThreads rejects a Spec.Threads that disagrees with the thread
// count a mix or arrival spec declares.
func checkThreads(spec Spec, kind, name string, declared int) error {
	if spec.Threads != 0 && spec.Threads != declared {
		return fmt.Errorf("runner: %s %q declares %d threads; spec asks for %d (leave Threads 0 or match the %s)",
			kind, name, declared, spec.Threads, kind)
	}
	return nil
}
