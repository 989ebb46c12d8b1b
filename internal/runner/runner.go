package runner

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"skybyte/internal/fleet"
	"skybyte/internal/system"
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
// Each key has one call record for the Runner's lifetime (a full paper
// campaign is a few hundred results): in flight until it completes,
// then the memo every later caller reads. A failed call leaves no
// record, so a later caller retries. When Store is set, it is a
// second, typically persistent, cache level: consulted before every
// execution and written through after — a hit skips the simulation
// entirely.
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

	mu    sync.Mutex
	calls map[string]*call // one record per key: in flight or completed
}

// call is one key's execution record. done closes once res or err is
// set; a completed call stays in Runner.calls as the memo.
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
		calls:       make(map[string]*call),
	}
}

// Parallelism returns the pool size.
func (r *Runner) Parallelism() int { return r.parallelism }

// Run executes (or recalls) one spec. Concurrent calls with the same
// Key share a single execution; the result is memoized forever after.
// ctx only gates startup and waiting — a simulation that has begun runs
// to completion (individual runs are short; the pool stays consistent).
func (r *Runner) Run(ctx context.Context, spec Spec) (*system.Result, error) {
	return r.run(ctx, spec, 0, nil)
}

// run is Run plus batch-progress plumbing: when counter is non-nil it is
// incremented under evMu and reported as Event.Done out of total.
func (r *Runner) run(ctx context.Context, spec Spec, total int, counter *int) (*system.Result, error) {
	cfg, key, pop, err := r.resolve(spec)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	if c, ok := r.calls[key]; ok {
		r.mu.Unlock()
		// A completed call answers even under a cancelled ctx.
		select {
		case <-c.done:
		default:
			select {
			case <-c.done:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		if c.err == nil && counter != nil {
			r.emit(Event{Key: key, Result: c.res, Total: total, Cached: true}, counter)
		}
		return c.res, c.err
	}
	c := &call{done: make(chan struct{})}
	r.calls[key] = c
	r.mu.Unlock()

	var (
		stored bool
		wall   time.Duration
	)
	c.res, stored, wall, c.err = r.lead(ctx, cfg, key, pop)
	if c.err != nil {
		r.mu.Lock()
		delete(r.calls, key)
		r.mu.Unlock()
	}
	close(c.done)
	if c.err == nil && (r.OnEvent != nil || counter != nil) {
		r.emit(Event{Key: key, Result: c.res, Wall: wall, Total: total, Cached: stored, Stored: stored}, counter)
	}
	return c.res, c.err
}

// lead produces the result of a new call: from the persistent store
// when it holds key, else by simulating in a pool slot and writing the
// result through to the store. stored reports a store hit; wall is the
// host time of a simulation.
func (r *Runner) lead(ctx context.Context, cfg system.Config, key string, pop population) (res *system.Result, stored bool, wall time.Duration, err error) {
	// Consult the persistent store before taking a pool slot — a hit
	// costs a decode, not a simulation, so warm runs never contend for
	// simulation slots.
	if r.Store != nil {
		if res, ok := r.Store.Get(key); ok {
			return res, true, 0, nil
		}
		if r.CacheOnly {
			return nil, false, 0, fmt.Errorf("runner: design point %q not in the result store (cache-only render; run the missing shard first)", key)
		}
	}

	// Take a pool slot, honoring cancellation while queued. The upfront
	// Err check matters when both select cases are ready — an
	// already-cancelled context must never start a simulation.
	if ctx.Err() != nil {
		return nil, false, 0, ctx.Err()
	}
	select {
	case r.sem <- struct{}{}:
	case <-ctx.Done():
		return nil, false, 0, ctx.Err()
	}
	start := time.Now()
	res, err = r.execute(cfg, key, pop)
	wall = time.Since(start)
	<-r.sem
	if err == nil && r.Store != nil {
		r.Store.Put(key, res)
	}
	return res, false, wall, err
}

// Key returns the design point's identity: Spec.Key with the thread
// count the run adds written in, then |cfg= and 16 hex chars of the
// fingerprint of the config the run executes on. Specs that build the
// same machine share a key however they were written — a solo spec
// with Threads 0 keys as its ThreadsFor count, a mix or arrival spec
// as its declared count; an invalid machine or fleet axis keys
// cfg=invalid.
func (r *Runner) Key(spec Spec) string {
	_, key, _, _ := r.resolve(spec)
	return key
}

// Check returns the error Run would report for spec before consulting
// the store or building a System: an invalid machine or fleet axis, a
// workload, mix, arrival spec or cohort member that does not resolve,
// a Threads that disagrees with a declared layout, a budget that gives
// a thread no instructions, a workload the machine cannot size, or a
// mix or arrival spec whose combined footprint exceeds the device.
func (r *Runner) Check(spec Spec) error {
	_, _, _, err := r.resolve(spec)
	return err
}

// resolve builds the config spec runs on (variant, then Mutate, then the
// fleet axis) and validates it, resolves the spec's population on it
// once, and keys the spec with the population's thread count. An
// invalid machine keys cfg=invalid and never simulates; neither does a
// spec whose population does not resolve, does not fit its budget or
// does not fit the machine.
func (r *Runner) resolve(spec Spec) (system.Config, string, population, error) {
	cfg := r.base.WithVariant(spec.Variant)
	if spec.Mutate != nil {
		spec.Mutate(&cfg)
	}
	pop := spec.population(ThreadsFor(cfg))
	if err := applyFleet(&cfg, spec); err != nil {
		return cfg, spec.key(pop) + "|cfg=invalid", pop, err
	}
	if err := cfg.Validate(); err != nil {
		return cfg, spec.key(pop) + "|cfg=invalid", pop, fmt.Errorf("runner: %w", err)
	}
	spec.Threads = pop.threads
	key := spec.key(pop) + "|cfg=" + cfg.Fingerprint()[:16]
	if pop.err != nil {
		return cfg, key, pop, pop.err
	}
	if err := pop.fit(cfg); err != nil {
		return cfg, key, pop, err
	}
	return cfg, key, pop, nil
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
			results[i], errs[i] = r.run(ctx, specs[i], len(specs), &counter)
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
// config: wire a fresh System, add the population's threads, and drive
// every thread stream to retirement.
func (r *Runner) execute(cfg system.Config, key string, pop population) (*system.Result, error) {
	sys := system.New(cfg)
	if err := pop.apply(sys, r.seed); err != nil {
		return nil, err
	}
	res := sys.Run()
	res.CacheKey = key
	return res, nil
}
