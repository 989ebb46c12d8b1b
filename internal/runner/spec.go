// Package runner executes simulation design points across a bounded
// worker pool. It is the execute half of the experiments layer's
// plan/execute split: figures declare the Specs they need, the runner
// de-duplicates them (singleflight memoization keyed by Runner.Key),
// saturates up to Parallelism cores, and hands results back in the
// caller's declaration order so every table renders byte-identically
// regardless of how many workers raced to produce it.
//
// Safety rests on two properties, both load-bearing:
//
//   - A system.System (and every component it wires) keeps all mutable
//     state per instance; distinct Systems may run on distinct
//     goroutines concurrently (see the reentrancy note on system.New).
//   - Each simulation is deterministic: the same Spec always yields the
//     same measurements, so memoizing by key is sound.
package runner

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"

	"skybyte/internal/arrival"
	"skybyte/internal/fleet"
	"skybyte/internal/system"
	"skybyte/internal/tenant"
	"skybyte/internal/workloads"
)

// Spec names one design point: a workload (or multi-tenant mix), a
// variant, a work budget, a thread count, and an optional config
// mutation. Its identity is the machine it resolves to: Runner.Key
// folds the fingerprint of the config the spec runs on, so Specs that
// build the same machine are interchangeable.
type Spec struct {
	// Workload is a Table I benchmark name (resolved via workloads.ByName).
	// Ignored when Mix is set.
	Workload string
	// Mix, when set, names a multi-tenant mix (resolved via
	// tenant.ByName): the run assigns each tenant group's workload to
	// its thread range and the Result carries per-tenant accounting.
	Mix string
	// Arrival, when set, names an open-loop arrival spec (resolved via
	// arrival.ByName): the run paces each cohort's threads with sampled
	// arrival instants and the Result carries per-SLO-class accounting.
	// Workload is ignored; setting Mix as well is an execution error.
	Arrival string
	// ArrivalScale multiplies every cohort rate of an Arrival run — the
	// campaign's offered-intensity axis (0 means 1; NaN, infinities and
	// negative scales are execution errors). Part of the key.
	ArrivalScale float64
	// Variant is the design point applied to the base config.
	Variant system.Variant
	// TotalInstr is the total instruction budget, divided evenly among
	// threads (scaled per tenant by mix intensities) so every design
	// point executes the same program section.
	TotalInstr uint64
	// Threads is the software thread count; 0 means the paper default
	// (ThreadsFor) resolved after Mutate has run — or, for a mix or an
	// arrival spec, its declared total.
	Threads int
	// Devices, when >= 2, engages the fleet layer with that many SSD
	// backends (system.Config.Devices); Placement names the fleet
	// placement policy ("" = striped) and needs Devices >= 2. Both fold
	// into the key, so a placement change re-keys exactly the fleet
	// design points. 0 and 1 are the single-device machine: one key, no
	// fleet segment.
	Devices   int
	Placement string
	// Mutate adjusts the variant config before the run (nil for none).
	// It must be deterministic; it is identified by the config it
	// produces, not by the function.
	Mutate func(*system.Config)
}

// Key returns the spec's identity as written, without the machine
// (Runner.Key appends that; it is the key caches and stores use):
//
//	workload|variant|budget|threads|src=<digest>
//
// (the first segment is "mix:<name>" for mix specs and
// "arr:<name>@<scale>" for arrival specs). The src digest is the
// resolved generator's source identity — the workload's SourceID, or
// for a mix its fingerprint plus every member workload's SourceID —
// truncated to 16 hex chars. Folding the source into the key is what
// makes persistent-store invalidation *surgical*: editing one workload
// file re-keys exactly the design points that resolve it (and any
// mixes referencing it), while every other cached entry stays warm. An
// unresolvable name keys as src=unresolved; execution fails before
// simulating, and nothing is cached under that key.
func (s Spec) Key() string { return s.key(s.population(0)) }

// key renders the spec's identity as written over its resolved
// population p.
func (s Spec) key(p population) string {
	// Fleet specs insert a |fleet=K:policy segment before the source
	// digest; single-device specs (Devices 0 or 1) have none. The
	// empty placement renders as its resolved default ("striped"), so ""
	// and "striped" share one cache entry — they run the same machine.
	fleetSeg := ""
	if s.Devices >= 2 {
		placement := s.Placement
		if placement == "" {
			placement = string(fleet.Striped)
		}
		fleetSeg = fmt.Sprintf("|fleet=%d:%s", s.Devices, placement)
	}
	src := "unresolved"
	if p.src != "" {
		sum := sha256.Sum256([]byte(p.src))
		src = hex.EncodeToString(sum[:8])
	}
	return fmt.Sprintf("%s|%s|%d|%d%s|src=%s", p.name, s.Variant, s.TotalInstr, s.Threads, fleetSeg, src)
}

// arrivalScale is the effective intensity scale (0 → 1).
func (s Spec) arrivalScale() float64 {
	if s.ArrivalScale == 0 {
		return 1
	}
	return s.ArrivalScale
}

// population is the one thread population a Spec names — a solo
// workload, a mix or an arrival spec — resolved against the live
// registries.
type population struct {
	name    string // the key's first segment
	src     string // source identity; "" when the name does not resolve
	threads int    // threads the run adds
	per     uint64 // the smallest per-thread instruction budget
	// fit reports whether the machine a config describes can hold the
	// population, before the machine is built: a solo workload must be
	// sizable for it (workloads.Spec.ForDevice), a mix's or arrival
	// spec's groups must fit it (tenant.Fit).
	fit func(cfg system.Config) error
	// apply adds the threads to a fresh System.
	apply func(sys *system.System, seed uint64) error
	// err is the error that stops the spec, if any.
	err error
}

// population resolves the spec's one thread population, and is the only
// place the kind of population is decided. A solo workload is one group
// of plain threads — no tenant declaration, no arena offset — so its
// Result and replay path are those of a bare AddThread loop; it runs
// Spec.Threads threads, or threads when that is 0 (the machine's
// ThreadsFor). A mix or an arrival spec declares its own thread layout
// through the shared tenant layout; Spec.Threads, if set, must agree
// with it (a layout's thread counts are part of its definition, not a
// per-run knob). A population whose budget leaves some thread no
// instructions is an error.
func (s Spec) population(threads int) (p population) {
	if s.Threads != 0 {
		threads = s.Threads
	}
	declaredBy := "" // the mix or arrival spec that declares the threads
	switch {
	case s.Arrival != "":
		p.name = fmt.Sprintf("arr:%s@%g", s.Arrival, s.arrivalScale())
		declaredBy = fmt.Sprintf("arrival spec %q", s.Arrival)
		var a arrival.Spec
		if a, p.err = arrival.ByName(s.Arrival); p.err != nil {
			return p
		}
		p.src = a.SourceID()
		if s.Mix != "" {
			p.err = fmt.Errorf("runner: spec sets both mix %q and arrival spec %q; they are mutually exclusive", s.Mix, s.Arrival)
		} else if err := arrival.ValidateScale(s.ArrivalScale); err != nil {
			p.err = fmt.Errorf("runner: %w", err)
		} else {
			var groups []tenant.Group
			groups, p.err = a.Groups()
			for _, g := range groups {
				p.threads += g.Threads
			}
			if p.threads > 0 {
				p.per = s.TotalInstr / uint64(p.threads)
			}
			p.fit = fitLayout(declaredBy, groups)
		}
		p.apply = func(sys *system.System, seed uint64) error {
			return a.Apply(sys, s.TotalInstr, seed, s.arrivalScale())
		}
	case s.Mix != "":
		p.name = "mix:" + s.Mix
		declaredBy = fmt.Sprintf("mix %q", s.Mix)
		var m tenant.Mix
		if m, p.err = tenant.ByName(s.Mix); p.err != nil {
			return p
		}
		p.src = m.SourceID()
		p.threads = m.TotalThreads()
		var groups []tenant.Group
		groups, p.err = m.Groups(s.TotalInstr)
		for i, g := range groups {
			if i == 0 || g.Per < p.per {
				p.per = g.Per
			}
		}
		p.fit = fitLayout(declaredBy, groups)
		p.apply = func(sys *system.System, seed uint64) error { return m.Apply(sys, s.TotalInstr, seed) }
	default:
		p.name = s.Workload
		p.threads = threads
		var w workloads.Spec
		if w, p.err = workloads.ByName(s.Workload); p.err != nil {
			return p
		}
		p.src = w.SourceID()
		if threads > 0 {
			p.per = s.TotalInstr / uint64(threads)
		}
		p.fit = func(cfg system.Config) error {
			_, err := w.ForDevice(cfg.Geometry.Bytes())
			return err
		}
		per := p.per
		p.apply = func(sys *system.System, seed uint64) error {
			w, err := w.ForDevice(sys.Config().Geometry.Bytes())
			if err != nil {
				return err
			}
			for i := 0; i < threads; i++ {
				sys.AddThread(w.Stream(i, seed), per)
			}
			return nil
		}
	}
	switch {
	case p.err != nil:
	case declaredBy != "" && s.Threads != 0 && s.Threads != p.threads:
		p.err = fmt.Errorf("runner: %s declares %d threads; spec asks for %d (leave Threads 0 or match the declaration)",
			declaredBy, p.threads, s.Threads)
	case p.threads < 0:
		p.err = fmt.Errorf("runner: spec asks for %d threads; want 0 (the default) or more", p.threads)
	case p.per == 0:
		p.err = fmt.Errorf("runner: a budget of %d instructions over %d threads leaves a thread none; raise the budget or run fewer threads",
			s.TotalInstr, p.threads)
	}
	return p
}

// fitLayout is the fit check of the groups a mix or arrival spec lays
// out with tenant.Layout; its error names the layout's declarer.
func fitLayout(declaredBy string, groups []tenant.Group) func(system.Config) error {
	return func(cfg system.Config) error {
		if _, err := tenant.Fit(cfg, groups); err != nil {
			return fmt.Errorf("runner: %s: %w", declaredBy, err)
		}
		return nil
	}
}

// ThreadsFor resolves the paper's §VI-A thread default: 24 threads on 8
// cores when the coordinated context switch (or the AstriFlash
// user-level switching baseline) is enabled, 8 threads otherwise.
func ThreadsFor(cfg system.Config) int {
	if cfg.CtxSwitchEnabled || cfg.Migration == system.MigrationAstri {
		return 3 * cfg.Cores
	}
	return cfg.Cores
}

// ShardSpecs returns the i-th of n deterministic, contiguous, balanced
// slices of specs. Every process slicing the same spec list computes
// identical boundaries, which is what lets shards coordinate on
// nothing but (i, n).
func ShardSpecs(specs []Spec, i, n int) []Spec {
	if n <= 0 || i < 0 || i >= n {
		panic(fmt.Sprintf("runner: invalid shard %d/%d", i, n))
	}
	lo := len(specs) * i / n
	hi := len(specs) * (i + 1) / n
	return specs[lo:hi]
}

// ParseShard parses a CLI shard spec of the form "i/n" (0-based,
// 0 <= i < n), rejecting trailing garbage and out-of-range values.
func ParseShard(s string) (i, n int, err error) {
	a, b, ok := strings.Cut(s, "/")
	if ok {
		var err1, err2 error
		i, err1 = strconv.Atoi(a)
		n, err2 = strconv.Atoi(b)
		ok = err1 == nil && err2 == nil && n >= 1 && i >= 0 && i < n
	}
	if !ok {
		return 0, 0, fmt.Errorf("invalid shard %q; want i/n with 0 <= i < n, e.g. 0/2", s)
	}
	return i, n, nil
}
