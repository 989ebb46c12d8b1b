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
func (s Spec) Key() string {
	name := s.Workload
	switch {
	case s.Arrival != "":
		name = fmt.Sprintf("arr:%s@%g", s.Arrival, s.arrivalScale())
	case s.Mix != "":
		name = "mix:" + s.Mix
	}
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
	return fmt.Sprintf("%s|%s|%d|%d%s|src=%s", name, s.Variant, s.TotalInstr, s.Threads, fleetSeg, s.sourceDigest())
}

// arrivalScale is the effective intensity scale (0 → 1).
func (s Spec) arrivalScale() float64 {
	if s.ArrivalScale == 0 {
		return 1
	}
	return s.ArrivalScale
}

// sourceDigest resolves the spec's generator source identity against
// the live registries and compresses it to 16 hex chars.
func (s Spec) sourceDigest() string {
	var src string
	if s.Arrival != "" {
		a, err := arrival.ByName(s.Arrival)
		if err != nil {
			return "unresolved"
		}
		src = a.SourceID()
	} else if s.Mix != "" {
		m, err := tenant.ByName(s.Mix)
		if err != nil {
			return "unresolved"
		}
		src = m.SourceID()
	} else {
		w, err := workloads.ByName(s.Workload)
		if err != nil {
			return "unresolved"
		}
		src = w.SourceID()
	}
	sum := sha256.Sum256([]byte(src))
	return hex.EncodeToString(sum[:8])
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
