package runner

import "skybyte/internal/system"

// Store is a pluggable result cache keyed by Runner.Key. When
// Runner.Store is set, the runner consults it around every execution
// its own memo has not answered: a hit skips the simulation entirely, a
// completed execution is inserted for future runs.
//
// Implementations must be safe for concurrent use. Get must return
// results equivalent to what executing the spec would produce —
// integrity checking (corruption, foreign configurations, stale codecs)
// is the implementation's job, and the correct response to any doubt is
// a miss: the runner then re-simulates, which is always sound.
type Store interface {
	// Get returns the cached result for key, or ok=false on any miss.
	Get(key string) (res *system.Result, ok bool)
	// Put inserts an executed result. Implementations that can fail
	// (e.g. disk stores) degrade to doing nothing: losing an insert
	// costs a future re-simulation, never correctness.
	Put(key string, res *system.Result)
}
