package runner

import (
	"sync"

	"skybyte/internal/system"
)

// Store is a pluggable result cache keyed by Runner.Key. The runner keeps
// its lifetime memo in one (a MemStore) and, when Runner.Store is set,
// consults a second, typically persistent, level around every
// execution: a hit skips the simulation entirely, a completed execution
// is inserted for future runs.
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

// MemStore is the in-memory Store: a concurrency-safe map holding
// results for its lifetime. It is the runner's built-in memo level and
// is reusable as a write-through cache above slower stores.
type MemStore struct {
	mu sync.RWMutex
	m  map[string]*system.Result
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{m: make(map[string]*system.Result)}
}

// Get returns the stored result pointer; callers share it and must
// treat it as immutable (results are never mutated after collection).
func (s *MemStore) Get(key string) (*system.Result, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	r, ok := s.m[key]
	return r, ok
}

// Put stores res under key.
func (s *MemStore) Put(key string, res *system.Result) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[key] = res
}

// Len returns the number of stored results.
func (s *MemStore) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.m)
}
