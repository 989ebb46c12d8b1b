// Package store provides the persistent, content-addressed result
// store behind runner.Store: a directory of immutable JSON entries,
// one per executed design point, addressed by a hash that folds
// together the spec key, the machine-configuration fingerprint, and
// the result version (system.ResultVersion: Result layout and model).
//
// The addressing scheme is the safety argument. A cached entry is
// only visible to a runner whose base configuration, workload seed,
// and result version all match the ones that produced it — a stale
// cache (layout or model change), a foreign cache (different machine
// config or seed), or a damaged cache (corruption, truncation,
// tampering) presents as a miss, and a miss always re-simulates. The
// store can therefore never poison a table; the worst failure mode is
// wasted work.
//
// Because simulations are deterministic, entries written by different
// processes — shards of one sweep split across CI jobs or machines —
// compose: any number of runners may share one directory (entries are
// written via atomic rename), and a merge is nothing more than
// pointing a render at the combined directory.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"

	"skybyte/internal/system"
)

// Fingerprint derives the store identity for a campaign: the resolved
// base configuration plus the workload seed, the two inputs besides
// the spec key that determine a simulation's output. The result
// version, which covers the model's code, is folded in separately by
// the entry address and envelope.
func Fingerprint(cfg system.Config, seed uint64) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("skybyte-store|%s|seed=%d", cfg.Fingerprint(), seed)))
	return hex.EncodeToString(sum[:])
}

// Disk is a content-addressed on-disk result store. It implements
// runner.Store; all methods are safe for concurrent use, including
// across processes sharing one directory.
type Disk struct {
	dir string
	fp  string

	hits, misses, puts atomic.Uint64
}

// Open creates (if needed) and opens a store directory bound to one
// campaign fingerprint (see Fingerprint).
func Open(dir, fingerprint string) (*Disk, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	return &Disk{dir: dir, fp: fingerprint}, nil
}

// entry is the on-disk envelope around one serialized result.
type entry struct {
	// Version is the result version the payload was written under.
	Version int `json:"version"`
	// Fingerprint identifies the campaign (config + seed) — see Fingerprint.
	Fingerprint string `json:"fingerprint"`
	// Key is the spec key the result belongs to.
	Key string `json:"key"`
	// SHA256 is the hex digest of the Result payload bytes.
	SHA256 string `json:"sha256"`
	// Result is the canonical system.Result encoding.
	Result json.RawMessage `json:"result"`
}

// path returns the content address of key: every input that could
// change the measurements — result version, campaign fingerprint, spec
// key — is folded into the filename, so incompatible stores sharing a
// directory cannot even collide on names.
func (d *Disk) path(key string) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("v%d|%s|%s", system.ResultVersion, d.fp, key)))
	return filepath.Join(d.dir, hex.EncodeToString(sum[:])+".json")
}

// Get loads the entry for key. Any defect — unreadable, truncated, or
// corrupt file, version or fingerprint or key mismatch, payload digest
// mismatch — is a miss, never an error: the runner re-simulates.
func (d *Disk) Get(key string) (*system.Result, bool) {
	data, err := os.ReadFile(d.path(key))
	if err != nil {
		d.misses.Add(1)
		return nil, false
	}
	var e entry
	if json.Unmarshal(data, &e) != nil ||
		e.Version != system.ResultVersion ||
		e.Fingerprint != d.fp ||
		e.Key != key ||
		e.SHA256 != payloadDigest(e.Result) {
		d.misses.Add(1)
		return nil, false
	}
	res, err := system.DecodeResult(e.Result)
	if err != nil {
		d.misses.Add(1)
		return nil, false
	}
	d.hits.Add(1)
	return res, true
}

// Put persists res under key via write-to-temp + atomic rename, so
// readers (and concurrent writers of the same key, which by
// determinism carry identical bytes) never observe a partial entry.
// Failures are swallowed: an unwritten entry costs a re-simulation.
func (d *Disk) Put(key string, res *system.Result) {
	payload, err := system.EncodeResult(res)
	if err != nil {
		return
	}
	e := entry{
		Version:     system.ResultVersion,
		Fingerprint: d.fp,
		Key:         key,
		SHA256:      payloadDigest(payload),
		Result:      payload,
	}
	data, err := json.Marshal(e)
	if err != nil {
		return
	}
	final := d.path(key)
	tmp, err := os.CreateTemp(d.dir, "put-*.tmp")
	if err != nil {
		return
	}
	_, werr := tmp.Write(data)
	// CreateTemp makes 0600 files; entries must be world-readable so
	// stores shared between users/CI jobs (the whole point of the
	// on-disk format) render for everyone.
	merr := tmp.Chmod(0o644)
	cerr := tmp.Close()
	if werr != nil || merr != nil || cerr != nil || os.Rename(tmp.Name(), final) != nil {
		os.Remove(tmp.Name())
		return
	}
	d.puts.Add(1)
}

func payloadDigest(payload []byte) string {
	sum := sha256.Sum256(payload)
	return hex.EncodeToString(sum[:])
}

// Stats reports the store's lifetime hit/miss/insert counters.
func (d *Disk) Stats() (hits, misses, puts uint64) {
	return d.hits.Load(), d.misses.Load(), d.puts.Load()
}

// Len counts the entries currently in the directory (all fingerprints
// and versions, not just this store's).
func (d *Disk) Len() int {
	matches, err := filepath.Glob(filepath.Join(d.dir, "*.json"))
	if err != nil {
		return 0
	}
	return len(matches)
}
