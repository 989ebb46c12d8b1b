package system

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// ResultVersion names both the serialized Result layout and the model
// that fills it. Bump it whenever Result (or any type it embeds)
// changes shape or meaning, and whenever a change to the model's code
// or fixed parameters changes what any run measures
// (TestResultGolden fails until it is bumped). The persistent store
// folds the version into every content address, so entries written by
// an older layout or model simply miss and re-simulate — they can
// never decode into a wrong table.
//
// v2: Result gained the per-tenant Tenants slice (multi-tenant runs).
// v3: Result gained the per-SLO-class OpenLoop section (arrival-driven
// open-loop runs).
// v4: Result gained the Telemetry section (probe time-series and
// request-lifecycle spans of telemetry-enabled runs).
// v5: Result gained the per-device Devices section with Placement and
// FleetMigrations (fleet runs, DESIGN.md §9).
// v6: the version covers the model too; the machine's fixed
// parameters became constants outside Config, so the config
// fingerprint no longer sees them.
const ResultVersion = 6

// EncodeResult serializes r canonically: the same measurements always
// produce the same bytes (struct fields encode in declaration order,
// map-backed histograms sort their keys). The persistent store hashes
// these bytes for integrity checking.
func EncodeResult(r *Result) ([]byte, error) {
	return json.Marshal(r)
}

// DecodeResult reverses EncodeResult. Unknown fields are rejected so a
// payload from a different (newer) layout fails loudly instead of
// decoding a partial Result.
func DecodeResult(data []byte) (*Result, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	r := new(Result)
	if err := dec.Decode(r); err != nil {
		return nil, fmt.Errorf("system: decode result: %w", err)
	}
	return r, nil
}

// Fingerprint returns a stable hex digest of the resolved configuration.
// Two configs with equal fingerprints produce identical simulations for
// any given spec, which is what lets a persistent result store fold the
// fingerprint into its keys: results cached under one machine
// configuration are invisible to every other.
func (c Config) Fingerprint() string {
	// Config is a pure value (no pointers, funcs, or unexported state),
	// so its canonical JSON is a faithful identity.
	b, err := json.Marshal(c)
	if err != nil {
		panic(fmt.Sprintf("system: config not fingerprintable: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
