// Package registry is the definition layer shared by the three kinds
// of named, data-defined run inputs: workloads, tenant mixes and
// arrival specs. Each kind has the same three needs, met here once:
//
//   - a name Registry: code-defined built-ins plus definitions
//     registered at start-up (usually from files), resolvable by name
//     everywhere, with a fingerprint of the whole resolvable set;
//   - a strict JSON loader (Decode): a typo'd field or trailing bytes
//     fail loudly instead of silently meaning "default";
//   - a canonical content identity (Digest) over the normalised
//     definition, prefixed with its format version.
//
// What stays with each kind is what is its own: validation,
// normalisation, and the source identity (SourceID) a definition
// contributes to spec keys.
package registry

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
)

// Kind describes one definition kind to its Registry.
type Kind[T any] struct {
	// Pkg and Noun phrase the errors: "<Pkg>: unknown <Noun> ..." and
	// "<Pkg>: %q is a built-in <Noun> ...".
	Pkg, Noun string
	// File names what a file holds in FromFile's decode error ("not a
	// valid <File>").
	File string
	// Tag prefixes the registry fingerprint's digest input, so two
	// kinds' fingerprints never collide.
	Tag string
	// Builtins returns the code-defined definitions; it is called once.
	Builtins func() []T
	// Name and SourceID key the definition and its source identity.
	Name     func(T) string
	SourceID func(T) string
	// Validate vets a definition and Normalize makes its defaulted
	// fields explicit; Register and FromFile run both on every input.
	Validate  func(T) error
	Normalize func(T) T
	// Replaced, when set, is called when a registration displaces an
	// earlier one of the same name (to release what the old one holds).
	Replaced func(old, new T)
}

// Registry resolves the names of one definition kind: its built-ins,
// then registrations in registration order. Built-in names are
// reserved; registering an already-registered name replaces it in
// place (the editing loop for definition files). The mutex makes
// registration safe, but the determinism contract (DESIGN.md §3) asks
// callers to finish registering before building runners or harnesses:
// Fingerprint is a snapshot, not a subscription.
type Registry[T any] struct {
	kind     Kind[T]
	builtins func() []T

	mu    sync.Mutex
	items []T
	index map[string]int
}

// New returns an empty registry of kind k.
func New[T any](k Kind[T]) *Registry[T] {
	return &Registry[T]{kind: k, builtins: sync.OnceValue(k.Builtins), index: map[string]int{}}
}

// Builtins returns the code-defined definitions. The returned slice is
// shared: callers must not mutate it.
func (r *Registry[T]) Builtins() []T { return r.builtins() }

// all returns a snapshot of the built-ins followed by the
// registrations in order.
func (r *Registry[T]) all() []T {
	out := append([]T(nil), r.Builtins()...)
	r.mu.Lock()
	defer r.mu.Unlock()
	return append(out, r.items...)
}

// builtin resolves a built-in name.
func (r *Registry[T]) builtin(name string) (T, bool) {
	for _, v := range r.Builtins() {
		if r.kind.Name(v) == name {
			return v, true
		}
	}
	var zero T
	return zero, false
}

// Names returns every resolvable name: built-ins first, then
// registrations in registration order. Unknown-name errors print it.
func (r *Registry[T]) Names() []string {
	var out []string
	for _, v := range r.all() {
		out = append(out, r.kind.Name(v))
	}
	return out
}

// ByName resolves a built-in or registered name. An unknown name
// errors with the full valid list.
func (r *Registry[T]) ByName(name string) (T, error) {
	if v, ok := r.builtin(name); ok {
		return v, nil
	}
	r.mu.Lock()
	i, ok := r.index[name]
	var v T
	if ok {
		v = r.items[i]
	}
	r.mu.Unlock()
	if ok {
		return v, nil
	}
	return v, fmt.Errorf("%s: unknown %s %q (valid: %s)", r.kind.Pkg, r.kind.Noun, name, strings.Join(r.Names(), ", "))
}

// Register validates and normalises v and makes it resolvable by
// name. A built-in name is refused; a registered name is replaced in
// place.
func (r *Registry[T]) Register(v T) error {
	if err := r.kind.Validate(v); err != nil {
		return err
	}
	v = r.kind.Normalize(v)
	name := r.kind.Name(v)
	if _, ok := r.builtin(name); ok {
		return fmt.Errorf("%s: %q is a built-in %s and cannot be replaced", r.kind.Pkg, name, r.kind.Noun)
	}
	r.mu.Lock()
	i, replaced := r.index[name]
	var old T
	if replaced {
		old = r.items[i]
		r.items[i] = v
	} else {
		r.index[name] = len(r.items)
		r.items = append(r.items, v)
	}
	r.mu.Unlock()
	if replaced && r.kind.Replaced != nil {
		r.kind.Replaced(old, v)
	}
	return nil
}

// RegisterFile loads a definition from path with load and registers
// it, returning the loaded definition.
func (r *Registry[T]) RegisterFile(path string, load func(string) (T, error)) (T, error) {
	v, err := load(path)
	if err == nil {
		err = r.Register(v)
	}
	if err != nil {
		var zero T
		return zero, err
	}
	return v, nil
}

// FromFile loads one JSON definition from path: strictly decoded
// (Decode), validated and normalised. It is not registered.
func (r *Registry[T]) FromFile(path string) (T, error) {
	var zero T
	data, err := os.ReadFile(path)
	if err != nil {
		return zero, fmt.Errorf("%s: %w", r.kind.Pkg, err)
	}
	v, err := Decode[T](data)
	if err != nil {
		return zero, fmt.Errorf("%s: %s: not a valid %s: %w", r.kind.Pkg, path, r.kind.File, err)
	}
	if err := r.kind.Validate(v); err != nil {
		return zero, fmt.Errorf("%s: %s: %w", r.kind.Pkg, path, err)
	}
	return r.kind.Normalize(v), nil
}

// Reset clears the registrations (tests only).
func (r *Registry[T]) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.items = nil
	r.index = map[string]int{}
}

// Fingerprint digests the full resolvable set: every name mapped to
// its SourceID, sorted, under the kind's tag. Identical registrations
// on different machines produce identical fingerprints; any changed
// definition changes it.
func (r *Registry[T]) Fingerprint() string {
	var lines []string
	for _, v := range r.all() {
		lines = append(lines, r.kind.Name(v)+"="+r.kind.SourceID(v))
	}
	sort.Strings(lines)
	sum := sha256.Sum256([]byte(r.kind.Tag + strings.Join(lines, "\n")))
	return hex.EncodeToString(sum[:])
}

// Decode strictly decodes one JSON value into a T: unknown fields are
// rejected, and so is anything but whitespace after the value.
func Decode[T any](data []byte) (T, error) {
	var v T
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&v); err != nil {
		return v, err
	}
	end := dec.InputOffset()
	if _, err := dec.Token(); err != io.EOF {
		var zero T
		return zero, fmt.Errorf("trailing data after the JSON value at offset %d", end)
	}
	return v, nil
}

// Digest returns a definition's canonical content identity: the hex
// SHA-256 of v's JSON encoding, prefixed "fmt<format>:". Pass the
// normalised definition, so that definitions meaning the same thing
// digest identically.
func Digest(format int, v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("registry: definition not fingerprintable: %v", err))
	}
	sum := sha256.Sum256(b)
	return fmt.Sprintf("fmt%d:%s", format, hex.EncodeToString(sum[:]))
}
