package workloads

import (
	"fmt"
	"os"

	"skybyte/internal/registry"
	"skybyte/internal/trace"
)

// FromFile loads a workload from path. The format is sniffed from the
// content:
//
//   - a recorded binary trace (internal/trace codec; magic "SKYBTRC")
//     becomes a trace-kind workload named "trace:<workload>" that
//     replays the records literally — opened through the streaming
//     reader, so a block-compressed v2 recording replays with O(block)
//     memory and is never materialized;
//   - anything else must be a JSON declarative definition
//     (WORKLOADS.md documents the schema), strictly decoded
//     (registry.Decode): unknown fields and trailing data are rejected
//     so a typo fails loudly instead of silently meaning "default".
//
// The returned Spec is validated but not registered; RegisterFile also
// makes it resolvable by name.
func FromFile(path string) (Spec, error) {
	f, err := os.Open(path)
	if err != nil {
		return Spec{}, fmt.Errorf("workloads: %w", err)
	}
	var magic [8]byte
	n, _ := f.Read(magic[:])
	f.Close()
	if trace.IsTrace(magic[:n]) {
		// Trace files can be arbitrarily large; never slurp them. The
		// streaming open verifies the whole file (structure, block
		// seals, trailer) and computes the digest in one bounded pass.
		r, err := trace.OpenFile(path)
		if err != nil {
			return Spec{}, fmt.Errorf("workloads: %s: %w", path, err)
		}
		s, err := SpecFromTrace(r)
		if err != nil {
			r.Close()
			return Spec{}, fmt.Errorf("workloads: %s: %w", path, err)
		}
		return s, nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return Spec{}, fmt.Errorf("workloads: %w", err)
	}
	d, err := registry.Decode[Def](data)
	if err != nil {
		return Spec{}, fmt.Errorf("workloads: %s: not a trace and not a valid workload definition: %w", path, err)
	}
	s, err := d.Spec()
	if err != nil {
		return Spec{}, fmt.Errorf("workloads: %s: %w", path, err)
	}
	return s, nil
}

// SpecFromTrace wraps an opened trace as a workload named
// "trace:<original workload>". The reader's digest (the file's codec
// version plus content hash) becomes the spec's source identity, so an
// edited or re-recorded trace — or a re-encode under a different codec
// version — fingerprints differently, and the surgical store
// invalidation re-keys exactly the design points that replay it.
func SpecFromTrace(r *trace.Reader) (Spec, error) {
	meta := r.TraceMeta()
	if meta.FootprintPages == 0 {
		return Spec{}, fmt.Errorf("workloads: trace metadata missing footprint_pages")
	}
	name := "trace:" + meta.Workload
	if err := validateName(name); err != nil {
		return Spec{}, err
	}
	return Spec{
		Name:           name,
		Suite:          "trace",
		FootprintPages: meta.FootprintPages,
		WriteRatio:     meta.WriteRatio,
		Trace:          r,
	}, nil
}
