package workloads

import (
	"fmt"

	"skybyte/internal/registry"
	"skybyte/internal/trace"
)

// builtinGenVersion names the behaviour of the hand-coded Table I
// generators. Bump it when any generator's emitted stream changes, so
// persistent result stores (which fold RegistryFingerprint into the
// campaign identity) stop serving results produced by the old streams.
const builtinGenVersion = 1

// reg holds the code-defined workloads (Table1 + Extras) and every
// workload registered from Register/RegisterFile at process start-up.
var reg = registry.New(registry.Kind[Spec]{
	Pkg:       "workloads",
	Noun:      "workload",
	Tag:       fmt.Sprintf("skybyte-workloads|trc%d|", trace.CodecVersion),
	Builtins:  func() []Spec { return append(Table1(), Extras()...) },
	Name:      func(s Spec) string { return s.Name },
	SourceID:  Spec.SourceID,
	Validate:  validateSpec,
	Normalize: normalizeSpec,
	Replaced:  closeReplaced,
})

// validateSpec vets a spec for registration: it must carry a generator
// (a definition or a trace) and a valid name, and a definition must
// validate. Registration is the chokepoint: stream compilation assumes
// a vetted definition with defaults filled (an invalid one would fail
// mid-campaign — a zero region panics, a zero-Lines op emits nothing
// and spins).
func validateSpec(s Spec) error {
	if err := validateName(s.Name); err != nil {
		return err
	}
	if s.Def == nil && s.Trace == nil {
		return fmt.Errorf("workloads: %q has no generator (expected a definition or a trace)", s.Name)
	}
	if s.FootprintPages == 0 {
		return fmt.Errorf("workloads: %q has a zero footprint", s.Name)
	}
	if s.Def != nil {
		return s.Def.Validate()
	}
	return nil
}

// normalizeSpec fills a definition's defaults (specs built via
// Def.Spec() have already paid this once).
func normalizeSpec(s Spec) Spec {
	if s.Def != nil {
		n := s.Def.normalized()
		s.Def = &n
	}
	return s
}

// closeReplaced releases a displaced trace workload's streaming reader,
// which may hold an open file handle, so the file-editing loop
// (re-register after every edit) does not leak a descriptor per
// iteration. Sound under the registration contract: specs are
// registered before runners and harnesses resolve them, so nothing
// replays the displaced spec's streams afterwards.
func closeReplaced(old, s Spec) {
	if old.Trace != nil && old.Trace != s.Trace {
		old.Trace.Close()
	}
}

// Register adds a workload to the registry, making it resolvable by
// name everywhere a built-in is — ByName, campaign Options.Workloads,
// the CLIs' -workload flags. Built-in names are reserved; registering
// an already-registered name replaces the previous definition (the
// editing loop for workload files), so register before building the
// harnesses and runners that will resolve it.
func Register(s Spec) error { return reg.Register(s) }

// RegisterFile loads a workload from path (FromFile) and registers it,
// so campaigns and CLIs can select it by name like a built-in. It
// returns the registered spec.
func RegisterFile(path string) (Spec, error) { return reg.RegisterFile(path, FromFile) }

// Names returns every resolvable workload name: Table I in paper
// order, then the extra built-in scenarios, then registered workloads
// in registration order. This is the listing unknown-name errors
// print, so file- and registry-loaded workloads show up next to the
// built-in seven.
func Names() []string { return reg.Names() }

// ByName resolves any known workload — built-in, extra, or registered.
func ByName(name string) (Spec, error) { return reg.ByName(name) }

// SourceID returns the stable identity of the spec's generator — the
// input that, together with (thread, seed), fully determines the
// stream:
//
//   - hand-coded built-ins: the generator version plus the Table I
//     parameters the stream derives from;
//   - declarative workloads: the definition's content fingerprint
//     (format version + canonical JSON digest);
//   - trace-backed workloads: the trace codec version plus the file's
//     content digest.
//
// RegistryFingerprint folds the SourceIDs of every known workload into
// one digest; campaigns put that digest in Config.WorkloadDigest, so a
// persistent result store can never serve a result produced under a
// different workload definition, an edited file, a re-recorded trace,
// or an older codec.
func (s Spec) SourceID() string {
	switch {
	case s.native != nil:
		return fmt.Sprintf("builtin:v%d:%s|fp=%d|wr=%g|mpki=%g", builtinGenVersion, s.Name, s.FootprintPages, s.WriteRatio, s.PaperMPKI)
	case s.Def != nil:
		return "def:" + s.Def.Fingerprint()
	case s.Trace != nil:
		return "trace:" + s.Trace.Digest()
	}
	return "none:" + s.Name
}

// RegistryFingerprint digests the full resolvable workload set — every
// name mapped to its SourceID, sorted — plus the trace codec version.
// Identical registrations on different machines produce identical
// fingerprints; any changed definition changes it.
func RegistryFingerprint() string { return reg.Fingerprint() }
