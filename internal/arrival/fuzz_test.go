package arrival

import (
	"encoding/json"
	"os"
	"testing"

	"skybyte/internal/registry"
)

// FuzzSpecJSON feeds arbitrary bytes to the strict arrival-spec
// decoder. Whatever decodes and validates must have a fixed-point
// identity: its marshalled normalised form re-decodes, re-validates
// and carries the same Fingerprint.
func FuzzSpecJSON(f *testing.F) {
	example, err := os.ReadFile("../../examples/openloop/spec.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(example)
	for _, sp := range Builtins() {
		b, err := json.Marshal(sp)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sp, err := registry.Decode[Spec](data)
		if err != nil || sp.Validate() != nil {
			return
		}
		b, err := json.Marshal(sp.normalized())
		if err != nil {
			t.Fatalf("normalised spec does not marshal: %v", err)
		}
		n, err := registry.Decode[Spec](b)
		if err != nil {
			t.Fatalf("normalised spec does not re-decode: %v\n%s", err, b)
		}
		if err := n.Validate(); err != nil {
			t.Fatalf("normalised spec does not re-validate: %v\n%s", err, b)
		}
		if n.Fingerprint() != sp.Fingerprint() {
			t.Fatalf("fingerprint is not a fixed point of normalisation\n%s", b)
		}
	})
}
