package tenant

import (
	"encoding/json"
	"os"
	"testing"

	"skybyte/internal/registry"
)

// FuzzMixJSON feeds arbitrary bytes to the strict mix decoder.
// Whatever decodes and validates must have a fixed-point identity: its
// marshalled normalised form re-decodes, re-validates and carries the
// same Fingerprint.
func FuzzMixJSON(f *testing.F) {
	example, err := os.ReadFile("../../examples/multitenant/mix.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(example)
	for _, m := range Builtins() {
		b, err := json.Marshal(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := registry.Decode[Mix](data)
		if err != nil || m.Validate() != nil {
			return
		}
		b, err := json.Marshal(m.normalized())
		if err != nil {
			t.Fatalf("normalised mix does not marshal: %v", err)
		}
		n, err := registry.Decode[Mix](b)
		if err != nil {
			t.Fatalf("normalised mix does not re-decode: %v\n%s", err, b)
		}
		if err := n.Validate(); err != nil {
			t.Fatalf("normalised mix does not re-validate: %v\n%s", err, b)
		}
		if n.Fingerprint() != m.Fingerprint() {
			t.Fatalf("fingerprint is not a fixed point of normalisation\n%s", b)
		}
	})
}
