package workloads

import (
	"encoding/json"
	"os"
	"testing"

	"skybyte/internal/registry"
)

// FuzzDefJSON feeds arbitrary bytes to the strict definition decoder.
// Whatever decodes and validates must have a fixed-point identity: its
// marshalled normalised form re-decodes, re-validates and carries the
// same Fingerprint.
func FuzzDefJSON(f *testing.F) {
	example, err := os.ReadFile("../../examples/customworkload/workload.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(example)
	for _, s := range Extras() {
		b, err := json.Marshal(s.Def)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := registry.Decode[Def](data)
		if err != nil || d.Validate() != nil {
			return
		}
		b, err := json.Marshal(d.normalized())
		if err != nil {
			t.Fatalf("normalised definition does not marshal: %v", err)
		}
		n, err := registry.Decode[Def](b)
		if err != nil {
			t.Fatalf("normalised definition does not re-decode: %v\n%s", err, b)
		}
		if err := n.Validate(); err != nil {
			t.Fatalf("normalised definition does not re-validate: %v\n%s", err, b)
		}
		if n.Fingerprint() != d.Fingerprint() {
			t.Fatalf("fingerprint is not a fixed point of normalisation\n%s", b)
		}
	})
}
