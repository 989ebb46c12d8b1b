package system_test

import (
	"bytes"
	"testing"

	"skybyte/internal/system"
)

// FuzzDecodeResult feeds arbitrary bytes to the Result codec, seeded
// with the encoded Result of one TestResultGolden design point.
// DecodeResult must never panic, and a Result it accepts must re-encode
// to a fixed point: decoding and encoding the encoding changes nothing.
func FuzzDecodeResult(f *testing.F) {
	enc, err := system.EncodeResult(runGolden(f, goldenPoints[0]))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(enc)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"Variant":"x","ReadLat":{}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := system.DecodeResult(data)
		if err != nil {
			return
		}
		once, err := system.EncodeResult(r)
		if err != nil {
			t.Fatalf("a decoded Result does not encode: %v", err)
		}
		again, err := system.DecodeResult(once)
		if err != nil {
			t.Fatalf("the re-encoding does not decode: %v", err)
		}
		twice, err := system.EncodeResult(again)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once, twice) {
			t.Fatalf("re-encoding is not a fixed point:\nonce:  %.300s\ntwice: %.300s", once, twice)
		}
	})
}
