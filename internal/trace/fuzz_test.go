package trace

import (
	"bytes"
	"crypto/sha256"
	"reflect"
	"testing"
)

// FuzzDecodeTrace feeds arbitrary bytes to both decode entry points.
// With reseal set, the mutated body gets a fresh sha256 trailer first,
// the way a crafted file's author would seal it, so mutations get past
// the whole-file checksum and reach the structure parser. Neither
// NewReader nor DecodeTrace may panic, they must agree on whether the
// file is valid, and a file that decodes must re-encode (as v2) and
// decode back to the same meta and records.
func FuzzDecodeTrace(f *testing.F) {
	v2, err := EncodeTrace(sampleTrace())
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range [][]byte{goldenV1(f), v2} {
		f.Add(seed, false)
		f.Add(seed, true)
	}
	f.Fuzz(func(t *testing.T, data []byte, resealed bool) {
		if resealed && len(data) >= sha256.Size {
			data = reseal(append([]byte(nil), data...))
		}
		_, rerr := NewReader(bytes.NewReader(data), int64(len(data)))
		dec, err := DecodeTrace(data)
		if (rerr == nil) != (err == nil) {
			t.Fatalf("NewReader err=%v but DecodeTrace err=%v", rerr, err)
		}
		if err != nil {
			return
		}
		re, err := EncodeTrace(dec)
		if err != nil {
			t.Fatalf("a decoded trace does not re-encode: %v", err)
		}
		back, err := DecodeTrace(re)
		if err != nil {
			t.Fatalf("the v2 re-encoding does not decode: %v", err)
		}
		if !reflect.DeepEqual(back.Meta, dec.Meta) || !reflect.DeepEqual(back.Threads, dec.Threads) {
			t.Fatal("the v2 re-encoding decodes to different meta or records")
		}
	})
}
