package traceimport

import (
	"os"
	"path/filepath"
	"testing"

	"skybyte/internal/trace"
)

// FuzzImport runs every importer over arbitrary source bytes, seeded
// from the synthetic fixtures. ImportEncoded must not panic, and a
// successful import must be a whole trace: its container decodes and
// carries exactly the record count the import reported.
func FuzzImport(f *testing.F) {
	formats := Formats()
	for i, format := range formats {
		path := filepath.Join(f.TempDir(), "src."+format)
		if err := WriteFixture(format, path); err != nil {
			f.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(i), data)
	}
	f.Fuzz(func(t *testing.T, fi uint8, data []byte) {
		format := formats[int(fi)%len(formats)]
		path := filepath.Join(t.TempDir(), "src."+format)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		enc, err := ImportEncoded(format, path)
		if err != nil {
			return
		}
		dec, err := trace.DecodeTrace(enc.Data)
		if err != nil {
			t.Fatalf("%s: imported container does not decode: %v", format, err)
		}
		if n := uint64(dec.Records()); n != enc.Records {
			t.Fatalf("%s: container holds %d records, import reported %d", format, n, enc.Records)
		}
	})
}
