package traceimport

import (
	"bytes"
	"compress/gzip"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"skybyte/internal/mem"
	"skybyte/internal/trace"
)

func fixtureFile(t *testing.T, format string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "src."+format)
	if err := WriteFixture(format, path); err != nil {
		t.Fatal(err)
	}
	return path
}

// importTrace converts path through ImportEncoded and decodes the
// container back into records, for tests that inspect the conversion.
func importTrace(format, path string) (*trace.Trace, error) {
	enc, err := ImportEncoded(format, path)
	if err != nil {
		return nil, err
	}
	return trace.DecodeTrace(enc.Data)
}

func kindCounts(tr *trace.Trace) map[trace.Kind]int {
	k := map[trace.Kind]int{}
	for _, recs := range tr.Threads {
		for _, r := range recs {
			k[r.Kind]++
		}
	}
	return k
}

func TestParseSpec(t *testing.T) {
	f, p, err := ParseSpec("champsim:some/dir/trace.bin")
	if err != nil || f != "champsim" || p != "some/dir/trace.bin" {
		t.Fatalf("ParseSpec = %q,%q,%v", f, p, err)
	}
	for _, bad := range []string{"", "champsim", "champsim:", "xz:file", "pintool:x"} {
		if _, _, err := ParseSpec(bad); err == nil {
			t.Errorf("spec %q parsed without error", bad)
		} else if bad != "" && bad != "champsim" && bad != "champsim:" &&
			!strings.Contains(err.Error(), "champsim") {
			t.Errorf("spec %q: error %q does not list the valid formats", bad, err)
		}
	}
}

func TestFormatsListsEveryConverter(t *testing.T) {
	want := []string{"cachegrind", "champsim", "damon"}
	if got := Formats(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Formats() = %v, want %v", got, want)
	}
}

// TestImportEveryFormat runs each importer over its synthetic fixture
// and checks the converted trace's shape: records of the expected
// kinds, addresses inside the normalized arena, full provenance meta.
func TestImportEveryFormat(t *testing.T) {
	for _, format := range Formats() {
		src := fixtureFile(t, format)
		tr, err := importTrace(format, src)
		if err != nil {
			t.Fatalf("%s: %v", format, err)
		}
		if len(tr.Threads) != 1 || len(tr.Threads[0]) == 0 {
			t.Fatalf("%s: imported %d threads (records in thread 0: %d)", format, len(tr.Threads), len(tr.Threads[0]))
		}
		k := kindCounts(tr)
		if k[trace.Load] == 0 {
			t.Errorf("%s: no loads converted", format)
		}
		if k[trace.Compute] == 0 {
			t.Errorf("%s: no compute records converted", format)
		}
		switch format {
		case "champsim", "cachegrind":
			if k[trace.Store] == 0 {
				t.Errorf("%s: no stores converted", format)
			}
			if tr.Meta.WriteRatio <= 0 || tr.Meta.WriteRatio >= 1 {
				t.Errorf("%s: write ratio %v outside (0,1)", format, tr.Meta.WriteRatio)
			}
		case "damon":
			// DAMON dumps carry no read/write attribution: read-only.
			if k[trace.Store] != 0 || tr.Meta.WriteRatio != 0 {
				t.Errorf("damon: synthetic stream has stores (%d) or write ratio %v", k[trace.Store], tr.Meta.WriteRatio)
			}
		}
		if tr.Meta.FootprintPages == 0 {
			t.Errorf("%s: zero footprint", format)
		}
		arenaEnd := mem.CXLBase + mem.Addr(tr.Meta.FootprintPages*mem.PageBytes)
		for _, r := range tr.Threads[0] {
			if r.Kind == trace.Compute {
				continue
			}
			if r.Addr < mem.CXLBase || r.Addr >= arenaEnd {
				t.Fatalf("%s: address %#x outside the normalized arena [%#x, %#x)", format, uint64(r.Addr), uint64(mem.CXLBase), uint64(arenaEnd))
			}
			if r.Addr%mem.LineBytes != 0 {
				t.Fatalf("%s: address %#x is not line-aligned", format, uint64(r.Addr))
			}
		}
		o := tr.Meta.Origin
		if o == nil {
			t.Fatalf("%s: no Origin meta", format)
		}
		if o.Format != format || o.Source != filepath.Base(src) ||
			len(o.SourceDigest) != 64 || o.Converter != ConverterVersion {
			t.Fatalf("%s: incomplete provenance %+v", format, o)
		}
		if !strings.HasPrefix(tr.Meta.Workload, format+":") {
			t.Fatalf("%s: workload named %q", format, tr.Meta.Workload)
		}
	}
}

// TestImportDeterministic is the acceptance bar: importing the same
// source twice yields the same .trc bytes.
func TestImportDeterministic(t *testing.T) {
	for _, format := range Formats() {
		src := fixtureFile(t, format)
		a, err := importTrace(format, src)
		if err != nil {
			t.Fatal(err)
		}
		b, err := importTrace(format, src)
		if err != nil {
			t.Fatal(err)
		}
		ea, err := trace.EncodeTrace(a)
		if err != nil {
			t.Fatal(err)
		}
		eb, err := trace.EncodeTrace(b)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ea, eb) {
			t.Fatalf("%s: re-importing the same source produced different .trc bytes", format)
		}
	}
}

// TestChampSimGzip: a gzip-compressed ChampSim trace imports to the
// identical records as the plain file (the digest differs — it is of
// the bytes on disk — but the streams must match).
func TestChampSimGzip(t *testing.T) {
	plainPath := fixtureFile(t, "champsim")
	plain, err := os.ReadFile(plainPath)
	if err != nil {
		t.Fatal(err)
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(plain)
	zw.Close()
	gzPath := filepath.Join(t.TempDir(), "src.champsim.gz")
	if err := os.WriteFile(gzPath, gz.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	a, err := importTrace("champsim", plainPath)
	if err != nil {
		t.Fatal(err)
	}
	b, err := importTrace("champsim", gzPath)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Threads, b.Threads) {
		t.Fatal("gzip-compressed source converts to different records")
	}
	if a.Meta.Origin.SourceDigest == b.Meta.Origin.SourceDigest {
		t.Fatal("source digest ignores the on-disk bytes")
	}
}

// TestNormalizerPreservesStructure: sequential source pages stay
// sequential, revisited pages resolve to the same arena page, and
// line offsets survive.
func TestNormalizerPreservesStructure(t *testing.T) {
	n := newNormalizer()
	a0 := n.addr(0x7f00_0000_0000)
	a1 := n.addr(0x7f00_0000_1000)
	a2 := n.addr(0x7f00_0000_2040)
	again := n.addr(0x7f00_0000_0040)
	if a0 != mem.CXLBase || a1 != mem.CXLBase+mem.PageBytes || a2 != mem.CXLBase+2*mem.PageBytes+64 {
		t.Fatalf("sequential pages scattered: %#x %#x %#x", uint64(a0), uint64(a1), uint64(a2))
	}
	if again != mem.CXLBase+64 {
		t.Fatalf("revisited page remapped: %#x", uint64(again))
	}
	if n.footprintPages() != 3 {
		t.Fatalf("footprint %d pages, want 3", n.footprintPages())
	}
}

// TestImportRejectsDamage: malformed sources are loud, named errors —
// never empty or silently truncated conversions.
func TestImportRejectsDamage(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, data []byte) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	cases := []struct {
		format, path, errPart string
	}{
		{"champsim", write("trunc.bin", make([]byte, champSimRecordBytes+13)), "truncated"},
		{"champsim", write("empty.bin", nil), "empty"},
		{"damon", write("garbage.txt", []byte("monitoring_start: 0 ns\nnot a region line\n")), "unrecognized"},
		{"damon", write("noregions.txt", []byte("target_id: 1\n")), "no region lines"},
		{"cachegrind", write("badop.log", []byte("I 401000,4\nX 402000,4\n")), "unknown op"},
		{"cachegrind", write("badaddr.log", []byte(" L zzzz,4\n")), "unrecognized"},
	}
	for _, tc := range cases {
		_, err := importTrace(tc.format, tc.path)
		if err == nil {
			t.Errorf("%s %s: malformed source imported without error", tc.format, filepath.Base(tc.path))
			continue
		}
		if !strings.Contains(err.Error(), tc.errPart) {
			t.Errorf("%s %s: error %q does not mention %q", tc.format, filepath.Base(tc.path), err, tc.errPart)
		}
	}
	if _, err := importTrace("champsim", filepath.Join(dir, "missing.bin")); err == nil {
		t.Error("missing source imported without error")
	}
}

// TestFixtureDeterministic: the fixture generators themselves are
// stable — CI regenerates them on every run and compares digests
// across imports.
func TestFixtureDeterministic(t *testing.T) {
	for _, format := range Formats() {
		a := fixtureFile(t, format)
		b := fixtureFile(t, format)
		da, _ := os.ReadFile(a)
		db, _ := os.ReadFile(b)
		if !bytes.Equal(da, db) {
			t.Fatalf("%s fixture generator is not deterministic", format)
		}
		if len(da) == 0 {
			t.Fatalf("%s fixture is empty", format)
		}
	}
	if err := WriteFixture("pin", filepath.Join(t.TempDir(), "x")); err == nil {
		t.Fatal("unknown fixture format accepted")
	}
}
