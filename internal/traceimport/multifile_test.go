package traceimport

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"skybyte/internal/trace"
)

// writeCPUSet lays out a per-CPU champsim trace set in a fresh dir and
// returns the dir. Files get deliberately unsorted names to check the
// importer orders them.
func writeCPUSet(t *testing.T, names ...string) string {
	t.Helper()
	dir := t.TempDir()
	for _, n := range names {
		if err := WriteFixture("champsim", filepath.Join(dir, n)); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestImportEncodedDirectoryPerCPU imports a directory of per-CPU
// champsim traces and checks each file became its own thread stream.
func TestImportEncodedDirectoryPerCPU(t *testing.T) {
	dir := writeCPUSet(t, "cpu2.champsimtrace", "cpu0.champsimtrace", "cpu1.champsimtrace")
	enc, err := ImportEncoded("champsim", dir)
	if err != nil {
		t.Fatal(err)
	}
	if enc.Threads != 3 {
		t.Fatalf("imported %d threads, want 3 (one per file)", enc.Threads)
	}
	src, err := trace.NewReader(bytes.NewReader(enc.Data), int64(len(enc.Data)))
	if err != nil {
		t.Fatal(err)
	}
	if n := src.NumThreads(); n != 3 {
		t.Fatalf("container holds %d threads, want 3", n)
	}
	o := enc.Meta.Origin
	if o == nil || !strings.Contains(o.Source, "3 files") {
		t.Fatalf("origin source %+v does not name the file count", o)
	}
	if o.Format != "champsim" || o.Converter != ConverterVersion {
		t.Fatalf("origin provenance wrong: %+v", o)
	}
}

// TestImportEncodedGlobDeterministic imports the same set via glob
// twice and checks byte identity, then renames a file and checks the
// provenance digest changes (thread order is part of identity).
func TestImportEncodedGlobDeterministic(t *testing.T) {
	dir := writeCPUSet(t, "cpu0.champsimtrace", "cpu1.champsimtrace")
	glob := filepath.Join(dir, "*.champsimtrace")
	a, err := ImportEncoded("champsim", glob)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ImportEncoded("champsim", glob)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Data, b.Data) {
		t.Fatal("same glob imported different bytes")
	}
	if err := os.Rename(filepath.Join(dir, "cpu1.champsimtrace"), filepath.Join(dir, "cpu9.champsimtrace")); err != nil {
		t.Fatal(err)
	}
	c, err := ImportEncoded("champsim", glob)
	if err != nil {
		t.Fatal(err)
	}
	if a.Meta.Origin.SourceDigest == c.Meta.Origin.SourceDigest {
		t.Fatal("renaming a source file left the provenance digest unchanged")
	}
}

// TestImportDirectoryAndGlobAgree: a directory and a glob over the
// same files are one trace set, so they must encode the same bytes,
// named after the directory.
func TestImportDirectoryAndGlobAgree(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cpuset")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, n := range []string{"cpu0.champsimtrace", "cpu1.champsimtrace"} {
		if err := WriteFixture("champsim", filepath.Join(dir, n)); err != nil {
			t.Fatal(err)
		}
	}
	byDir, err := ImportEncoded("champsim", dir)
	if err != nil {
		t.Fatal(err)
	}
	byGlob, err := ImportEncoded("champsim", filepath.Join(dir, "*.champsimtrace"))
	if err != nil {
		t.Fatal(err)
	}
	if byDir.Meta.Workload != "champsim:cpuset" || byGlob.Meta.Workload != byDir.Meta.Workload {
		t.Fatalf("set names: directory %q, glob %q; want both champsim:cpuset", byDir.Meta.Workload, byGlob.Meta.Workload)
	}
	if !bytes.Equal(byDir.Data, byGlob.Data) {
		t.Fatalf("directory and glob imports differ: sources %q vs %q", byDir.Meta.Origin.Source, byGlob.Meta.Origin.Source)
	}
}

// TestImportMultiFileChampsimOnly: the per-CPU convention is
// champsim's; other formats must refuse a multi-file path.
func TestImportMultiFileChampsimOnly(t *testing.T) {
	dir := t.TempDir()
	for _, n := range []string{"a.damon", "b.damon"} {
		if err := WriteFixture("damon", filepath.Join(dir, n)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ImportEncoded("damon", dir); err == nil {
		t.Fatal("damon accepted a multi-file directory import")
	}
}

// TestImportSingleFileUnchanged: a one-file import through the
// expansion path must keep the original single-file meta (name, plain
// source digest) so existing .trc identities survive.
func TestImportSingleFileUnchanged(t *testing.T) {
	src := fixtureFile(t, "champsim")
	direct, err := ImportEncoded("champsim", src)
	if err != nil {
		t.Fatal(err)
	}
	if direct.Threads != 1 {
		t.Fatalf("single file imported %d threads, want 1", direct.Threads)
	}
	if strings.Contains(direct.Meta.Origin.Source, "files") {
		t.Fatalf("single-file origin %q took the multi-file shape", direct.Meta.Origin.Source)
	}
}

// TestDetectFormat covers the bare-path spec forms: recognized
// extensions (with and without .gz), and the loud failure listing the
// valid set for anything else.
func TestDetectFormat(t *testing.T) {
	for path, want := range map[string]string{
		"dir/cpu0.champsimtrace":    "champsim",
		"dir/cpu0.champsimtrace.gz": "champsim",
		"x.champsim":                "champsim",
		"mon.damon":                 "damon",
		"log.cachegrind":            "cachegrind",
		"log.cg":                    "cachegrind",
	} {
		got, err := DetectFormat(path)
		if err != nil || got != want {
			t.Fatalf("DetectFormat(%q) = %q, %v; want %q", path, got, err, want)
		}
	}
	_, err := DetectFormat("trace.out")
	if err == nil {
		t.Fatal("DetectFormat accepted an unrecognized extension")
	}
	msg := err.Error()
	if !strings.Contains(msg, "cachegrind") || !strings.Contains(msg, "champsim") || !strings.Contains(msg, "damon") {
		t.Fatalf("detection error does not list the valid formats: %s", msg)
	}
}

// TestParseSpecBarePath: a spec without a format prefix resolves by
// extension; an unrecognized extension fails with the valid set
// (never a silent fallback), and an unknown explicit prefix still
// fails with the format list.
func TestParseSpecBarePath(t *testing.T) {
	f, p, err := ParseSpec("traces/cpu0.champsimtrace")
	if err != nil || f != "champsim" || p != "traces/cpu0.champsimtrace" {
		t.Fatalf("bare path parsed to %q, %q, %v", f, p, err)
	}
	if _, _, err := ParseSpec("mystery.bin"); err == nil || !strings.Contains(err.Error(), "cachegrind") {
		t.Fatalf("unrecognized extension did not fail with the format set: %v", err)
	}
	if _, _, err := ParseSpec("pin:trace.out"); err == nil || !strings.Contains(err.Error(), "valid:") {
		t.Fatalf("unknown format prefix did not fail with the format list: %v", err)
	}
	// A glob spec parses as a champsim path by extension.
	f, p, err = ParseSpec("traces/*.champsimtrace")
	if err != nil || f != "champsim" || p != "traces/*.champsimtrace" {
		t.Fatalf("glob path parsed to %q, %q, %v", f, p, err)
	}
}
