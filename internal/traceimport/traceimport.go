// Package traceimport converts externally produced traces into the
// simulator's .trc container, so published recordings drive SkyByte's
// evaluation directly instead of only our own generator recordings
// (ROADMAP "real trace importers"; the paper itself replays
// PIN-captured traces). Three formats are supported:
//
//   - champsim — ChampSim's binary instruction trace (64-byte records;
//     plain or gzip-compressed); a directory or glob of per-CPU trace
//     files imports as one multi-thread trace, one real stream per
//     core file;
//   - damon — DAMON/damo "raw" monitoring dumps (text region
//     snapshots with access counts);
//   - cachegrind — cachegrind/lackey-style address logs (text lines
//     "I addr,size" / " L addr,size" / " S addr,size" / " M addr,size").
//
// Every importer normalizes into the same record vocabulary the
// generators emit, rebasing source addresses into the CXL arena with a
// dense first-seen page remap (normalizer) so footprints fit the
// scaled machine while page locality and reuse survive. The produced
// trace carries an Origin meta block — format, source file name,
// source sha256, converter revision — so provenance rides inside the
// file, is covered by its digest, and folds into spec keys
// (DESIGN.md §2.1): importing a different source re-keys exactly the
// design points that replay it.
//
// Imports are deterministic: the same source file always converts to
// the same .trc bytes, so re-importing is reproducible and the
// resulting workload replays bit-identically at any parallelism.
package traceimport

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"skybyte/internal/mem"
	"skybyte/internal/trace"
)

// ConverterVersion names the behaviour of the importers. Bump it when
// any importer's emitted records change for the same source bytes: it
// rides in Origin.Converter, so the change is visible in trace meta
// and in every digest derived from an imported file.
const ConverterVersion = "traceimport/v1"

// converters maps format name to its parser. A parser reads the whole
// source and pushes normalized records through the emitter one at a
// time (thread 0 only for all current formats — replay wraps threads
// modulo the recorded count, so any simulated thread count still feeds
// every thread). Streaming instead of returning a slice keeps importer
// memory independent of source size: ImportEncoded's sink encodes each
// record straight into trace blocks.
var converters = map[string]func(r io.Reader, n *normalizer, e *emitter) error{
	"champsim":   importChampSim,
	"damon":      importDAMON,
	"cachegrind": importCachegrind,
}

// Formats lists the supported external formats, sorted.
func Formats() []string {
	out := make([]string, 0, len(converters))
	for f := range converters {
		out = append(out, f)
	}
	sort.Strings(out)
	return out
}

// extFormats maps recognized source-file extensions to their format,
// for specs that give a bare path instead of "<format>:<path>".
var extFormats = map[string]string{
	".champsimtrace": "champsim",
	".champsim":      "champsim",
	".damon":         "damon",
	".cachegrind":    "cachegrind",
	".cg":            "cachegrind",
}

// DetectFormat infers the import format from the path's extension
// (a trailing ".gz" is transparent — the ChampSim reader decompresses
// it). An unrecognized extension is an error listing the valid set:
// guessing a format from ambiguous bytes would silently misparse, so
// detection never falls back to a default.
func DetectFormat(path string) (string, error) {
	base := filepath.Base(path)
	ext := filepath.Ext(base)
	if ext == ".gz" {
		ext = filepath.Ext(strings.TrimSuffix(base, ext))
	}
	if f, ok := extFormats[strings.ToLower(ext)]; ok {
		return f, nil
	}
	exts := make([]string, 0, len(extFormats))
	for e := range extFormats {
		exts = append(exts, e)
	}
	sort.Strings(exts)
	return "", fmt.Errorf("traceimport: cannot infer a format from %q (recognized extensions: %s); say it explicitly as <format>:<path>, formats: %s",
		base, strings.Join(exts, ", "), strings.Join(Formats(), ", "))
}

// ParseSpec resolves a CLI import spec: either "<format>:<path>"
// (e.g. "champsim:traces/600.perlbench.trace"), rejecting unknown
// formats with the valid list, or a bare path whose format is inferred
// from its extension (DetectFormat — loud failure on unrecognized
// extensions, never a silent default).
func ParseSpec(spec string) (format, path string, err error) {
	if format, path, ok := strings.Cut(spec, ":"); ok && path != "" {
		if _, known := converters[format]; known {
			return format, path, nil
		}
		if !strings.ContainsAny(format, "./*?[") {
			// Looks like a format prefix, just not a supported one —
			// e.g. a typo, or "pin:trace.out". A path-with-colon (or a
			// glob) falls through to extension detection instead.
			return "", "", fmt.Errorf("traceimport: unknown format %q (valid: %s)", format, strings.Join(Formats(), ", "))
		}
	}
	format, err = DetectFormat(spec)
	if err != nil {
		return "", "", err
	}
	return format, spec, nil
}

// passStats is what one converter pass over one source file observed:
// the record mix, the emitted count, and the source digest.
type passStats struct {
	loads, stores uint64
	records       uint64
	digest        string // sha256 of the source file, hex
}

// importOne runs one converter pass over one source file, pushing
// every normalized record into sink as it is parsed. The normalizer is
// the caller's: a multi-file import shares one, so pages common to
// several per-CPU traces rebase to the same arena page.
func importOne(format, path string, norm *normalizer, sink func(trace.Record) error) (passStats, error) {
	conv, ok := converters[format]
	if !ok {
		return passStats{}, fmt.Errorf("traceimport: unknown format %q (valid: %s)", format, strings.Join(Formats(), ", "))
	}
	f, err := os.Open(path)
	if err != nil {
		return passStats{}, fmt.Errorf("traceimport: %w", err)
	}
	defer f.Close()
	// Hash the source as the parser consumes it: the digest in Origin
	// is of the exact bytes that produced the records.
	h := sha256.New()
	var st passStats
	e := &emitter{sink: func(r trace.Record) error {
		switch r.Kind {
		case trace.Load, trace.LoadDep:
			st.loads++
		case trace.Store:
			st.stores++
		}
		return sink(r)
	}}
	if err := conv(io.TeeReader(f, h), norm, e); err != nil {
		return passStats{}, fmt.Errorf("traceimport: %s: %s: %w", format, path, err)
	}
	// Drain whatever the parser did not consume (e.g. nothing, for the
	// text formats) so the digest always covers the whole file.
	if _, err := io.Copy(h, f); err != nil {
		return passStats{}, fmt.Errorf("traceimport: %s: %w", path, err)
	}
	if e.count == 0 {
		return passStats{}, fmt.Errorf("traceimport: %s: %s holds no convertible records", format, path)
	}
	st.records = e.count
	st.digest = hex.EncodeToString(h.Sum(nil))
	return st, nil
}

// importStream runs one single-file converter pass and returns the
// trace meta assembled from what the pass observed (footprint, write
// ratio, source digest). The caller chooses what the sink does with
// the records; importStream itself holds none of them.
func importStream(format, path string, sink func(trace.Record) error) (trace.Meta, error) {
	norm := newNormalizer()
	st, err := importOne(format, path, norm, sink)
	if err != nil {
		return trace.Meta{}, err
	}
	return trace.Meta{
		Workload:       format + ":" + sanitizeName(filepath.Base(path)),
		FootprintPages: norm.footprintPages(),
		WriteRatio:     st.writeRatio(),
		Origin: &trace.Origin{
			Format:       format,
			Source:       filepath.Base(path),
			SourceDigest: st.digest,
			Converter:    ConverterVersion,
		},
	}, nil
}

func (st *passStats) writeRatio() float64 {
	if st.loads+st.stores == 0 {
		return 0
	}
	return float64(st.stores) / float64(st.loads+st.stores)
}

// Encoded is a finished streaming import: the canonical .trc bytes
// plus the meta and record count the pass discovered.
type Encoded struct {
	// Data is the encoded trace container.
	Data []byte
	// Meta is the trace meta that rides in Data (provenance included).
	Meta trace.Meta
	// Threads and Records describe the converted stream.
	Threads int
	Records uint64
}

// expandSources resolves an import path that may name a set of files:
// a glob pattern (any of * ? [) or a directory expands to its regular
// files, sorted by name; a plain file is itself. ChampSim publishes
// per-CPU trace sets as one file per core, and sorted-name order is
// the cpu0..cpuN convention those sets use.
func expandSources(path string) ([]string, error) {
	if isGlob(path) {
		matches, err := filepath.Glob(path)
		if err != nil {
			return nil, fmt.Errorf("traceimport: bad glob %q: %w", path, err)
		}
		if len(matches) == 0 {
			return nil, fmt.Errorf("traceimport: glob %q matches no files", path)
		}
		sort.Strings(matches)
		return matches, nil
	}
	info, err := os.Stat(path)
	if err != nil {
		return nil, fmt.Errorf("traceimport: %w", err)
	}
	if !info.IsDir() {
		return []string{path}, nil
	}
	entries, err := os.ReadDir(path)
	if err != nil {
		return nil, fmt.Errorf("traceimport: %w", err)
	}
	var files []string
	for _, e := range entries {
		if e.Type().IsRegular() {
			files = append(files, filepath.Join(path, e.Name()))
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("traceimport: directory %q holds no files", path)
	}
	sort.Strings(files)
	return files, nil
}

func isGlob(path string) bool { return strings.ContainsAny(path, "*?[") }

// ImportEncoded converts the external trace at path directly into
// encoded .trc bytes, streaming each record into the block writer as
// it is parsed. Peak heap tracks the encoded output size (a few bytes
// per record) plus one raw block — not the 16 B/record of a
// materialized conversion — so multi-gigabyte published traces import
// without a matching memory budget.
//
// For champsim, path may be a directory or a glob of per-CPU trace
// files: each file (sorted by name, the cpu0..cpuN convention) becomes
// one real thread stream, sharing a single address normalizer so pages
// common to several cores rebase to the same arena page. The other
// formats carry no per-CPU convention and stay single-file.
func ImportEncoded(format, path string) (*Encoded, error) {
	files, err := expandSources(path)
	if err != nil {
		return nil, err
	}
	if len(files) > 1 && format != "champsim" {
		return nil, fmt.Errorf("traceimport: %s: %q names %d files; per-CPU multi-file sets are a champsim convention (other formats take one file)",
			format, path, len(files))
	}
	enc := trace.NewStreamEncoder()
	var meta trace.Meta
	if len(files) == 1 {
		enc.BeginThread() // single-source converters emit one thread-0 stream
		meta, err = importStream(format, files[0], enc.Append)
		if err != nil {
			return nil, err
		}
	} else {
		// Multi-file: one thread per file, one shared normalizer, and a
		// combined digest folding every per-file digest in thread order
		// — any edited, added, removed, or reordered source file changes
		// the provenance and re-keys the design points replaying it.
		// The set is named after the directory its files sit in, so a
		// directory import and a glob over it seal the same meta.
		set := path
		if isGlob(path) {
			set = filepath.Dir(path)
		}
		set = filepath.Base(set)
		norm := newNormalizer()
		var agg passStats
		comb := sha256.New()
		for _, f := range files {
			enc.BeginThread()
			st, err := importOne(format, f, norm, enc.Append)
			if err != nil {
				return nil, err
			}
			agg.loads += st.loads
			agg.stores += st.stores
			fmt.Fprintf(comb, "%s %s\n", st.digest, filepath.Base(f))
		}
		meta = trace.Meta{
			Workload:       format + ":" + sanitizeName(set),
			FootprintPages: norm.footprintPages(),
			WriteRatio:     agg.writeRatio(),
			Origin: &trace.Origin{
				Format:       format,
				Source:       fmt.Sprintf("%s (%d files)", set, len(files)),
				SourceDigest: hex.EncodeToString(comb.Sum(nil)),
				Converter:    ConverterVersion,
			},
		}
	}
	data, err := enc.Finish(meta)
	if err != nil {
		return nil, err
	}
	return &Encoded{Data: data, Meta: meta, Threads: enc.Threads(), Records: enc.Records()}, nil
}

// sanitizeName maps a source file name onto the workload-name alphabet
// (letters, digits, '-', '_', '.', ':'), so "trace:<format>:<name>"
// always validates.
func sanitizeName(base string) string {
	var b strings.Builder
	for _, r := range base {
		ok := r == '-' || r == '_' || r == '.' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (r >= '0' && r <= '9')
		if ok {
			b.WriteRune(r)
		} else {
			b.WriteByte('-')
		}
	}
	if b.Len() == 0 {
		return "import"
	}
	return b.String()
}

// normalizer rebases external addresses into the CXL arena: each
// distinct source page maps to the next dense page index in
// first-seen order, and offsets within a page are kept line-aligned.
// First-seen order preserves adjacency for sequential sweeps and
// reuse for hot pages, while footprints shrink to the pages actually
// touched — external traces routinely spread over sparse tens-of-GB
// address spaces the scaled machine cannot (and need not) back.
type normalizer struct {
	pages map[uint64]uint64
	next  uint64
}

func newNormalizer() *normalizer {
	return &normalizer{pages: make(map[uint64]uint64)}
}

// addr maps one source byte address into the arena.
func (n *normalizer) addr(raw uint64) mem.Addr {
	page := raw / mem.PageBytes
	idx, ok := n.pages[page]
	if !ok {
		idx = n.next
		n.next++
		n.pages[page] = idx
	}
	off := (raw % mem.PageBytes) &^ (mem.LineBytes - 1)
	return mem.CXLBase + mem.Addr(idx*mem.PageBytes+off)
}

// footprintPages returns the touched-page count (>= 1, so the arena is
// never empty).
func (n *normalizer) footprintPages() uint64 {
	if n.next == 0 {
		return 1
	}
	return n.next
}

// emitter batches compute instructions between memory records — the
// same compaction the generators use: runs of non-memory instructions
// become one Compute record — and streams each finished record into
// its sink immediately, so a converter never holds more than the
// pending compute count. The first sink error sticks; later emits are
// dropped and finish reports it.
type emitter struct {
	sink    func(trace.Record) error
	count   uint64 // records successfully emitted
	pending uint64 // accumulated compute instructions
	err     error
}

func (e *emitter) emit(r trace.Record) {
	if e.err != nil {
		return
	}
	if err := e.sink(r); err != nil {
		e.err = err
		return
	}
	e.count++
}

func (e *emitter) compute(n uint64) { e.pending += n }

func (e *emitter) flush() {
	for e.pending > 0 && e.err == nil {
		n := e.pending
		if n > 1<<30 {
			n = 1 << 30
		}
		e.emit(trace.Record{Kind: trace.Compute, N: uint32(n)})
		e.pending -= n
	}
}

func (e *emitter) mem(kind trace.Kind, a mem.Addr) {
	e.flush()
	e.emit(trace.Record{Kind: kind, Addr: a})
}

// finish flushes any trailing compute run and reports how many records
// the pass emitted, plus the first sink error if one occurred.
func (e *emitter) finish() (uint64, error) {
	e.flush()
	return e.count, e.err
}
