package trace

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"skybyte/internal/mem"
)

// CodecVersion names the on-disk trace layout this build writes. Bump
// it whenever the record encoding or the envelope changes shape or
// meaning: a version beyond it is a decode error (never a silent
// reinterpretation), and the workload registry folds the version into
// every trace-backed workload's source identity, so a bump also
// invalidates persistent result-store entries produced from traces
// under the old layout.
//
// Two layouts exist (WORKLOADS.md documents both):
//
//	v1 — flat: every thread's records stored back to back, fully
//	     materialized on decode. Read-only: re-recording a v1 file
//	     writes v2.
//	v2 — block-compressed: records chunked into per-thread blocks,
//	     each deflate-compressed and crc-sealed, so the streaming
//	     Reader replays with O(block) memory.
const CodecVersion = 2

// traceMagic opens every trace file. Eight bytes so a truncated or
// foreign file is rejected before any length field is trusted.
var traceMagic = [8]byte{'S', 'K', 'Y', 'B', 'T', 'R', 'C', 0}

// Origin records the provenance of an imported trace: the external
// format it was converted from and the identity of the source file.
// The converter (internal/traceimport) fills it; re-recording a replay
// carries it forward, so provenance survives round trips. Because the
// origin rides in the meta JSON, it is covered by the file digest —
// importing a different source file yields a different trace identity
// even if the converted records happened to coincide.
type Origin struct {
	// Format is the external format name ("champsim", "damon",
	// "cachegrind").
	Format string `json:"format"`
	// Source is the base name of the converted file, for humans.
	Source string `json:"source,omitempty"`
	// SourceDigest is the sha256 hex of the source file's bytes: the
	// machine-checkable identity the spec key folds (DESIGN.md §2.1).
	SourceDigest string `json:"source_digest,omitempty"`
	// Converter names the importer revision that produced the records
	// (e.g. "traceimport/v1"), so a converter behaviour change is
	// visible in the meta and in every digest derived from it.
	Converter string `json:"converter,omitempty"`
}

// Meta describes a recorded trace: where it came from and how it was
// cut. It rides in the file as canonical JSON and is covered by the
// trailing digest like everything else.
type Meta struct {
	// Workload is the name of the generator the trace was recorded
	// from (a built-in, a registered definition, or — when a trace is
	// re-recorded through replay — the original generator's name).
	Workload string `json:"workload"`
	// Seed is the workload seed the streams were generated with.
	Seed uint64 `json:"seed"`
	// FootprintPages bounds the arena the recorded addresses fall in.
	FootprintPages uint64 `json:"footprint_pages"`
	// WriteRatio carries the source workload's Table I write ratio for
	// documentation; replay does not depend on it.
	WriteRatio float64 `json:"write_ratio,omitempty"`
	// InstrPerThread is the per-thread instruction budget the streams
	// were cut at (0 when the cut was a record count instead).
	InstrPerThread uint64 `json:"instr_per_thread,omitempty"`
	// Origin, when set, is the external source the trace was imported
	// from (absent for traces recorded from our own generators).
	Origin *Origin `json:"origin,omitempty"`
}

// Trace is a decoded (or to-be-encoded) multi-thread record stream:
// Threads[i] is the complete record sequence of thread i. Replay reads
// files through the streaming *Reader instead; a Trace is for callers
// that need the records as slices.
type Trace struct {
	Meta    Meta
	Threads [][]Record
}

// Stream returns a replay Stream over thread's records (threads wrap
// modulo the recorded count). The returned stream is independent of
// every other: concurrent replays of one Trace are safe.
func (t *Trace) Stream(thread int) Stream {
	return &SliceStream{Recs: t.Threads[thread%len(t.Threads)]}
}

// Records counts the records across all threads.
func (t *Trace) Records() int {
	n := 0
	for _, recs := range t.Threads {
		n += len(recs)
	}
	return n
}

// appendRecord appends one record in the wire encoding shared by both
// codec layouts: a kind byte followed by one uvarint — the
// instruction count for Compute, the byte address for memory ops.
func appendRecord(dst []byte, r Record) ([]byte, error) {
	var varBuf [binary.MaxVarintLen64]byte
	var v uint64
	switch r.Kind {
	case Compute:
		v = uint64(r.N)
	case Load, Store, LoadDep:
		v = uint64(r.Addr)
	default:
		return dst, fmt.Errorf("trace: encode: unknown record kind %d", r.Kind)
	}
	dst = append(dst, byte(r.Kind))
	return append(dst, varBuf[:binary.PutUvarint(varBuf[:], v)]...), nil
}

// decodeRecord decodes one wire-encoded record from buf starting at
// pos, returning the record and the position after it.
func decodeRecord(buf []byte, pos int) (Record, int, error) {
	if pos >= len(buf) {
		return Record{}, pos, fmt.Errorf("trace: truncated record")
	}
	kind := Kind(buf[pos])
	pos++
	v, n := binary.Uvarint(buf[pos:])
	if n <= 0 {
		return Record{}, pos, fmt.Errorf("trace: malformed record value")
	}
	pos += n
	switch kind {
	case Compute:
		if v == 0 || v > 1<<32-1 {
			return Record{}, pos, fmt.Errorf("trace: compute burst of %d instructions", v)
		}
		return Record{Kind: Compute, N: uint32(v)}, pos, nil
	case Load, Store, LoadDep:
		return Record{Kind: kind, Addr: mem.Addr(v)}, pos, nil
	}
	return Record{}, pos, fmt.Errorf("trace: unknown record kind %d", kind)
}

// EncodeTrace serializes t canonically in the current layout
// (CodecVersion). The same Trace always encodes to the same bytes, so
// re-recording a replayed trace reproduces the file bit for bit. This
// is the batch face of StreamEncoder.
func EncodeTrace(t *Trace) ([]byte, error) {
	e := NewStreamEncoder()
	for _, recs := range t.Threads {
		e.BeginThread()
		for _, r := range recs {
			if err := e.Append(r); err != nil {
				return nil, err
			}
		}
	}
	return e.Finish(t.Meta)
}

// IsTrace reports whether data begins with the trace magic — the sniff
// the workload file loader uses to tell a binary trace from a JSON
// workload definition.
func IsTrace(data []byte) bool {
	return len(data) >= len(traceMagic) && bytes.Equal(data[:len(traceMagic)], traceMagic[:])
}

// traceVersion extracts the codec version field from an encoded trace
// (0 if the data is too short to carry one).
func traceVersion(data []byte) uint32 {
	if !IsTrace(data) || len(data) < len(traceMagic)+4 {
		return 0
	}
	return binary.LittleEndian.Uint32(data[len(traceMagic):])
}

// DecodeTrace reverses EncodeTrace, reading either codec version and
// materializing every record. It is NewReader's verification followed
// by Materialize, so every defect is the same distinct, loud error the
// streaming open reports — wrong magic, future codec version,
// truncation, checksum mismatch, or malformed records — never a
// partial Trace: a damaged trace must not replay as a subtly different
// workload. Large files should be opened with OpenFile instead, which
// streams records block by block rather than materializing them.
func DecodeTrace(data []byte) (*Trace, error) {
	r, err := NewReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		return nil, err
	}
	return r.Materialize()
}

// decodeTraceV1 decodes the flat legacy layout, which this build reads
// but never writes.
func decodeTraceV1(data []byte) (*Trace, error) {
	body, sum := data[:len(data)-sha256.Size], data[len(data)-sha256.Size:]
	if got := sha256.Sum256(body); !bytes.Equal(got[:], sum) {
		return nil, fmt.Errorf("trace: corrupt (checksum mismatch; the file was truncated or altered)")
	}
	pos := len(traceMagic) + 4 // past magic + version
	read32 := func() (uint32, error) {
		if pos+4 > len(body) {
			return 0, fmt.Errorf("trace: truncated inside the header")
		}
		v := binary.LittleEndian.Uint32(body[pos:])
		pos += 4
		return v, nil
	}
	metaLen, err := read32()
	if err != nil {
		return nil, err
	}
	if pos+int(metaLen) > len(body) {
		return nil, fmt.Errorf("trace: truncated inside the metadata block")
	}
	t := &Trace{}
	if err := json.Unmarshal(body[pos:pos+int(metaLen)], &t.Meta); err != nil {
		return nil, fmt.Errorf("trace: bad metadata: %w", err)
	}
	pos += int(metaLen)
	threads, err := read32()
	if err != nil {
		return nil, err
	}
	if threads == 0 {
		return nil, fmt.Errorf("trace: no thread streams")
	}
	for ti := uint32(0); ti < threads; ti++ {
		if pos+8 > len(body) {
			return nil, fmt.Errorf("trace: truncated before thread %d's record count", ti)
		}
		count := binary.LittleEndian.Uint64(body[pos:])
		pos += 8
		// Cap the pre-allocation by what the remaining bytes could
		// possibly hold (a record is >= 2 bytes): the declared count is
		// untrusted input, and a crafted file must fail with a
		// truncation error, not an enormous allocation.
		capHint := count
		if max := uint64(len(body)-pos) / 2; capHint > max {
			capHint = max
		}
		recs := make([]Record, 0, capHint)
		for ri := uint64(0); ri < count; ri++ {
			if pos >= len(body) {
				return nil, fmt.Errorf("trace: truncated inside thread %d's records", ti)
			}
			r, next, err := decodeRecord(body, pos)
			if err != nil {
				return nil, fmt.Errorf("trace: record %d of thread %d: %w", ri, ti, err)
			}
			pos = next
			recs = append(recs, r)
		}
		t.Threads = append(t.Threads, recs)
	}
	if pos != len(body) {
		return nil, fmt.Errorf("trace: %d trailing bytes after the last record", len(body)-pos)
	}
	return t, nil
}

// TraceDigest returns the stable content identity of an encoded trace:
// the file's own codec version plus the hex of its sha256. Workload
// registration folds this into a trace-backed workload's source
// identity, so editing or re-recording a trace file — or re-encoding
// it under a different codec version — changes every fingerprint
// derived from it.
func TraceDigest(encoded []byte) string {
	sum := sha256.Sum256(encoded)
	return fmt.Sprintf("v%d:%s", traceVersion(encoded), hex.EncodeToString(sum[:]))
}

// RecordStream drains up to maxRecords records from src into a slice —
// the capture half of record/replay. It stops at stream end; cut the
// stream with Limited first to record an exact instruction budget.
func RecordStream(src Stream, maxRecords int) []Record {
	var recs []Record
	for len(recs) < maxRecords {
		r, ok := src.Next()
		if !ok {
			break
		}
		recs = append(recs, r)
	}
	return recs
}
