package traceimport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"skybyte/internal/trace"
)

// TestImportEncodedMatchesMaterialized: the streaming import path must
// produce the exact bytes of collecting the converter's records and
// batch-encoding them — every digest-derived identity (spec keys,
// result-store keys) depends on the encoding being independent of how
// the records reached the encoder.
func TestImportEncodedMatchesMaterialized(t *testing.T) {
	for _, format := range Formats() {
		src := fixtureFile(t, format)
		var recs []trace.Record
		meta, err := importStream(format, src, func(r trace.Record) error {
			recs = append(recs, r)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		want, err := trace.EncodeTrace(&trace.Trace{Meta: meta, Threads: [][]trace.Record{recs}})
		if err != nil {
			t.Fatal(err)
		}
		enc, err := ImportEncoded(format, src)
		if err != nil {
			t.Fatalf("%s: %v", format, err)
		}
		if !bytes.Equal(enc.Data, want) {
			t.Fatalf("%s: streaming import produced different bytes than materialize+encode", format)
		}
		if enc.Threads != 1 || enc.Records != uint64(len(recs)) {
			t.Fatalf("%s: streamed %d threads / %d records, materialized 1 / %d",
				format, enc.Threads, enc.Records, len(recs))
		}
		if !reflect.DeepEqual(enc.Meta, meta) {
			t.Fatalf("%s: meta diverged: %+v vs %+v", format, enc.Meta, meta)
		}
	}
}

// bigChampSimSource writes a ChampSim trace of n instructions: every
// third instruction is compute-only, the rest issue one load or store
// over a small hot working set, so the source is large but the
// converted records compress well.
func bigChampSimSource(t *testing.T, n int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "big.champsim")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := bufio.NewWriterSize(f, 1<<20)
	var rec [champSimRecordBytes]byte
	const heap = 0x5600_0000_0000
	for i := 0; i < n; i++ {
		for j := range rec {
			rec[j] = 0
		}
		binary.LittleEndian.PutUint64(rec[0:], 0x401000+uint64(i%64))
		switch i % 3 {
		case 0: // compute only
		case 1:
			binary.LittleEndian.PutUint64(rec[32:], heap+uint64(i%4096)*64)
		default:
			binary.LittleEndian.PutUint64(rec[16:], heap+uint64(i%4096)*64)
		}
		if _, err := w.Write(rec[:]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestStreamingImportBoundedMemory is the acceptance check for the
// streaming import path's reason to exist: converting a >=1M-record
// external source must hold live heap near the compressed output
// size, not materialize the record stream (the ROADMAP carry-over this
// path closes). The sink samples the heap as the converter runs —
// the peak is what a real import of a much larger file would scale
// from.
func TestStreamingImportBoundedMemory(t *testing.T) {
	const nInstr = 1_200_000
	src := bigChampSimSource(t, nInstr)

	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	baseline := ms.HeapAlloc

	enc := trace.NewStreamEncoder()
	enc.BeginThread()
	var n uint64
	var peak uint64
	meta, err := importStream("champsim", src, func(r trace.Record) error {
		n++
		if n%200_000 == 0 {
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > peak {
				peak = ms.HeapAlloc
			}
		}
		return enc.Append(r)
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := enc.Finish(meta)
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > peak {
		peak = ms.HeapAlloc
	}
	if n < 1_000_000 {
		t.Fatalf("converted %d records; the acceptance bar is >= 1M", n)
	}
	// Live-heap bound: a materialized import holds >=16 B/record
	// (~18 MiB here) before encoding even starts; the streaming path
	// must stay within the compressed output plus fixed scratch.
	materializedBytes := n * 16
	const headroom = 8 << 20
	if peak > baseline+headroom {
		t.Fatalf("streaming import grew the live heap by %d bytes (baseline %d, peak %d); bound is %d",
			peak-baseline, baseline, peak, headroom)
	}
	if peak-baseline >= materializedBytes/2 {
		t.Fatalf("streaming import held %d bytes, not meaningfully below the %d a materialized import needs",
			peak-baseline, materializedBytes)
	}
	// The product must still be a whole, replayable trace.
	r, err := trace.NewReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if r.NumRecords() != n {
		t.Fatalf("encoded trace carries %d records, streamed %d", r.NumRecords(), n)
	}
}
