package trace

import (
	"bytes"
	"compress/flate"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"skybyte/internal/mem"
)

// writeTemp writes data to a fresh file under t.TempDir.
func writeTemp(t *testing.T, name string, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// drain pulls every record out of a stream.
func drain(st Stream) []Record {
	var recs []Record
	for {
		r, ok := st.Next()
		if !ok {
			return recs
		}
		recs = append(recs, r)
	}
}

func TestStreamingReaderMatchesDecode(t *testing.T) {
	v2, err := EncodeTrace(sampleTrace())
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		version int
		data    []byte
		tr      *Trace
	}{
		{1, goldenV1(t), goldenTrace()},
		{2, v2, sampleTrace()},
	}
	for _, tc := range cases {
		version, data, tr := tc.version, tc.data, tc.tr
		r, err := OpenFile(writeTemp(t, "s.trc", data))
		if err != nil {
			t.Fatalf("v%d: %v", version, err)
		}
		if !reflect.DeepEqual(r.TraceMeta(), tr.Meta) {
			t.Fatalf("v%d: meta %+v, want %+v", version, r.TraceMeta(), tr.Meta)
		}
		if r.NumThreads() != len(tr.Threads) {
			t.Fatalf("v%d: NumThreads = %d, want %d", version, r.NumThreads(), len(tr.Threads))
		}
		if r.NumRecords() != uint64(tr.Records()) {
			t.Fatalf("v%d: NumRecords = %d, want %d", version, r.NumRecords(), tr.Records())
		}
		if r.Digest() != TraceDigest(data) {
			t.Fatalf("v%d: streamed digest %q != TraceDigest %q", version, r.Digest(), TraceDigest(data))
		}
		// Streams replay the recorded records exactly, wrap modulo the
		// thread count, and are repeatable.
		for thread := 0; thread < len(tr.Threads)+2; thread++ {
			want := tr.Threads[thread%len(tr.Threads)]
			if got := drain(r.Stream(thread)); !reflect.DeepEqual(got, want) {
				t.Fatalf("v%d: thread %d replayed %d records, want %d (or differing content)",
					version, thread, len(got), len(want))
			}
		}
		mat, err := r.Materialize()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(mat.Threads, tr.Threads) || !reflect.DeepEqual(mat.Meta, tr.Meta) {
			t.Fatalf("v%d: Materialize diverged from the source trace", version)
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// goldenTrace regenerates the records internal/trace/testdata/golden-v1.trc
// was recorded from (the fixture was written by the v1 encoder before the
// v2 container existed; this generator is its in-code twin).
func goldenTrace() *Trace {
	rng := NewRNG(4242)
	mk := func(n int) []Record {
		recs := make([]Record, 0, n)
		for i := 0; i < n; i++ {
			switch i % 5 {
			case 0:
				recs = append(recs, Record{Kind: Compute, N: uint32(1 + rng.Intn(240))})
			case 1, 2:
				recs = append(recs, Record{Kind: Load, Addr: mem.CXLBase + mem.Addr(rng.Uint64n(1<<28))&^63})
			case 3:
				recs = append(recs, Record{Kind: LoadDep, Addr: mem.CXLBase + mem.Addr(rng.Uint64n(1<<28))&^63})
			default:
				recs = append(recs, Record{Kind: Store, Addr: mem.CXLBase + mem.Addr(rng.Uint64n(1<<28))&^63})
			}
		}
		return recs
	}
	return &Trace{
		Meta:    Meta{Workload: "golden", Seed: 42, FootprintPages: 1024, WriteRatio: 0.2, InstrPerThread: 5000},
		Threads: [][]Record{mk(700), mk(333), mk(128)},
	}
}

// TestGoldenV1Compat pins v1 compatibility to a checked-in fixture: a
// file recorded under the original flat codec must keep decoding —
// materialized and streamed — to the exact records and digest, forever.
func TestGoldenV1Compat(t *testing.T) {
	const fixture = "testdata/golden-v1.trc"
	const wantDigest = "v1:baec21cbf76d4cfe5fe4ecc998dbd008871ac601fac379471bd8fd14b7be74fe"
	data := goldenV1(t)
	if got := TraceDigest(data); got != wantDigest {
		t.Fatalf("fixture digest %q, want %q (the checked-in file changed)", got, wantDigest)
	}
	want := goldenTrace()
	dec, err := DecodeTrace(data)
	if err != nil {
		t.Fatalf("DecodeTrace on the v1 fixture: %v", err)
	}
	if !reflect.DeepEqual(dec.Meta, want.Meta) || !reflect.DeepEqual(dec.Threads, want.Threads) {
		t.Fatal("materializing decode of the v1 fixture diverged from the recorded streams")
	}
	r, err := OpenFile(fixture)
	if err != nil {
		t.Fatalf("streaming open of the v1 fixture: %v", err)
	}
	defer r.Close()
	if r.Digest() != wantDigest {
		t.Fatalf("streamed digest %q, want %q", r.Digest(), wantDigest)
	}
	for ti := range want.Threads {
		if got := drain(r.Stream(ti)); !reflect.DeepEqual(got, want.Threads[ti]) {
			t.Fatalf("thread %d streams differently through the streaming reader", ti)
		}
	}
	// And the fixture's records survive a v2 re-encode bit-exactly.
	re, err := EncodeTrace(dec)
	if err != nil {
		t.Fatal(err)
	}
	dec2, err := DecodeTrace(re)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dec2.Threads, want.Threads) {
		t.Fatal("v1 records changed across a v2 re-encode")
	}
}

// multiBlockTrace builds a single-thread trace large enough to span
// several v2 blocks.
func multiBlockTrace() *Trace {
	rng := NewRNG(7)
	recs := make([]Record, 0, 40000)
	for i := 0; i < 40000; i++ {
		switch i % 3 {
		case 0:
			recs = append(recs, Record{Kind: Compute, N: uint32(1 + rng.Intn(100))})
		case 1:
			recs = append(recs, Record{Kind: Load, Addr: mem.CXLBase + mem.Addr(rng.Uint64n(1<<30))&^63})
		default:
			recs = append(recs, Record{Kind: Store, Addr: mem.CXLBase + mem.Addr(rng.Uint64n(1<<30))&^63})
		}
	}
	return &Trace{
		Meta:    Meta{Workload: "blocks", Seed: 1, FootprintPages: 1 << 18},
		Threads: [][]Record{recs},
	}
}

// TestV2DamagedBlockFailsAtBlock flips one bit inside a specific
// compressed block: opening must fail naming exactly that block — not
// succeed, not fail at EOF, not report a vague whole-file error.
func TestV2DamagedBlockFailsAtBlock(t *testing.T) {
	data, err := EncodeTrace(multiBlockTrace())
	if err != nil {
		t.Fatal(err)
	}
	clean, err := NewReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if len(clean.blocks[0]) < 3 {
		t.Fatalf("test trace produced only %d blocks; grow it", len(clean.blocks[0]))
	}
	target := clean.blocks[0][2]
	bad := append([]byte(nil), data...)
	bad[target.off+int64(target.compLen)/2] ^= 0x10
	_, err = NewReader(bytes.NewReader(bad), int64(len(bad)))
	if err == nil {
		t.Fatal("a bit-flipped block opened without error")
	}
	if !strings.Contains(err.Error(), "block 2 of thread 0") || !strings.Contains(err.Error(), "damaged") {
		t.Fatalf("error %q does not name the damaged block", err)
	}

	// Truncating inside a block payload is equally loud, and names the
	// break point instead of surfacing as an EOF at the file's end.
	cut := target.off + int64(target.compLen)/2
	_, err = NewReader(bytes.NewReader(data[:cut]), cut)
	if err == nil {
		t.Fatal("a mid-block truncation opened without error")
	}
	if !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("truncation error %q is not explicit", err)
	}

	// Damage outside the sealed blocks (e.g. a length field in a block
	// header) is still caught — by the whole-file trailer if nothing
	// structural trips first.
	bad2 := append([]byte(nil), data...)
	bad2[len(traceMagic)+4] ^= 0x01 // metaLen low byte
	if _, err := NewReader(bytes.NewReader(bad2), int64(len(bad2))); err == nil {
		t.Fatal("header damage opened without error")
	}
}

// TestStreamingReplayBoundedMemory is the acceptance check for the v2
// container's reason to exist: replaying a >=1M-record trace through
// the streaming reader must hold O(block) live heap and O(blocks)
// allocations — not materialize the records.
func TestStreamingReplayBoundedMemory(t *testing.T) {
	const nRecords = 1_200_000
	rng := NewRNG(11)
	recs := make([]Record, 0, nRecords)
	for i := 0; i < nRecords; i++ {
		switch i % 3 {
		case 0:
			recs = append(recs, Record{Kind: Compute, N: uint32(1 + rng.Intn(120))})
		case 1:
			recs = append(recs, Record{Kind: Load, Addr: mem.CXLBase + mem.Addr(rng.Uint64n(1<<31))&^63})
		default:
			recs = append(recs, Record{Kind: Store, Addr: mem.CXLBase + mem.Addr(rng.Uint64n(1<<31))&^63})
		}
	}
	tr := &Trace{Meta: Meta{Workload: "big", Seed: 1, FootprintPages: 1 << 19}, Threads: [][]Record{recs}}
	materializedBytes := uint64(len(recs)) * uint64(16) // 16 B/record in memory
	data, err := EncodeTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	path := writeTemp(t, "big.trc", data)
	// Drop the encode-side allocations before baselining.
	tr, recs = nil, nil
	data = nil
	runtime.GC()

	r, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.NumRecords() < 1_000_000 {
		t.Fatalf("trace carries %d records; the acceptance bar is >= 1M", r.NumRecords())
	}
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	baseline := ms.HeapAlloc
	baseMallocs := ms.Mallocs

	st := r.Stream(0)
	var n uint64
	var peak uint64
	for {
		rec, ok := st.Next()
		if !ok {
			break
		}
		_ = rec
		n++
		if n%200_000 == 0 {
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > peak {
				peak = ms.HeapAlloc
			}
		}
	}
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > peak {
		peak = ms.HeapAlloc
	}
	if n != r.NumRecords() {
		t.Fatalf("streamed %d of %d records", n, r.NumRecords())
	}
	// Live-heap bound: a materializing replay holds >=16 B/record
	// (~18 MiB here); the streaming reader must stay within a few
	// blocks of the baseline regardless of record count.
	const headroom = 6 << 20
	if peak > baseline+headroom {
		t.Fatalf("streamed replay grew the live heap by %d bytes (baseline %d, peak %d); bound is %d",
			peak-baseline, baseline, peak, headroom)
	}
	if peak-baseline >= materializedBytes/2 {
		t.Fatalf("streamed replay held %d bytes, not meaningfully below the %d a materialized replay needs",
			peak-baseline, materializedBytes)
	}
	// Allocation-count bound: O(blocks), not O(records). The file spans
	// ~130 blocks; give 100x slack — still three orders of magnitude
	// under one-alloc-per-record.
	allocs := ms.Mallocs - baseMallocs
	if allocs > 20_000 {
		t.Fatalf("streamed replay performed %d allocations for %d records; want O(blocks)", allocs, n)
	}
}

// craftV2 builds a one-thread v2 file around a single block whose
// payload is raw, deflate-compressed and crc-sealed correctly, under
// whatever record count and sizes the header declares (declComp 0
// declares the true compressed length). The sha256 trailer is valid:
// the author of a crafted file seals their own bytes.
func craftV2(raw []byte, declCount, declRaw, declComp uint64) []byte {
	var b bytes.Buffer
	b.Write(traceMagic[:])
	var u32 [4]byte
	put32 := func(v uint32) {
		binary.LittleEndian.PutUint32(u32[:], v)
		b.Write(u32[:])
	}
	meta, _ := json.Marshal(Meta{Workload: "x", FootprintPages: 1})
	put32(2)
	put32(uint32(len(meta)))
	b.Write(meta)
	put32(1) // one thread
	var u64 [8]byte
	binary.LittleEndian.PutUint64(u64[:], declCount)
	b.Write(u64[:])
	var comp bytes.Buffer
	fw, _ := flate.NewWriter(&comp, flate.DefaultCompression)
	fw.Write(raw)
	fw.Close()
	if declComp == 0 {
		declComp = uint64(comp.Len())
	}
	var varBuf [binary.MaxVarintLen64]byte
	putUv := func(v uint64) { b.Write(varBuf[:binary.PutUvarint(varBuf[:], v)]) }
	putUv(1) // thread 0
	putUv(declCount)
	putUv(declRaw)
	putUv(declComp)
	binary.LittleEndian.PutUint32(u32[:], crc32.Checksum(comp.Bytes(), crcTable))
	b.Write(u32[:])
	b.Write(comp.Bytes())
	putUv(0)
	sum := sha256.Sum256(b.Bytes())
	b.Write(sum[:])
	return b.Bytes()
}

// TestV2RejectsOverflowingBlockHeader: block headers are untrusted
// input — sizes near 2^63 must fail validation as loud errors, not
// wrap an arithmetic check and surface later as an allocation panic.
func TestV2RejectsOverflowingBlockHeader(t *testing.T) {
	cases := []struct {
		name                         string
		declCount, declRaw, declComp uint64
	}{
		{"count near 2^63", 1 << 63, 2, 1 << 62}, // count*2 would wrap to 0
		{"compLen near 2^63", 1, 2, 1 << 63},     // int64(compLen) would go negative
		{"rawLen near 2^63", 1, 1 << 63, 10},
	}
	for _, tc := range cases {
		// One real compute record under whatever sizes the header declares.
		data := craftV2([]byte{byte(Compute), 2}, tc.declCount, tc.declRaw, tc.declComp)
		r, err := NewReader(bytes.NewReader(data), int64(len(data)))
		if err == nil {
			// Belt and braces: even if the scan were loosened, decode
			// paths must not panic.
			if _, merr := r.Materialize(); merr == nil {
				t.Fatalf("%s: crafted file decoded without error", tc.name)
			}
			continue
		}
		if !strings.Contains(err.Error(), "impossible sizes") && !strings.Contains(err.Error(), "truncated") {
			t.Errorf("%s: error %q is not the named validation failure", tc.name, err)
		}
	}
}

// TestV2MalformedBlockContentFailsAtOpen: a block whose seals are all
// valid but whose inflated content is malformed must fail at open,
// naming the block — not open cleanly and panic partway through a
// replay.
func TestV2MalformedBlockContentFailsAtOpen(t *testing.T) {
	const c = byte(Compute)
	cases := []struct {
		name          string
		raw           []byte
		count, rawLen uint64
		errPart       string
	}{
		{"unknown record kind", []byte{9, 2}, 1, 2, "unknown record kind 9"},
		{"records beyond the declared count", []byte{c, 2, c, 3}, 1, 4, "beyond its declared 1 records"},
		{"fewer records than declared", []byte{c, 0x80, 0x80, 0x01}, 2, 4, "record 1 of 2"},
		{"inflates past the declared length", []byte{c, 2, c, 3}, 1, 2, "does not end at its declared 2 bytes"},
		{"inflates short of the declared length", []byte{c, 2}, 1, 3, "declared 3 bytes"},
	}
	for _, tc := range cases {
		data := craftV2(tc.raw, tc.count, tc.rawLen, 0)
		wantErr := func(how string, err error) {
			t.Helper()
			if err == nil {
				t.Fatalf("%s: %s accepted the crafted file", tc.name, how)
			}
			if !strings.Contains(err.Error(), "block 0 of thread 0") || !strings.Contains(err.Error(), tc.errPart) {
				t.Fatalf("%s: %s error %q does not name the block and %q", tc.name, how, err, tc.errPart)
			}
		}
		_, err := NewReader(bytes.NewReader(data), int64(len(data)))
		wantErr("NewReader", err)
		_, err = OpenFile(writeTemp(t, "crafted.trc", data))
		wantErr("OpenFile", err)
		_, err = DecodeTrace(data)
		wantErr("DecodeTrace", err)
	}
}
