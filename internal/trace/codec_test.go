package trace

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"skybyte/internal/mem"
)

func sampleTrace() *Trace {
	rng := NewRNG(99)
	mk := func(n int) []Record {
		recs := make([]Record, 0, n)
		for i := 0; i < n; i++ {
			switch i % 4 {
			case 0:
				recs = append(recs, Record{Kind: Compute, N: uint32(1 + rng.Intn(200))})
			case 1:
				recs = append(recs, Record{Kind: Load, Addr: mem.CXLBase + mem.Addr(rng.Uint64n(1<<27))})
			case 2:
				recs = append(recs, Record{Kind: LoadDep, Addr: mem.CXLBase + mem.Addr(rng.Uint64n(1<<27))})
			default:
				recs = append(recs, Record{Kind: Store, Addr: mem.CXLBase + mem.Addr(rng.Uint64n(1<<27))})
			}
		}
		return recs
	}
	return &Trace{
		Meta:    Meta{Workload: "ycsb", Seed: 7, FootprintPages: 38 * 1024, WriteRatio: 0.05, InstrPerThread: 16000},
		Threads: [][]Record{mk(500), mk(321), mk(44)},
	}
}

// goldenV1 returns the checked-in v1 fixture — the only source of v1
// bytes, since nothing writes that layout any more.
func goldenV1(t testing.TB) []byte {
	t.Helper()
	data, err := os.ReadFile("testdata/golden-v1.trc")
	if err != nil {
		t.Fatalf("golden fixture missing: %v", err)
	}
	return data
}

// reseal recomputes data's sha256 trailer in place, the way a crafted
// file's author would seal their own bytes.
func reseal(data []byte) []byte {
	sum := sha256.Sum256(data[:len(data)-sha256.Size])
	copy(data[len(data)-sha256.Size:], sum[:])
	return data
}

func TestTraceRoundTripByteIdentity(t *testing.T) {
	tr := sampleTrace()
	a, err := EncodeTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeTrace(a)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dec.Meta, tr.Meta) {
		t.Fatalf("meta changed across round trip: %+v vs %+v", dec.Meta, tr.Meta)
	}
	if !reflect.DeepEqual(dec.Threads, tr.Threads) {
		t.Fatal("records changed across round trip")
	}
	b, err := EncodeTrace(dec)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("re-encoding a decoded trace is not byte-identical")
	}
	if want := fmt.Sprintf("v%d:", CodecVersion); !strings.HasPrefix(TraceDigest(a), want) {
		t.Fatalf("digest %q does not carry the file's own version prefix %q", TraceDigest(a), want)
	}
	// A v1 file's digest carries its own version, so re-encoding it
	// (always to v2) is a different identity for the same records.
	if d := TraceDigest(goldenV1(t)); !strings.HasPrefix(d, "v1:") {
		t.Fatalf("v1 fixture digest %q lacks the v1 prefix", d)
	}
}

// TestCrossVersionDecodeIdentical: the v1 fixture and its v2
// re-encoding decode to the same trace, and v2 is the smaller file.
func TestCrossVersionDecodeIdentical(t *testing.T) {
	v1 := goldenV1(t)
	d1, err := DecodeTrace(v1)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := EncodeTrace(d1)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := DecodeTrace(v2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d1, d2) {
		t.Fatal("the same trace decodes differently through v1 and v2")
	}
	if len(v2) >= len(v1) {
		t.Fatalf("v2 (%d bytes) is not smaller than v1 (%d bytes)", len(v2), len(v1))
	}
}

func TestTraceReplayStream(t *testing.T) {
	tr := sampleTrace()
	for thread := 0; thread < 5; thread++ {
		st := tr.Stream(thread)
		want := tr.Threads[thread%len(tr.Threads)]
		for i, w := range want {
			got, ok := st.Next()
			if !ok {
				t.Fatalf("thread %d: stream ended at %d of %d", thread, i, len(want))
			}
			if got != w {
				t.Fatalf("thread %d: record %d replayed as %+v, recorded %+v", thread, i, got, w)
			}
		}
		if _, ok := st.Next(); ok {
			t.Fatalf("thread %d: stream continued past the recorded records", thread)
		}
	}
}

func TestTraceDecodeRejectsDamage(t *testing.T) {
	v2, err := EncodeTrace(sampleTrace())
	if err != nil {
		t.Fatal(err)
	}
	for version, good := range map[int][]byte{1: goldenV1(t), 2: v2} {
		cases := []struct {
			name    string
			mutate  func([]byte) []byte
			errPart string
		}{
			{"bad magic", func(b []byte) []byte { b[0] ^= 0xFF; return b }, "bad magic"},
			{"truncated", func(b []byte) []byte { return b[:len(b)-9] }, ""},
			{"tiny", func(b []byte) []byte { return b[:12] }, ""},
			{"flipped byte", func(b []byte) []byte { b[len(b)/2] ^= 1; return b }, ""},
			{"flipped checksum", func(b []byte) []byte { b[len(b)-1] ^= 1; return b }, "checksum"},
		}
		for _, tc := range cases {
			data := tc.mutate(append([]byte(nil), good...))
			_, err := DecodeTrace(data)
			if err == nil {
				t.Fatalf("v%d %s: damaged trace decoded without error", version, tc.name)
			}
			if tc.errPart != "" && !strings.Contains(err.Error(), tc.errPart) {
				t.Errorf("v%d %s: error %q does not mention %q", version, tc.name, err, tc.errPart)
			}
		}
	}
}

func TestTraceDecodeRejectsFutureVersion(t *testing.T) {
	good, err := EncodeTrace(sampleTrace())
	if err != nil {
		t.Fatal(err)
	}
	// Bump the version field and re-seal the checksum, simulating a file
	// from a newer build: the decoder must refuse with a clear error
	// rather than guess at the layout.
	data := append([]byte(nil), good...)
	data[8] = CodecVersion + 7
	_, err = DecodeTrace(reseal(data))
	if err == nil || !strings.Contains(err.Error(), "codec version") {
		t.Fatalf("future-version trace decoded, err=%v", err)
	}
}

func TestDecodeRejectsHugeDeclaredCount(t *testing.T) {
	// A crafted file may declare an absurd record count over a valid
	// checksum (the author seals their own bytes): decoding must fail
	// with a truncation error, not attempt a matching allocation. The
	// attack targets v1's flat per-thread count field; patch the last
	// thread's, so the records it over-claims run off the file's end.
	data := goldenV1(t)
	want := goldenTrace()
	off := 8 + 4 + 4 + int(binary.LittleEndian.Uint32(data[12:])) + 4
	for _, recs := range want.Threads[:len(want.Threads)-1] {
		off += 8
		for _, r := range recs {
			enc, err := appendRecord(nil, r)
			if err != nil {
				t.Fatal(err)
			}
			off += len(enc)
		}
	}
	if got := binary.LittleEndian.Uint64(data[off:]); got != uint64(len(want.Threads[len(want.Threads)-1])) {
		t.Fatalf("located count field reads %d, not the last thread's record count", got)
	}
	binary.LittleEndian.PutUint64(data[off:], 1<<50)
	_, err := DecodeTrace(reseal(data))
	if err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("huge-count trace decoded, err=%v", err)
	}
}

func TestRecordStreamCuts(t *testing.T) {
	src := &SliceStream{Recs: []Record{
		{Kind: Compute, N: 10}, {Kind: Load, Addr: mem.CXLBase}, {Kind: Store, Addr: mem.CXLBase + 64},
	}}
	recs := RecordStream(src, 2)
	if len(recs) != 2 || recs[0].Kind != Compute || recs[1].Kind != Load {
		t.Fatalf("RecordStream cut wrong: %+v", recs)
	}
	recs = RecordStream(src, 100)
	if len(recs) != 1 || recs[0].Kind != Store {
		t.Fatalf("RecordStream did not drain the remainder: %+v", recs)
	}
}

func TestEncodeTraceRejectsEmpty(t *testing.T) {
	if _, err := EncodeTrace(&Trace{}); err == nil {
		t.Fatal("empty trace encoded")
	}
}
