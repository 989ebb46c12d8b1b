package trace

import (
	"strings"
	"testing"

	"skybyte/internal/mem"
)

// pinnedTrace builds a fixed three-thread trace (uneven lengths, one
// empty stream) whose encodings were pinned before the encoder became
// streaming — so these digests witness that the rewrite changed no
// bytes.
func pinnedTrace() *Trace {
	tr := &Trace{Meta: Meta{Workload: "gold", Seed: 7, FootprintPages: 64}}
	rng := NewRNG(42)
	for th := 0; th < 3; th++ {
		var recs []Record
		n := 60000 + th*13
		if th == 2 {
			n = 0 // empty thread stream
		}
		for i := 0; i < n; i++ {
			switch rng.Intn(3) {
			case 0:
				recs = append(recs, Record{Kind: Compute, N: uint32(1 + rng.Intn(100))})
			case 1:
				recs = append(recs, Record{Kind: Load, Addr: mem.Addr(0x100000000 + 64*rng.Uint64n(1<<20))})
			default:
				recs = append(recs, Record{Kind: Store, Addr: mem.Addr(0x100000000 + 64*rng.Uint64n(1<<20))})
			}
		}
		tr.Threads = append(tr.Threads, recs)
	}
	return tr
}

// TestEncodeGoldenDigests pins the encoded bytes across encoder
// rewrites. The digest depends on compress/flate's output for the
// pinned toolchain (WORKLOADS.md documents the caveat) — a Go version
// bump that changes deflate output legitimately moves it, and the fix
// is to re-pin alongside re-recording any checked-in traces.
func TestEncodeGoldenDigests(t *testing.T) {
	const want = "v2:ff1dec41e2b8f83e09a11b857b1bdb858f4e1d1d2556227ce85de17f93979772"
	data, err := EncodeTrace(pinnedTrace())
	if err != nil {
		t.Fatal(err)
	}
	if got := TraceDigest(data); got != want {
		t.Errorf("encoding drifted: digest %s, pinned %s", got, want)
	}
}

// TestStreamEncoderMatchesBatch: feeding records one at a time through
// the streaming API yields the same bytes as the batch entry point
// (which drives the same encoder, but via its own thread loop).
func TestStreamEncoderMatchesBatch(t *testing.T) {
	tr := pinnedTrace()
	want, err := EncodeTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	e := NewStreamEncoder()
	for _, recs := range tr.Threads {
		e.BeginThread()
		for _, r := range recs {
			if err := e.Append(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	if e.Threads() != 3 || e.Records() != uint64(tr.Records()) {
		t.Fatalf("encoder tracked %d threads / %d records", e.Threads(), e.Records())
	}
	got, err := e.Finish(tr.Meta)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatal("streamed bytes differ from batch encode")
	}
	// Finish knows every part's size, so the file is one exact-size
	// allocation rather than a doubling buffer's over-capacity tail.
	if cap(got) != len(got) {
		t.Fatalf("Finish returned %d bytes in a %d-byte allocation", len(got), cap(got))
	}
	// Round trip: the streamed file decodes to the original records.
	back, err := DecodeTrace(got)
	if err != nil {
		t.Fatal(err)
	}
	if back.Records() != tr.Records() || len(back.Threads) != len(tr.Threads) {
		t.Fatal("round trip lost records")
	}
}

// TestStreamEncoderMisuse: the failure modes are loud errors, not
// corrupt files.
func TestStreamEncoderMisuse(t *testing.T) {
	e := NewStreamEncoder()
	if err := e.Append(Record{Kind: Load, Addr: 64}); err == nil {
		t.Fatal("Append before BeginThread succeeded")
	}
	if _, err := e.Finish(Meta{}); err == nil {
		t.Fatal("poisoned encoder finished cleanly")
	}

	e = NewStreamEncoder()
	if _, err := e.Finish(Meta{}); err == nil || !strings.Contains(err.Error(), "no thread streams") {
		t.Fatalf("zero-thread Finish: %v", err)
	}

	e = NewStreamEncoder()
	e.BeginThread()
	if err := e.Append(Record{Kind: Kind(99)}); err == nil {
		t.Fatal("unknown record kind accepted")
	}

	e = NewStreamEncoder()
	e.BeginThread()
	if err := e.Append(Record{Kind: Compute, N: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Finish(Meta{Workload: "x", FootprintPages: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Finish(Meta{}); err == nil {
		t.Fatal("second Finish succeeded")
	}
	if err := e.Append(Record{Kind: Compute, N: 1}); err == nil {
		t.Fatal("Append after Finish succeeded")
	}
}
