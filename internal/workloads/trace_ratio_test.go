package workloads

import (
	"encoding/binary"
	"math"
	"testing"

	"skybyte/internal/trace"
)

// flatWireSize is the size of tr's records in the flat layout v1 used:
// an 8-byte record count per thread, then each record's wire encoding
// (a kind byte plus one uvarint) back to back. It is the baseline the
// v2 compression ratio is measured against.
func flatWireSize(tr *trace.Trace) int {
	var buf [binary.MaxVarintLen64]byte
	n := 0
	for _, recs := range tr.Threads {
		n += 8
		for _, r := range recs {
			v := uint64(r.Addr)
			if r.Kind == trace.Compute {
				v = uint64(r.N)
			}
			n += 1 + binary.PutUvarint(buf[:], v)
		}
	}
	return n
}

// TestV2CompressionRatioOnBuiltins is the container's acceptance bar:
// recordings of every built-in workload must compress to at most half
// of their flat wire size under the v2 block-deflate layout (measured
// ratios sit near a third; WORKLOADS.md reports them).
func TestV2CompressionRatioOnBuiltins(t *testing.T) {
	for _, w := range Table1() {
		tr := &trace.Trace{Meta: trace.Meta{
			Workload: w.Name, Seed: 1, FootprintPages: w.FootprintPages, WriteRatio: w.WriteRatio,
		}}
		tr.Threads = append(tr.Threads, trace.RecordStream(w.Stream(0, 1), 20000))
		flat := flatWireSize(tr)
		v2, err := trace.EncodeTrace(tr)
		if err != nil {
			t.Fatal(err)
		}
		ratio := float64(len(v2)) / float64(flat)
		t.Logf("%-10s flat=%7d bytes  v2=%7d bytes  ratio=%.1f%%", w.Name, flat, len(v2), 100*ratio)
		if math.IsNaN(ratio) || ratio > 0.5 {
			t.Errorf("%s: v2 is %.1f%% of the flat layout (%d / %d bytes); the bar is <= 50%%",
				w.Name, 100*ratio, len(v2), flat)
		}
	}
}
