package workloads

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"skybyte/internal/trace"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden.json from the current generators")

// goldenRecords formats the first n records of one stream compactly.
func goldenRecords(s Spec, thread int, seed uint64, n int) []string {
	st := s.Stream(thread, seed)
	out := make([]string, 0, n)
	for len(out) < n {
		r, ok := st.Next()
		if !ok {
			break
		}
		if r.Kind == trace.Compute {
			out = append(out, fmt.Sprintf("compute %d", r.N))
		} else {
			out = append(out, fmt.Sprintf("%s %#x", r.Kind, uint64(r.Addr)))
		}
	}
	return out
}

// TestGoldenStreams pins the exact head of every built-in workload's
// stream for two (thread, seed) pairs. Any change to a generator — a
// reordered emit, a new RNG draw, a retuned constant — trips this test
// and forces a deliberate golden update plus a builtinGenVersion bump,
// because persistent result stores key on the streams staying
// bit-identical (DESIGN.md §2.1, §3).
func TestGoldenStreams(t *testing.T) {
	const n = 32
	cells := []struct {
		thread int
		seed   uint64
	}{{0, 1}, {3, 7}}
	got := map[string][]string{}
	for _, s := range reg.Builtins() {
		for _, c := range cells {
			key := fmt.Sprintf("%s/t%d/s%d", s.Name, c.thread, c.seed)
			got[key] = goldenRecords(s, c.thread, c.seed, n)
		}
	}
	path := filepath.Join("testdata", "golden.json")
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d streams) — bump builtinGenVersion if a stream changed", path, len(got))
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to create it)", err)
	}
	var want map[string][]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden file has %d streams, generators produce %d (run -update-golden after a deliberate change)", len(want), len(got))
	}
	for key, wrecs := range want {
		grecs, ok := got[key]
		if !ok {
			t.Errorf("%s: in golden file but no longer generated", key)
			continue
		}
		for i := range wrecs {
			if i >= len(grecs) || grecs[i] != wrecs[i] {
				g := "<missing>"
				if i < len(grecs) {
					g = grecs[i]
				}
				t.Errorf("%s: record %d = %q, golden %q (a stream changed; if deliberate, bump builtinGenVersion and -update-golden)", key, i, g, wrecs[i])
				break
			}
		}
	}
}
