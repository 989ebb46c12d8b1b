package system_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"skybyte/internal/osched"
	"skybyte/internal/runner"
	"skybyte/internal/system"
	"skybyte/internal/workloads"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/result_golden.json from the current model")

const goldenFile = "testdata/result_golden.json"

// goldenPoint is one small design point whose encoded Result is pinned.
// Each fires a mechanism whose parameters are fixed constants of the
// model, and fired names the count that proves it ran.
type goldenPoint struct {
	name     string
	workload string
	variant  system.Variant
	policy   osched.PolicyKind // "" keeps ScaledConfig's
	instr    uint64            // per thread
	fired    map[string]func(*system.Result) uint64
}

var goldenPoints = []goldenPoint{
	{name: "bfs-dense/SkyByte-Full", workload: "bfs-dense", variant: system.SkyByteFull, instr: 16000,
		fired: map[string]func(*system.Result) uint64{
			"compactions":         func(r *system.Result) uint64 { return r.Compaction.Count },
			"adaptive promotions": func(r *system.Result) uint64 { return r.Migration.Promotions },
		}},
	{name: "tpcc/SkyByte-CT", workload: "tpcc", variant: system.SkyByteCT, instr: 48000,
		fired: map[string]func(*system.Result) uint64{
			"TPP promotions": func(r *system.Result) uint64 { return r.Migration.Promotions },
		}},
	{name: "ycsb/AstriFlash-CXL", workload: "ycsb", variant: system.AstriFlashCXL, instr: 16000,
		fired: map[string]func(*system.Result) uint64{
			"AstriFlash demote writes": func(r *system.Result) uint64 { return r.Traffic.DemoteWrites },
		}},
	{name: "bc/SkyByte-Full/RANDOM", workload: "bc", variant: system.SkyByteFull, policy: osched.PolicyRandom, instr: 16000,
		fired: map[string]func(*system.Result) uint64{
			"context switches":    func(r *system.Result) uint64 { return r.CtxSwitches },
			"adaptive promotions": func(r *system.Result) uint64 { return r.Migration.Promotions },
		}},
}

// runGolden simulates p the way skybyte-sim does at its defaults (seed
// 1, the variant's paper thread count) but without the runner, so the
// Result carries no cache key and its bytes depend on the model alone.
func runGolden(t testing.TB, p goldenPoint) *system.Result {
	t.Helper()
	w, err := workloads.ByName(p.workload)
	if err != nil {
		t.Fatal(err)
	}
	cfg := system.ScaledConfig().WithVariant(p.variant)
	if p.policy != "" {
		cfg.Policy = p.policy
	}
	sys := system.New(cfg)
	for i := 0; i < runner.ThreadsFor(cfg); i++ {
		sys.AddThread(w.Stream(i, 1), p.instr)
	}
	return sys.Run()
}

// TestResultGolden pins the encoded Result of a few small design points.
// The store addresses entries by system.ResultVersion, not by the
// model's code, so any change to what the model measures must bump the
// version or warm stores would serve stale results.
func TestResultGolden(t *testing.T) {
	got := map[string]string{}
	for _, p := range goldenPoints {
		r := runGolden(t, p)
		for what, count := range p.fired {
			n := count(r)
			t.Logf("%s: %d %s", p.name, n, what)
			if n == 0 {
				t.Errorf("%s: no %s; the point no longer exercises that mechanism", p.name, what)
			}
		}
		enc, err := system.EncodeResult(r)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(enc)
		got[p.name] = hex.EncodeToString(sum[:])
	}
	if *updateGolden {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFile, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to create it)", err)
	}
	var want map[string]string
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden file pins %d points, the test runs %d (run -update-golden after changing the point list)", len(want), len(got))
	}
	for _, p := range goldenPoints {
		if got[p.name] != want[p.name] {
			t.Errorf("%s: Result sha256 %s, golden %s. The model's output changed: bump system.ResultVersion (codec.go) so stores re-simulate, then run -update-golden",
				p.name, got[p.name], want[p.name])
		}
	}
}
