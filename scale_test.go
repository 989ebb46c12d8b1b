package skybyte_test

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"skybyte"
	"skybyte/internal/experiments"
	"skybyte/internal/runner"
	"skybyte/internal/system"
	"skybyte/internal/tenant"
	"skybyte/internal/trace"
	"skybyte/internal/workloads"
)

// invarianceScale is the larger machine the 1/64 machine is checked
// against: 4x every capacity, every generated footprint and the budget.
const invarianceScale = 16

// invarianceBand is the largest |ln(1/16 value / 1/64 value)| a metric
// may show and still count as scale-invariant: the two machines agree
// within ±25%.
var invarianceBand = math.Log(1.25)

// invarianceVariants are the design points the checked ratios need.
var invarianceVariants = []system.Variant{system.DRAMOnly, system.BaseCSSD, system.SkyByteW, system.SkyByteFull}

// knownScaleDeviations lists the rows outside invarianceBand today, each
// keyed "workload/metric". TestScaleInvariance checks the list both
// ways: an unlisted row out of band fails, and so does a listed row that
// came into band, until it is delisted. Never delete a row to pass.
//
// Every row listed today is a warm-up effect of the default budget, not
// of the scale rule: the 1/16 run executes 4x the instructions per
// thread, and dirty SSD DRAM write-backs have not reached steady state
// within 384k instructions. Run at 1/64 over the same 4x budget, these
// rows land near the 1/16 values.
var knownScaleDeviations = map[string]string{
	"bc/base-prog-pki":     "write-back warm-up: S-W is 10.0% of requests at 1/64, 12.0% at 1/16 and 12.7% at 1/64 over 4x the budget",
	"dlrm/base-prog-pki":   "write-back warm-up: 1/64 programs no page within the budget (S-W 0.1%); over 4x the budget S-W is 25%",
	"dlrm/full/base-exec":  "follows dlrm's write-back warm-up: Base-CSSD at 1/64 pays for no write-back",
	"radix/base-prog-pki":  "write-back warm-up: S-W is 21.6% of requests at 1/64, 29.9% at 1/16 and 32.7% at 1/64 over 4x the budget",
	"radix/base/dram-exec": "follows radix's write-back warm-up",
	"radix/full/base-exec": "follows radix's write-back warm-up",
}

// scaleRow is one checked metric of one workload at both scales.
type scaleRow struct {
	key          string
	small, large float64
}

// TestScaleInvariance checks DESIGN.md §1's claim that capacities and
// footprints scale together: the 1/64 machine at the default budget and
// the 1/16 machine at 4x that budget must agree on the headline ratios
// of every Table I workload — DRAM-Only MPKI, Base-CSSD over DRAM-Only
// and SkyByte-Full over Base-CSSD execution time, and the flash
// programs per kilo-instruction of Base-CSSD and SkyByte-W.
func TestScaleInvariance(t *testing.T) {
	start := time.Now()
	budget := experiments.DefaultOptions().TotalInstr
	names := workloads.Table1Names()
	small := scaleResults(t, system.ConfigAt(system.MaxScale), names, budget)
	large := scaleResults(t, system.ConfigAt(invarianceScale), names, budget*system.MaxScale/invarianceScale)

	var rows []scaleRow
	for _, w := range names {
		metrics := func(r map[system.Variant]*system.Result) map[string]float64 {
			exec := func(v system.Variant) float64 { return float64(r[v].ExecTime) }
			pki := func(v system.Variant) float64 {
				return 1000 * float64(r[v].Traffic.TotalPrograms()) / float64(r[v].Instructions)
			}
			return map[string]float64{
				"dram-mpki":      r[system.DRAMOnly].MPKI,
				"base/dram-exec": exec(system.BaseCSSD) / exec(system.DRAMOnly),
				"full/base-exec": exec(system.SkyByteFull) / exec(system.BaseCSSD),
				"base-prog-pki":  pki(system.BaseCSSD),
				"w-prog-pki":     pki(system.SkyByteW),
			}
		}
		ms, ml := metrics(small[w]), metrics(large[w])
		for m := range ms {
			rows = append(rows, scaleRow{w + "/" + m, ms[m], ml[m]})
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].key < rows[j].key })

	var report strings.Builder
	for _, r := range rows {
		dev := math.Abs(math.Log(r.large / r.small))
		in := dev <= invarianceBand
		if r.small == 0 && r.large == 0 {
			dev, in = 0, true
		}
		reason, listed := knownScaleDeviations[r.key]
		fmt.Fprintf(&report, "%-28s 1/64 %10.3f  1/16 %10.3f  |ln| %.3f  in band %v\n", r.key, r.small, r.large, dev, in)
		switch {
		case !in && !listed:
			t.Errorf("%s: 1/64 %.3f vs 1/16 %.3f is outside the ±25%% band; fix the scaling or list it with a reason", r.key, r.small, r.large)
		case in && listed:
			t.Errorf("%s: listed as a known deviation (%s) but now agrees (1/64 %.3f, 1/16 %.3f); delist it", r.key, reason, r.small, r.large)
		}
	}
	for k := range knownScaleDeviations {
		found := false
		for _, r := range rows {
			found = found || r.key == k
		}
		if !found {
			t.Errorf("known deviation %q names no checked row", k)
		}
	}
	t.Logf("scale invariance, 1/64 at %d vs 1/16 at %d instructions (wall %v):\n%s",
		budget, budget*system.MaxScale/invarianceScale, time.Since(start).Round(time.Millisecond), report.String())
}

// scaleResults runs every workload x invarianceVariants on base at
// totalInstr instructions each, through the runner (which sizes each
// footprint for base's devices).
func scaleResults(t *testing.T, base system.Config, names []string, totalInstr uint64) map[string]map[system.Variant]*system.Result {
	t.Helper()
	var specs []runner.Spec
	for _, w := range names {
		for _, v := range invarianceVariants {
			specs = append(specs, runner.Spec{Workload: w, Variant: v, TotalInstr: totalInstr})
		}
	}
	res, err := runner.New(base, experiments.DefaultOptions().Seed, 0).RunAll(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]map[system.Variant]*system.Result{}
	for i, s := range specs {
		if out[s.Workload] == nil {
			out[s.Workload] = map[system.Variant]*system.Result{}
		}
		out[s.Workload][s.Variant] = res[i]
	}
	return out
}

// TestFootprintFollowsTheMachine: every path from a workload to a
// machine — the runner's solo path and skybyte.Run — sizes a generated
// workload for the machine's devices exactly once. On the 1/16 machine
// both equal a bare run of the ForDevice-sized workload and differ from
// a run of the 1/64 footprint.
func TestFootprintFollowsTheMachine(t *testing.T) {
	const threads, per, seed = 8, 3000, 7
	cfg := system.ConfigAt(invarianceScale).WithVariant(system.BaseCSSD)
	w, err := workloads.ByName("radix")
	if err != nil {
		t.Fatal(err)
	}
	sized, err := w.ForDevice(cfg.Geometry.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if sized.FootprintPages != 4*w.FootprintPages {
		t.Fatalf("1/16 footprint %d pages, want 4x the 1/64 %d", sized.FootprintPages, w.FootprintPages)
	}
	bare := func(w workloads.Spec) string {
		sys := system.New(cfg)
		for i := 0; i < threads; i++ {
			sys.AddThread(w.Stream(i, seed), per)
		}
		return encode(t, sys.Run())
	}
	want := bare(sized)
	if bare(w) == want {
		t.Fatal("the 1/64 and 1/16 footprints ran identically; the check below would prove nothing")
	}
	viaRunner, err := runner.New(system.ConfigAt(invarianceScale), seed, 1).Run(context.Background(),
		runner.Spec{Workload: w.Name, Variant: system.BaseCSSD, TotalInstr: threads * per, Threads: threads})
	if err != nil {
		t.Fatal(err)
	}
	for name, r := range map[string]*system.Result{"runner": viaRunner, "skybyte.Run": skybyte.Run(cfg, w, threads, per, seed)} {
		r.CacheKey = ""
		if encode(t, r) != want {
			t.Errorf("%s did not size the footprint for the 1/16 machine exactly once", name)
		}
	}
}

// TestTraceRunsOnlyAtOneSixtyFourth: a recorded trace replays literal
// addresses, so it runs on the 1/64 machine and is an error — never an
// unscaled run — on any other, through every path.
func TestTraceRunsOnlyAtOneSixtyFourth(t *testing.T) {
	w, err := skybyte.WorkloadByName("bc")
	if err != nil {
		t.Fatal(err)
	}
	tr := &trace.Trace{Meta: trace.Meta{Workload: "bc-scale", Seed: 1, FootprintPages: w.FootprintPages, WriteRatio: w.WriteRatio}}
	for i := 0; i < 2; i++ {
		tr.Threads = append(tr.Threads, trace.RecordStream(w.Stream(i, 1), 2000))
	}
	data, err := trace.EncodeTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "bc.trc")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	tw, err := skybyte.WorkloadFromFile(path)
	if err != nil {
		t.Fatal(err)
	}
	spec := runner.Spec{Workload: tw.Name, Variant: system.BaseCSSD, TotalInstr: 2000, Threads: 2}
	if _, err := runner.New(system.ScaledConfig(), 1, 1).Run(context.Background(), spec); err != nil {
		t.Fatalf("trace on the 1/64 machine: %v", err)
	}
	mix := tenant.Mix{Format: tenant.MixFormatVersion, Name: "trace-scale", Tenants: []tenant.TenantDef{{Name: "rec", Workload: tw.Name, Threads: 2}}}
	for _, n := range []int{16, 32} {
		cfg := system.ConfigAt(n).WithVariant(system.BaseCSSD)
		if _, err := runner.New(system.ConfigAt(n), 1, 1).Run(context.Background(), spec); err == nil || !strings.Contains(err.Error(), "only on the 1/64 machine") {
			t.Errorf("1/%d runner: err = %v, want the trace rejected", n, err)
		}
		if _, err := skybyte.RunMix(cfg, mix, 4000, 1); err == nil || !strings.Contains(err.Error(), "only on the 1/64 machine") {
			t.Errorf("1/%d mix: err = %v, want the trace tenant rejected", n, err)
		}
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "only on the 1/64 machine") {
					t.Errorf("1/%d skybyte.Run: recovered %v, want the trace rejected", n, r)
				}
			}()
			skybyte.Run(cfg, tw, 2, 1000, 1)
		}()
	}
}

func encode(t *testing.T, r *system.Result) string {
	t.Helper()
	b, err := system.EncodeResult(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
