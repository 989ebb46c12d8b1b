package workloads

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"skybyte/internal/mem"
	"skybyte/internal/trace"
)

// testDef is a small valid definition exercising every kernel.
func testDef() Def {
	return Def{
		Format:         DefFormatVersion,
		Name:           "t-mix",
		FootprintPages: 4096,
		WriteRatio:     0.2,
		Regions: []RegionDef{
			{Name: "a", Start: 0, Size: 0.5},
			{Name: "b", Start: 0.5, Size: 0.5},
		},
		Phases: []PhaseDef{
			{Weight: F(2), Ops: []OpDef{
				{Op: "load", Region: "a", Kernel: KernelSequential, Lines: 2},
				{Op: "load", Region: "a", Kernel: KernelStride, StrideLines: 16},
				{Op: "load", Region: "b", Kernel: KernelZipf, Theta: 0.7, Dep: true},
				{Op: "compute", Min: 10, Max: 20},
				{Op: "store", Region: "b", Kernel: KernelUniform, Prob: F(0.5)},
			}},
			{Weight: F(1), Ops: []OpDef{
				{Op: "compute", Min: 50},
				{Op: "load", Region: "b", Kernel: KernelUniform, Count: 2},
			}},
		},
	}
}

func TestDefStreamDeterminism(t *testing.T) {
	s := testDef().MustSpec()
	for _, thread := range []int{0, 3} {
		a := sample(t, s, thread, 4000)
		b := sample(t, s, thread, 4000)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("thread %d: record %d differs between identical streams", thread, i)
			}
		}
	}
	// Distinct threads and distinct seeds must diverge.
	a := sample(t, s, 0, 2000)
	b := sample(t, s, 1, 2000)
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("threads 0 and 1 produced identical streams")
	}
}

func TestDefStreamStaysInArena(t *testing.T) {
	s := testDef().MustSpec()
	end := mem.CXLBase + mem.Addr(s.FootprintBytes())
	for _, r := range sample(t, s, 2, 20000) {
		if r.Kind == trace.Compute {
			continue
		}
		if r.Addr < mem.CXLBase || r.Addr >= end {
			t.Fatalf("address %#x outside arena [%#x,%#x)", r.Addr, mem.CXLBase, end)
		}
	}
}

func TestDefValidation(t *testing.T) {
	bad := []struct {
		name   string
		mutate func(*Def)
		want   string
	}{
		{"format", func(d *Def) { d.Format = 99 }, "format"},
		{"no name", func(d *Def) { d.Name = "" }, "name"},
		{"bad name", func(d *Def) { d.Name = "a b" }, "contains"},
		{"no footprint", func(d *Def) { d.FootprintPages = 0 }, "footprint"},
		{"no regions", func(d *Def) { d.Regions = nil }, "region"},
		{"dup region", func(d *Def) { d.Regions = append(d.Regions, d.Regions[0]) }, "duplicate"},
		{"region overflow", func(d *Def) { d.Regions[1].Size = 0.9 }, "outside the footprint"},
		{"no phases", func(d *Def) { d.Phases = nil }, "phase"},
		{"empty phase", func(d *Def) { d.Phases[0].Ops = nil }, "no ops"},
		{"unknown op", func(d *Def) { d.Phases[0].Ops[0].Op = "jump" }, "unknown op"},
		{"unknown region ref", func(d *Def) { d.Phases[0].Ops[0].Region = "zzz" }, "unknown region"},
		{"unknown kernel", func(d *Def) { d.Phases[0].Ops[0].Kernel = "lfsr" }, "unknown kernel"},
		{"stride no stride", func(d *Def) { d.Phases[0].Ops[1].StrideLines = 0 }, "stride_lines"},
		{"zipf no theta", func(d *Def) { d.Phases[0].Ops[2].Theta = 0 }, "theta"},
		{"dep store", func(d *Def) { d.Phases[0].Ops[4].Dep = true }, "loads only"},
		{"compute no min", func(d *Def) { d.Phases[1].Ops[0].Min = 0 }, "compute"},
		{"compute zero min with max", func(d *Def) { d.Phases[0].Ops[3].Min = 0 }, "min >= 1"},
		{"bad prob", func(d *Def) { d.Phases[0].Ops[4].Prob = F(1.5) }, "prob"},
	}
	for _, tc := range bad {
		d := testDef()
		tc.mutate(&d)
		err := d.Validate()
		if err == nil {
			t.Errorf("%s: invalid definition accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
	if err := testDef().Validate(); err != nil {
		t.Fatalf("valid definition rejected: %v", err)
	}
}

func TestDefFingerprintCanonical(t *testing.T) {
	a := testDef()
	// An equivalent definition with defaults written out explicitly
	// must fingerprint identically...
	b := testDef()
	b.Suite = "custom"
	b.Phases[0].Ops[0].Count = 1
	b.Phases[0].Ops[0].Prob = F(1)
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("equivalent definitions fingerprint differently")
	}
	// ...and any semantic change must change it.
	c := testDef()
	c.Phases[0].Ops[2].Theta = 0.71
	if a.Fingerprint() == c.Fingerprint() {
		t.Fatal("changed definition kept its fingerprint")
	}
}

func TestExtrasAreValidAndShaped(t *testing.T) {
	extras := Extras()
	if len(extras) < 3 {
		t.Fatalf("want >=3 extra scenarios, got %d", len(extras))
	}
	for _, s := range extras {
		if s.Def == nil {
			t.Fatalf("%s: extra scenario not built from the declarative primitives", s.Name)
		}
		if err := s.Def.Validate(); err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		var loads, deps, stores int
		for _, r := range sample(t, s, 0, 30000) {
			switch r.Kind {
			case trace.Load:
				loads++
			case trace.LoadDep:
				deps++
			case trace.Store:
				stores++
			}
		}
		wr := float64(stores) / float64(loads+deps+stores)
		if diff := wr - s.WriteRatio; diff > 0.12 || diff < -0.12 {
			t.Errorf("%s: measured write ratio %.3f far from declared %.2f", s.Name, wr, s.WriteRatio)
		}
	}
	// The shapes that define each scenario.
	byName := map[string]Spec{}
	for _, s := range extras {
		byName[s.Name] = s
	}
	count := func(name string, k trace.Kind) int {
		n := 0
		for _, r := range sample(t, byName[name], 0, 20000) {
			if r.Kind == k {
				n++
			}
		}
		return n
	}
	if count("graph500", trace.LoadDep) == 0 {
		t.Error("graph500: no pointer chasing")
	}
	if count("scan-heavy", trace.Store) > count("scan-heavy", trace.Load)/5 {
		t.Error("scan-heavy: not read-dominated")
	}
	if count("log-append", trace.Store) < count("log-append", trace.Load) {
		t.Error("log-append: not write-dominated")
	}
}

func TestRegistryRegisterAndResolve(t *testing.T) {
	defer reg.Reset()
	reg.Reset()
	s := testDef().MustSpec()
	if err := Register(s); err != nil {
		t.Fatal(err)
	}
	got, err := ByName("t-mix")
	if err != nil {
		t.Fatal(err)
	}
	if got.Def == nil || got.Def.Fingerprint() != s.Def.Fingerprint() {
		t.Fatal("registered workload resolved to something else")
	}
	// The registry's errors keep the workload wording.
	_, err = ByName("nope")
	if err == nil || !strings.HasPrefix(err.Error(), `workloads: unknown workload "nope" (valid: bc, bfs-dense,`) ||
		!strings.HasSuffix(err.Error(), ", t-mix)") {
		t.Fatalf("unknown-name error: %v", err)
	}
	clash := s
	clash.Name = "ycsb"
	if err := Register(clash); err == nil || err.Error() != `workloads: "ycsb" is a built-in workload and cannot be replaced` {
		t.Fatalf("registering over a built-in: err = %v", err)
	}
	// A spec with no generator is rejected.
	if err := Register(Spec{Name: "empty", FootprintPages: 1}); err == nil {
		t.Fatal("generator-less spec registered")
	}
}

func TestRegistryFingerprintTracksDefinitions(t *testing.T) {
	defer reg.Reset()
	reg.Reset()
	base := RegistryFingerprint()
	if base != RegistryFingerprint() {
		t.Fatal("fingerprint not stable")
	}
	if err := Register(testDef().MustSpec()); err != nil {
		t.Fatal(err)
	}
	withReg := RegistryFingerprint()
	if withReg == base {
		t.Fatal("registering a workload did not change the registry fingerprint")
	}
	d := testDef()
	d.Phases[0].Ops[0].Lines = 3
	if err := Register(d.MustSpec()); err != nil {
		t.Fatal(err)
	}
	if RegistryFingerprint() == withReg {
		t.Fatal("editing a registered definition did not change the registry fingerprint")
	}
}

func TestFromFileDefinition(t *testing.T) {
	defer reg.Reset()
	reg.Reset()
	d := testDef()
	data, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "w.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := RegisterFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "t-mix" || s.Def == nil {
		t.Fatalf("unexpected spec from file: %+v", s)
	}
	// File-loaded and Go-defined streams must be byte-identical.
	a := sample(t, s, 1, 3000)
	b := sample(t, d.MustSpec(), 1, 3000)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("record %d: file-loaded stream diverges from the in-code definition", i)
		}
	}
	// Typos (unknown fields) fail loudly.
	bad := strings.Replace(string(data), `"format"`, `"formatt"`, 1)
	badPath := filepath.Join(t.TempDir(), "bad.json")
	os.WriteFile(badPath, []byte(bad), 0o644)
	if _, err := FromFile(badPath); err == nil {
		t.Fatal("definition with an unknown field accepted")
	}
}

func TestFromFileTrace(t *testing.T) {
	defer reg.Reset()
	reg.Reset()
	w, err := ByName("bc")
	if err != nil {
		t.Fatal(err)
	}
	tr := &trace.Trace{
		Meta: trace.Meta{Workload: "bc", Seed: 5, FootprintPages: w.FootprintPages, WriteRatio: w.WriteRatio},
	}
	for th := 0; th < 2; th++ {
		tr.Threads = append(tr.Threads, trace.RecordStream(w.Stream(th, 5), 2000))
	}
	data, err := trace.EncodeTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "bc.trc")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := RegisterFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "trace:bc" || s.Trace == nil {
		t.Fatalf("unexpected trace spec: %+v", s)
	}
	if !strings.Contains(s.SourceID(), "trace:v") {
		t.Fatalf("trace SourceID %q does not carry the codec version", s.SourceID())
	}
	// Replay must equal the live generator record for record (the seed
	// passed at replay time is ignored — a trace is literal).
	live := w.Stream(1, 5)
	replay := s.Stream(1, 999)
	for i := 0; i < 2000; i++ {
		lr, _ := live.Next()
		rr, ok := replay.Next()
		if !ok {
			t.Fatalf("replay ended early at %d", i)
		}
		if lr != rr {
			t.Fatalf("record %d: replay %+v, live %+v", i, rr, lr)
		}
	}
}

// TestExplicitZeroProbAndWeightHonored pins the pointer-typed optional
// fields: an explicit 0 means "never", not "default to 1".
func TestExplicitZeroProbAndWeightHonored(t *testing.T) {
	d := testDef()
	d.Phases[0].Ops[4].Prob = F(0) // the only store in phase 0
	d.Phases[1].Weight = F(0)      // phase 1 never picked
	s := d.MustSpec()
	for i, r := range sample(t, s, 0, 10000) {
		if r.Kind == trace.Store {
			t.Fatalf("record %d: store emitted despite prob 0", i)
		}
		if r.Kind == trace.Compute && r.N >= 50 {
			t.Fatalf("record %d: zero-weight phase ran (compute %d)", i, r.N)
		}
	}
}

// TestRegisterValidatesDefs pins the registration chokepoint: a
// hand-built Spec wrapping an unvetted definition is rejected, never
// registered to fail mid-campaign.
func TestRegisterValidatesDefs(t *testing.T) {
	defer reg.Reset()
	reg.Reset()
	d := testDef()
	d.Phases[0].Ops[0].Region = "missing"
	if err := Register(Spec{Name: d.Name, FootprintPages: d.FootprintPages, Def: &d}); err == nil {
		t.Fatal("spec with an invalid definition registered")
	}
	// A valid raw Def is normalized on the way in (Lines defaults to 1,
	// so the stream emits).
	d2 := testDef()
	if err := Register(Spec{Name: d2.Name, FootprintPages: d2.FootprintPages, Def: &d2}); err != nil {
		t.Fatal(err)
	}
	got, err := ByName(d2.Name)
	if err != nil {
		t.Fatal(err)
	}
	if recs := sample(t, got, 0, 100); len(recs) != 100 {
		t.Fatal("registered raw definition does not stream")
	}
}
