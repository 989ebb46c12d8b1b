package tenant

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"skybyte/internal/system"
	"skybyte/internal/workloads"
)

func validMix() Mix {
	return Mix{
		Format: MixFormatVersion,
		Name:   "test-mix",
		Tenants: []TenantDef{
			{Name: "a", Workload: "bc", Threads: 2},
			{Name: "b", Workload: "srad", Threads: 2, Intensity: 0.5},
		},
	}
}

func TestValidateRejectsMalformedMixes(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Mix)
		want string
	}{
		{"bad format", func(m *Mix) { m.Format = 99 }, "format"},
		{"no name", func(m *Mix) { m.Name = "" }, "name"},
		{"bad name", func(m *Mix) { m.Name = "no spaces" }, "name"},
		{"no tenants", func(m *Mix) { m.Tenants = nil }, "at least one tenant"},
		{"no workload", func(m *Mix) { m.Tenants[0].Workload = "" }, "missing a workload"},
		{"zero threads", func(m *Mix) { m.Tenants[0].Threads = 0 }, "threads"},
		{"negative intensity", func(m *Mix) { m.Tenants[1].Intensity = -1 }, "intensity"},
		{"duplicate names", func(m *Mix) { m.Tenants[1].Name = "a" }, "duplicate"},
	}
	for _, tc := range cases {
		m := validMix()
		tc.mut(&m)
		err := m.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want mention of %q", tc.name, err, tc.want)
		}
	}
	if err := validMix().Validate(); err != nil {
		t.Fatalf("valid mix rejected: %v", err)
	}
	// Two tenants may share a workload when given distinct names.
	m := validMix()
	m.Tenants[1].Workload = "bc"
	if err := m.Validate(); err != nil {
		t.Fatalf("shared workload with distinct names rejected: %v", err)
	}
}

func TestNormalizationReachesFingerprint(t *testing.T) {
	explicit := validMix()
	explicit.Tenants[0].Intensity = 1 // the default, spelled out
	defaulted := validMix()
	if explicit.Fingerprint() != defaulted.Fingerprint() {
		t.Fatal("equivalent mixes fingerprint differently")
	}
	changed := validMix()
	changed.Tenants[0].Threads = 3
	if changed.Fingerprint() == defaulted.Fingerprint() {
		t.Fatal("semantic change did not change the fingerprint")
	}
}

func TestPerThreadInstr(t *testing.T) {
	m := validMix() // 4 threads; tenant 1 at intensity 0.5
	if got := m.PerThreadInstr(0, 40_000); got != 10_000 {
		t.Fatalf("intensity-1 per-thread budget = %d, want 10000", got)
	}
	if got := m.PerThreadInstr(1, 40_000); got != 5_000 {
		t.Fatalf("intensity-0.5 per-thread budget = %d, want 5000", got)
	}
	if m.TotalThreads() != 4 {
		t.Fatalf("TotalThreads = %d", m.TotalThreads())
	}
}

func TestSourceIDFoldsMemberWorkloads(t *testing.T) {
	defer reg.Reset()
	defOf := func(theta float64) workloads.Def {
		return workloads.Def{
			Format:         workloads.DefFormatVersion,
			Name:           "srcid-w",
			FootprintPages: 1024,
			Regions:        []workloads.RegionDef{{Name: "r", Start: 0, Size: 1}},
			Phases: []workloads.PhaseDef{{Ops: []workloads.OpDef{
				{Op: "load", Region: "r", Kernel: workloads.KernelZipf, Theta: theta},
				{Op: "compute", Min: 4},
			}}},
		}
	}
	if err := workloads.Register(defOf(0.8).MustSpec()); err != nil {
		t.Fatal(err)
	}
	m := validMix()
	m.Tenants[0].Workload = "srcid-w"
	before := m.SourceID()
	if before == (validMix()).SourceID() {
		t.Fatal("different member workloads, same SourceID")
	}
	// Editing the member definition changes the mix SourceID even
	// though the mix itself (and its Fingerprint) is unchanged.
	if err := workloads.Register(defOf(0.7).MustSpec()); err != nil {
		t.Fatal(err)
	}
	if m.SourceID() == before {
		t.Fatal("member workload edit did not reach the mix SourceID")
	}
	if m.Fingerprint() == "" || m.Fingerprint() != m.Fingerprint() {
		t.Fatal("fingerprint unstable")
	}
}

func TestRegistryResolvesMixes(t *testing.T) {
	defer reg.Reset()
	if names := Names(); names[0] != "graph-vs-log" || names[1] != "scan-vs-point" {
		t.Fatalf("built-in mixes = %v", names)
	}
	if _, err := ByName("nope"); err == nil || err.Error() != `tenant: unknown mix "nope" (valid: graph-vs-log, scan-vs-point)` {
		t.Fatalf("unknown-mix error: %v", err)
	}
	m := validMix()
	if err := Register(m); err != nil {
		t.Fatal(err)
	}
	got, err := ByName("test-mix")
	if err != nil {
		t.Fatal(err)
	}
	if got.Tenants[1].Intensity != 0.5 {
		t.Fatalf("registered mix lost fields: %+v", got)
	}
	bad := validMix()
	bad.Name = "graph-vs-log"
	if err := Register(bad); err == nil || err.Error() != `tenant: "graph-vs-log" is a built-in mix and cannot be replaced` {
		t.Fatalf("built-in name accepted for registration (err = %v)", err)
	}
}

func TestMixFromFile(t *testing.T) {
	defer reg.Reset()
	good := `{
  "format": 1,
  "name": "file-mix",
  "tenants": [
    {"name": "g", "workload": "graph500", "threads": 2},
    {"workload": "ycsb", "threads": 2, "intensity": 2}
  ]
}`
	dir := t.TempDir()
	path := filepath.Join(dir, "mix.json")
	if err := os.WriteFile(path, []byte(good), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := RegisterFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if m.Name != "file-mix" || m.Tenants[1].Name != "ycsb" || m.Tenants[1].Intensity != 2 {
		t.Fatalf("loaded mix wrong: %+v", m)
	}
	if _, err := ByName("file-mix"); err != nil {
		t.Fatal("file mix not registered")
	}

	// Unknown fields fail loudly.
	typo := strings.Replace(good, `"intensity"`, `"intensty"`, 1)
	badPath := filepath.Join(dir, "typo.json")
	if err := os.WriteFile(badPath, []byte(typo), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := FromFile(badPath); err == nil {
		t.Fatal("unknown field accepted")
	}
	// Wrong format version fails loudly.
	old := strings.Replace(good, `"format": 1`, `"format": 0`, 1)
	oldPath := filepath.Join(dir, "old.json")
	if err := os.WriteFile(oldPath, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := FromFile(oldPath); err == nil {
		t.Fatal("format mismatch accepted")
	}
}

// TestApplyRunsPerTenant drives a mix end to end on a real system and
// checks the per-tenant slice: declaration order, thread counts,
// intensity-scaled instruction shares, and progress for every tenant.
func TestApplyRunsPerTenant(t *testing.T) {
	m := validMix()
	cfg := system.ScaledConfig().WithVariant(system.SkyByteFull)
	sys := system.New(cfg)
	if err := m.Apply(sys, 16_000, 1); err != nil {
		t.Fatal(err)
	}
	res := sys.Run()
	if len(res.Tenants) != 2 {
		t.Fatalf("tenants = %d", len(res.Tenants))
	}
	a, b := res.Tenants[0], res.Tenants[1]
	if a.Name != "a" || a.Workload != "bc" || a.Threads != 2 {
		t.Fatalf("tenant 0 = %+v", a)
	}
	if a.Instructions == 0 || b.Instructions == 0 {
		t.Fatal("a tenant made no progress")
	}
	// Intensity 0.5: tenant b's threads each replay half of tenant a's
	// per-thread budget.
	if a.Instructions != 2*b.Instructions {
		t.Fatalf("intensity split wrong: a=%d b=%d", a.Instructions, b.Instructions)
	}
	if a.ExecTime == 0 || b.ExecTime == 0 {
		t.Fatal("tenant completion times missing")
	}

	// Unresolvable member workloads error before simulating.
	bad := validMix()
	bad.Tenants[0].Workload = "no-such-workload"
	if err := bad.Apply(system.New(cfg), 1000, 1); err == nil {
		t.Fatal("unresolvable workload accepted")
	}
}

// TestApplyRejectsOversizedMixes: the combined tenant footprint must
// fit the device's logical space — overlapping arenas would alias
// tenants' data, and wrapping would fault the FTL mid-run.
func TestApplyRejectsOversizedMixes(t *testing.T) {
	defer reg.Reset()
	huge := workloads.Def{
		Format:         workloads.DefFormatVersion,
		Name:           "huge-w",
		FootprintPages: 1 << 20, // 4 GB of pages on a 2 GB device
		Regions:        []workloads.RegionDef{{Name: "r", Start: 0, Size: 1}},
		Phases: []workloads.PhaseDef{{Ops: []workloads.OpDef{
			{Op: "load", Region: "r"},
			{Op: "compute", Min: 4},
		}}},
	}
	if err := workloads.Register(huge.MustSpec()); err != nil {
		t.Fatal(err)
	}
	m := validMix()
	m.Tenants[0].Workload = "huge-w"
	cfg := system.ScaledConfig().WithVariant(system.BaseCSSD)
	err := m.Apply(system.New(cfg), 1000, 1)
	if err == nil || !strings.Contains(err.Error(), "footprint") {
		t.Fatalf("oversized mix accepted (err=%v)", err)
	}
}
