package arrival

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"skybyte/internal/system"
	"skybyte/internal/tenant"
	"skybyte/internal/workloads"
)

func validSpec() Spec {
	return Spec{
		Format: SpecFormatVersion,
		Name:   "test-arr",
		Cohorts: []Cohort{
			{Workload: "bc", Threads: 2, Class: "fast",
				Process: Process{Dist: DistPoisson, Rate: 1000}},
			{Name: "slow", Workload: "srad", Threads: 1,
				Process: Process{Dist: DistGamma, Rate: 500, Shape: 4}},
		},
	}
}

func TestValidateRejectsMalformedSpecs(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Spec)
		want string
	}{
		{"bad format", func(s *Spec) { s.Format = 99 }, "format"},
		{"no name", func(s *Spec) { s.Name = "" }, "name"},
		{"bad name", func(s *Spec) { s.Name = "no spaces" }, "name"},
		{"no cohorts", func(s *Spec) { s.Cohorts = nil }, "at least one cohort"},
		{"no source", func(s *Spec) { s.Cohorts[0].Workload = "" }, "needs a workload or a mix"},
		{"both sources", func(s *Spec) { s.Cohorts[0].Mix = "m" }, "mutually exclusive"},
		{"zero threads", func(s *Spec) { s.Cohorts[0].Threads = 0 }, "threads must be positive"},
		{"mix with threads", func(s *Spec) {
			s.Cohorts[0].Workload = ""
			s.Cohorts[0].Name = "m"
			s.Cohorts[0].Mix = "some-mix"
		}, "leave threads unset"},
		{"duplicate names", func(s *Spec) { s.Cohorts[1].Name = "bc" }, "duplicate cohort name"},
		{"bad class", func(s *Spec) { s.Cohorts[0].Class = "no spaces" }, "class"},
		{"bad process", func(s *Spec) { s.Cohorts[0].Process.Rate = 0 }, "rate"},
		{"bad dist", func(s *Spec) { s.Cohorts[0].Process.Dist = "cauchy" }, "unknown dist"},
		{"bad window", func(s *Spec) {
			s.Cohorts[0].Windows = []Window{{DurUS: 0, Scale: 1}}
		}, "dur_us"},
		{"silent schedule", func(s *Spec) {
			s.Cohorts[0].Windows = []Window{{DurUS: 10, Scale: 0}}
		}, "silent"},
	}
	for _, tc := range cases {
		s := validSpec()
		tc.mut(&s)
		err := s.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want mention of %q", tc.name, err, tc.want)
		}
	}
	if err := validSpec().Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	// Two cohorts may share a workload when given distinct names, and
	// may share an SLO class freely.
	s := validSpec()
	s.Cohorts[1].Workload = "bc"
	s.Cohorts[1].Class = "fast"
	if err := s.Validate(); err != nil {
		t.Fatalf("shared workload with distinct names rejected: %v", err)
	}
}

// TestNormalizationReachesFingerprint: a spec with defaults spelled
// out fingerprints identically to one that omits them, and any
// semantic edit changes the fingerprint.
func TestNormalizationReachesFingerprint(t *testing.T) {
	defaulted := validSpec()
	explicit := validSpec()
	explicit.Cohorts[0].Name = "bc"    // default: workload name
	explicit.Cohorts[1].Class = "slow" // default: cohort name
	explicit.Cohorts[0].ReqInstr = DefaultReqInstr
	explicit.Cohorts[1].ReqInstr = DefaultReqInstr
	if explicit.Fingerprint() != defaulted.Fingerprint() {
		t.Fatal("equivalent specs fingerprint differently")
	}
	for name, mut := range map[string]func(*Spec){
		"rate":     func(s *Spec) { s.Cohorts[0].Process.Rate = 1001 },
		"threads":  func(s *Spec) { s.Cohorts[0].Threads = 3 },
		"reqinstr": func(s *Spec) { s.Cohorts[0].ReqInstr = 4000 },
		"windows":  func(s *Spec) { s.Cohorts[0].Windows = []Window{{DurUS: 10, Scale: 2}} },
	} {
		changed := validSpec()
		mut(&changed)
		if changed.Fingerprint() == defaulted.Fingerprint() {
			t.Errorf("%s edit did not change the fingerprint", name)
		}
	}
}

func TestResolveReportsUnknownMembersWithValidSet(t *testing.T) {
	if err := validSpec().Resolve(); err != nil {
		t.Fatalf("resolvable spec rejected: %v", err)
	}
	s := validSpec()
	s.Cohorts[0].Workload = "no-such-workload"
	err := s.Resolve()
	if err == nil || !strings.Contains(err.Error(), "no-such-workload") {
		t.Fatalf("unknown workload accepted (err=%v)", err)
	}
	if !strings.Contains(err.Error(), "valid") {
		t.Fatalf("error does not list the valid set: %v", err)
	}
	m := validSpec()
	m.Cohorts[0] = Cohort{Name: "mm", Mix: "no-such-mix",
		Process: Process{Dist: DistPoisson, Rate: 100}}
	err = m.Resolve()
	if err == nil || !strings.Contains(err.Error(), "no-such-mix") || !strings.Contains(err.Error(), "valid") {
		t.Fatalf("unknown mix accepted or valid set missing (err=%v)", err)
	}
}

func TestTotalThreadsAndClasses(t *testing.T) {
	defer reg.Reset()
	s := validSpec()
	n, err := s.TotalThreads()
	if err != nil || n != 3 {
		t.Fatalf("TotalThreads = %d, %v; want 3", n, err)
	}

	// A mix cohort contributes the mix's own thread layout.
	mx := tenant.Mix{
		Format: tenant.MixFormatVersion,
		Name:   "arr-test-mix",
		Tenants: []tenant.TenantDef{
			{Name: "a", Workload: "bc", Threads: 2},
			{Name: "b", Workload: "srad", Threads: 3},
		},
	}
	if err := tenant.Register(mx); err != nil {
		t.Fatal(err)
	}
	s.Cohorts = append(s.Cohorts, Cohort{Name: "mixed", Mix: "arr-test-mix",
		Class: "fast", Process: Process{Dist: DistPoisson, Rate: 200}})
	if n, err = s.TotalThreads(); err != nil || n != 8 {
		t.Fatalf("TotalThreads with mix = %d, %v; want 8", n, err)
	}

	// Classes come back in first-appearance order; cohorts sharing a
	// class sum their offered rates. Offered = threads x rate x
	// schedule mean x rateScale.
	classes, err := s.Classes(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(classes) != 2 || classes[0].Name != "fast" || classes[1].Name != "slow" {
		t.Fatalf("classes = %+v", classes)
	}
	// fast: bc 2x1000 + mix 5x200 = 3000, x2 scale = 6000.
	if got := classes[0].OfferedRPS; math.Abs(got-6000) > 1e-9 {
		t.Fatalf("fast offered = %g, want 6000", got)
	}
	// slow: srad 1x500 x2 = 1000.
	if got := classes[1].OfferedRPS; math.Abs(got-1000) > 1e-9 {
		t.Fatalf("slow offered = %g, want 1000", got)
	}

	// A time-varying schedule folds its mean scale into the offer.
	w := validSpec()
	w.Cohorts[0].Windows = []Window{{DurUS: 10, Scale: 1}, {DurUS: 10, Scale: 3}}
	classes, err = w.Classes(1)
	if err != nil {
		t.Fatal(err)
	}
	if got := classes[0].OfferedRPS; math.Abs(got-4000) > 1e-9 {
		t.Fatalf("scheduled offered = %g, want 2x1000x2 = 4000", got)
	}
}

// TestSourceIDFoldsMembers: the source identity must change when a
// member workload changes, not just when the spec text does — that is
// what re-keys stale store entries after a workload-file edit.
func TestSourceIDFoldsMembers(t *testing.T) {
	s := validSpec()
	s.Cohorts[0].Workload = "arr-src-w" // resolved at run time
	unresolved := s.SourceID()
	if !strings.HasPrefix(unresolved, "arrival:") {
		t.Fatalf("source id = %q", unresolved)
	}
	if s.SourceID() != unresolved {
		t.Fatal("source id unstable across calls")
	}

	def := workloads.Def{
		Format:         workloads.DefFormatVersion,
		Name:           "arr-src-w",
		FootprintPages: 64,
		Regions:        []workloads.RegionDef{{Name: "r", Start: 0, Size: 1}},
		Phases: []workloads.PhaseDef{{Ops: []workloads.OpDef{
			{Op: "load", Region: "r"},
			{Op: "compute", Min: 4},
		}}},
	}
	if err := workloads.Register(def.MustSpec()); err != nil {
		t.Fatal(err)
	}
	v1 := s.SourceID()
	if v1 == unresolved {
		t.Fatal("resolving a member did not change the source id")
	}

	// Edit the member definition (the spec text is untouched): the
	// spec fingerprint must hold still while the source id moves.
	fp := s.Fingerprint()
	def.FootprintPages++
	if err := workloads.Register(def.MustSpec()); err != nil {
		t.Fatal(err)
	}
	if s.SourceID() == v1 {
		t.Fatal("member workload edit did not change the source id")
	}
	if s.Fingerprint() != fp {
		t.Fatal("member workload edit changed the spec's own fingerprint")
	}
}

func TestRegistryLifecycle(t *testing.T) {
	defer reg.Reset()
	names := Names()
	if len(names) < 2 || names[0] != "open-steady" || names[1] != "open-burst" {
		t.Fatalf("builtin names = %v", names)
	}
	_, err := ByName("nope")
	if err == nil || err.Error() != `arrival: unknown arrival spec "nope" (valid: open-steady, open-burst)` {
		t.Fatalf("unknown-name error: %v", err)
	}

	s := validSpec()
	if err := Register(s); err != nil {
		t.Fatal(err)
	}
	got, err := ByName("test-arr")
	if err != nil || got.Fingerprint() != s.Fingerprint() {
		t.Fatalf("registered spec not returned intact: %v", err)
	}

	b := validSpec()
	b.Name = "open-steady"
	if err := Register(b); err == nil || err.Error() != `arrival: "open-steady" is a built-in arrival spec and cannot be replaced` {
		t.Fatalf("builtin shadowing accepted (err=%v)", err)
	}

	// Malformed specs never enter the registry.
	bad := validSpec()
	bad.Cohorts = nil
	if err := Register(bad); err == nil {
		t.Fatal("invalid spec registered")
	}
}

func TestFromFileAndRegisterFile(t *testing.T) {
	defer reg.Reset()
	dir := t.TempDir()
	good := filepath.Join(dir, "arr.json")
	if err := os.WriteFile(good, []byte(`{
		"format": 1,
		"name": "file-arr",
		"cohorts": [
			{"workload": "bc", "threads": 2, "class": "gold",
			 "process": {"dist": "poisson", "rate": 1500}},
			{"workload": "srad", "threads": 1,
			 "process": {"dist": "weibull", "rate": 700, "shape": 0.7},
			 "windows": [{"dur_us": 20, "scale": 1}, {"dur_us": 10, "scale": 1, "end_scale": 2}]}
		]
	}`), 0o644); err != nil {
		t.Fatal(err)
	}
	sp, err := FromFile(good)
	if err != nil {
		t.Fatal(err)
	}
	if sp.Name != "file-arr" || len(sp.Cohorts) != 2 ||
		sp.Cohorts[1].Process.Dist != DistWeibull || len(sp.Cohorts[1].Windows) != 2 {
		t.Fatalf("loaded spec mangled: %+v", sp)
	}

	if _, err := RegisterFile(good); err != nil {
		t.Fatal(err)
	}
	if _, err := ByName("file-arr"); err != nil {
		t.Fatalf("RegisterFile did not register: %v", err)
	}

	// Unknown fields are typos, not extensions.
	typo := filepath.Join(dir, "typo.json")
	os.WriteFile(typo, []byte(`{"format":1,"name":"t","cohorts":[{"workload":"bc","treads":2,"process":{"dist":"poisson","rate":1}}]}`), 0o644)
	if _, err := FromFile(typo); err == nil || !strings.Contains(err.Error(), "treads") {
		t.Fatalf("unknown field accepted (err=%v)", err)
	}

	// Invalid contents are rejected with the validation message.
	bad := filepath.Join(dir, "bad.json")
	os.WriteFile(bad, []byte(`{"format":1,"name":"b","cohorts":[]}`), 0o644)
	if _, err := FromFile(bad); err == nil || !strings.Contains(err.Error(), "at least one cohort") {
		t.Fatalf("invalid spec loaded (err=%v)", err)
	}
	if _, err := FromFile(filepath.Join(dir, "absent.json")); err == nil {
		t.Fatal("missing file loaded")
	}
}

func TestGateSeedsAreDistinct(t *testing.T) {
	seen := map[uint64]bool{}
	for seed := uint64(1); seed <= 3; seed++ {
		for thread := 0; thread < 64; thread++ {
			s := gateSeed(seed, thread)
			if seen[s] {
				t.Fatalf("gateSeed collision at seed %d thread %d", seed, thread)
			}
			seen[s] = true
		}
	}
}

// --- Apply integration: real system runs ---

func smallSpec() Spec {
	return Spec{
		Format: SpecFormatVersion,
		Name:   "small-arr",
		Cohorts: []Cohort{
			{Workload: "bc", Threads: 2, Class: "gold", ReqInstr: 1500,
				Process: Process{Dist: DistPoisson, Rate: 4000}},
			{Workload: "srad", Threads: 1, Class: "batch",
				Process: Process{Dist: DistGamma, Rate: 2000, Shape: 0.5}},
		},
	}
}

func runSmall(t *testing.T, variant system.Variant, totalInstr, seed uint64) *system.Result {
	t.Helper()
	cfg := system.ScaledConfig().WithVariant(variant)
	sys := system.New(cfg)
	if err := smallSpec().Apply(sys, totalInstr, seed, 1); err != nil {
		t.Fatal(err)
	}
	return sys.Run()
}

// TestOpenLoopClassesSumToTotal: the per-class OpenStats carry their
// bookkeeping invariants (admitted >= completed, monotone completion
// span, offered rate, sojourn >= queue delay). That the classes merge
// to the total is TestSplitsReconcile's (package skybyte).
func TestOpenLoopClassesSumToTotal(t *testing.T) {
	res := runSmall(t, system.SkyByteFull, 36_000, 11)
	ol := res.OpenLoop
	if ol == nil {
		t.Fatal("arrival run produced no OpenLoop section")
	}
	if len(ol.Classes) != 2 || ol.Classes[0].Name != "gold" || ol.Classes[1].Name != "batch" {
		t.Fatalf("classes = %+v", ol.Classes)
	}
	if ol.Total.Completed == 0 {
		t.Fatal("no completed requests")
	}
	for _, cl := range ol.Classes {
		if cl.Stats.Completed > cl.Stats.Admitted {
			t.Fatalf("class %s: completed %d > admitted %d", cl.Name, cl.Stats.Completed, cl.Stats.Admitted)
		}
		if cl.Stats.Completed > 1 && cl.Stats.LastDone <= cl.Stats.FirstDone {
			t.Fatalf("class %s: degenerate completion span", cl.Name)
		}
		if cl.OfferedRPS <= 0 {
			t.Fatalf("class %s: offered rate missing", cl.Name)
		}
		if cl.Stats.Latency.Mean() < cl.Stats.QueueDelay.Mean() {
			t.Fatalf("class %s: sojourn mean below queue-delay mean", cl.Name)
		}
	}
	// Tenant accounting coexists with open-loop accounting.
	if len(res.Tenants) != 2 {
		t.Fatalf("tenant groups = %d, want 2", len(res.Tenants))
	}
}

// TestApplyDeterminism: the same spec, budget, and seed produce
// byte-identical encoded results across independent runs.
func TestApplyDeterminism(t *testing.T) {
	a := runSmall(t, system.BaseCSSD, 24_000, 7)
	b := runSmall(t, system.BaseCSSD, 24_000, 7)
	ea, err := system.EncodeResult(a)
	if err != nil {
		t.Fatal(err)
	}
	eb, err := system.EncodeResult(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ea, eb) {
		t.Fatal("identical arrival runs encoded differently")
	}
	// A different seed moves the arrival draws, hence the measurements.
	c := runSmall(t, system.BaseCSSD, 24_000, 8)
	ec, _ := system.EncodeResult(c)
	if bytes.Equal(ea, ec) {
		t.Fatal("seed change did not move the result")
	}
}

// TestApplyMixCohort: a mix cohort expands into one tenant group per
// mix tenant, named cohort/tenant, all reporting under the cohort's
// SLO class.
func TestApplyMixCohort(t *testing.T) {
	defer reg.Reset()
	mx := tenant.Mix{
		Format: tenant.MixFormatVersion,
		Name:   "arr-apply-mix",
		Tenants: []tenant.TenantDef{
			{Name: "x", Workload: "bc", Threads: 1},
			{Name: "y", Workload: "srad", Threads: 2},
		},
	}
	if err := tenant.Register(mx); err != nil {
		t.Fatal(err)
	}
	sp := Spec{
		Format: SpecFormatVersion,
		Name:   "mix-arr",
		Cohorts: []Cohort{
			{Name: "pool", Mix: "arr-apply-mix", Class: "shared",
				Process: Process{Dist: DistPoisson, Rate: 3000}},
		},
	}
	sys := system.New(system.ScaledConfig().WithVariant(system.BaseCSSD))
	if err := sp.Apply(sys, 18_000, 3, 1); err != nil {
		t.Fatal(err)
	}
	res := sys.Run()
	if len(res.Tenants) != 2 || res.Tenants[0].Name != "pool/x" || res.Tenants[1].Name != "pool/y" {
		t.Fatalf("mix cohort groups = %+v", res.Tenants)
	}
	if res.OpenLoop == nil || len(res.OpenLoop.Classes) != 1 || res.OpenLoop.Classes[0].Name != "shared" {
		t.Fatalf("open-loop section = %+v", res.OpenLoop)
	}
	if res.OpenLoop.Classes[0].Stats.Completed == 0 {
		t.Fatal("mix cohort completed nothing")
	}
}

// TestMixCohortIgnoresIntensity pins the budget rule of a mix cohort:
// the run's budget splits evenly across every thread of the spec, so a
// mix tenant's intensity — which scales its budget under Mix.Apply —
// does not apply inside an arrival spec.
func TestMixCohortIgnoresIntensity(t *testing.T) {
	mx := tenant.Mix{
		Format: tenant.MixFormatVersion,
		Name:   "arr-intensity-mix",
		Tenants: []tenant.TenantDef{
			{Name: "full", Workload: "bc", Threads: 2},
			{Name: "half", Workload: "srad", Threads: 2, Intensity: 0.5},
		},
	}
	if err := tenant.Register(mx); err != nil {
		t.Fatal(err)
	}
	sp := Spec{
		Format: SpecFormatVersion,
		Name:   "intensity-arr",
		Cohorts: []Cohort{
			{Name: "pool", Mix: "arr-intensity-mix", Process: Process{Dist: DistPoisson, Rate: 3000}},
		},
	}
	const total = 16_000
	sys := system.New(system.ScaledConfig().WithVariant(system.BaseCSSD))
	if err := sp.Apply(sys, total, 3, 1); err != nil {
		t.Fatal(err)
	}
	res := sys.Run()
	if len(res.Tenants) != 2 {
		t.Fatalf("tenant groups = %d, want 2", len(res.Tenants))
	}
	per := uint64(total / mx.TotalThreads())
	for _, tr := range res.Tenants {
		if want := per * uint64(tr.Threads); tr.Instructions != want {
			t.Errorf("tenant %s retired %d instructions, want the even split %d", tr.Name, tr.Instructions, want)
		}
	}
}

// TestApplyRejectsOversizedSpecs: cohort footprints must fit the
// device's logical space, exactly like tenant mixes.
func TestApplyRejectsOversizedSpecs(t *testing.T) {
	huge := workloads.Def{
		Format:         workloads.DefFormatVersion,
		Name:           "huge-arr-w",
		FootprintPages: 1 << 20,
		Regions:        []workloads.RegionDef{{Name: "r", Start: 0, Size: 1}},
		Phases: []workloads.PhaseDef{{Ops: []workloads.OpDef{
			{Op: "load", Region: "r"},
			{Op: "compute", Min: 4},
		}}},
	}
	if err := workloads.Register(huge.MustSpec()); err != nil {
		t.Fatal(err)
	}
	sp := validSpec()
	sp.Cohorts[0].Workload = "huge-arr-w"
	sys := system.New(system.ScaledConfig().WithVariant(system.BaseCSSD))
	err := sp.Apply(sys, 1000, 1, 1)
	if err == nil || !strings.Contains(err.Error(), "footprint") {
		t.Fatalf("oversized spec accepted (err=%v)", err)
	}
}
