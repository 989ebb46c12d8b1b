package arrival

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"strings"

	"skybyte/internal/registry"
	"skybyte/internal/system"
	"skybyte/internal/tenant"
	"skybyte/internal/workloads"
)

// SpecFormatVersion names the declarative arrival-spec format. It
// appears as the required "format" field of every spec file and is
// folded into each spec's fingerprint, so a format change can never
// silently reinterpret an old file.
const SpecFormatVersion = 1

// DefaultReqInstr is the request size (instructions) a cohort gets
// when its spec leaves req_instr unset: roughly one YCSB-style
// transaction's worth of work.
const DefaultReqInstr = 2000

// Spec is one open-loop traffic description: a named set of client
// cohorts. Like workload Defs and tenant Mixes, specs are data —
// format-versioned, canonically fingerprinted, resolvable by name —
// and their source identity (folding every member workload/mix)
// reaches the runner key, so the persistent result store re-keys the
// moment a spec or anything it references changes, and only then.
type Spec struct {
	// Format must equal SpecFormatVersion.
	Format int `json:"format"`
	// Name is the spec's registry name (same character set as workload
	// names).
	Name string `json:"name"`
	// Cohorts lists the client populations in declaration order.
	Cohorts []Cohort `json:"cohorts"`
}

// Cohort is one client population: threads replaying a workload (or a
// whole tenant mix) as paced open-loop requests of one SLO class.
type Cohort struct {
	// Name labels the cohort (defaults to its workload/mix name).
	Name string `json:"name,omitempty"`
	// Workload names the workload the cohort's threads replay; exactly
	// one of Workload and Mix must be set. Resolution happens at run
	// time, so a spec may reference workloads registered after it.
	Workload string `json:"workload,omitempty"`
	// Mix instead attaches a whole tenant mix: each mix tenant becomes
	// its own tenant group (named cohort/tenant) with the mix's thread
	// layout, all sharing this cohort's process and SLO class. Threads
	// must be left unset — the mix declares its own.
	Mix string `json:"mix,omitempty"`
	// Threads is the cohort's software thread count (workload cohorts
	// only).
	Threads int `json:"threads,omitempty"`
	// Class names the cohort's SLO class (defaults to the cohort name).
	// Cohorts sharing a class report as one population.
	Class string `json:"class,omitempty"`
	// ReqInstr is the request size in instructions (default
	// DefaultReqInstr): a thread's trace is sliced into requests of
	// this many instructions, each released at a sampled arrival.
	ReqInstr uint64 `json:"req_instr,omitempty"`
	// Process is the interarrival distribution, per thread.
	Process Process `json:"process"`
	// Windows, when set, cycle a time-varying intensity schedule over
	// the process (bursts, diurnal shifts, phased build/query loads).
	Windows []Window `json:"windows,omitempty"`
}

// name is the cohort's effective label.
func (c Cohort) name() string {
	if c.Name != "" {
		return c.Name
	}
	if c.Workload != "" {
		return c.Workload
	}
	return c.Mix
}

// class is the cohort's effective SLO class.
func (c Cohort) class() string {
	if c.Class != "" {
		return c.Class
	}
	return c.name()
}

// reqInstr is the cohort's effective request size.
func (c Cohort) reqInstr() uint64 {
	if c.ReqInstr == 0 {
		return DefaultReqInstr
	}
	return c.ReqInstr
}

// normalized returns a copy with every defaulted field made explicit,
// so two specs that mean the same thing fingerprint identically.
func (sp Spec) normalized() Spec {
	sp.Cohorts = append([]Cohort(nil), sp.Cohorts...)
	for i := range sp.Cohorts {
		c := &sp.Cohorts[i]
		c.Name = c.name()
		c.Class = c.class()
		c.ReqInstr = c.reqInstr()
		if c.Process.Dist == DistGamma || c.Process.Dist == DistWeibull {
			c.Process.Shape = c.Process.shape()
		}
		c.Windows = append([]Window(nil), c.Windows...)
		for j := range c.Windows {
			c.Windows[j].EndScale = c.Windows[j].endScale()
		}
	}
	return sp
}

// Validate checks the spec against the format's contract and returns
// the first violation, phrased for a human editing a file. Workload
// and mix names are checked for well-formedness only — they resolve
// against the live registries at run time (Resolve checks that).
func (sp Spec) Validate() error {
	if sp.Format != SpecFormatVersion {
		return fmt.Errorf("arrival: %q: format %d, this build reads format %d", sp.Name, sp.Format, SpecFormatVersion)
	}
	if err := workloads.ValidateName(sp.Name); err != nil {
		return fmt.Errorf("arrival: spec %w", err)
	}
	if len(sp.Cohorts) == 0 {
		return fmt.Errorf("arrival: %q: at least one cohort required", sp.Name)
	}
	seen := map[string]bool{}
	for i, c := range sp.Cohorts {
		at := fmt.Sprintf("arrival: %q: cohort %d", sp.Name, i)
		switch {
		case c.Workload == "" && c.Mix == "":
			return fmt.Errorf("%s: needs a workload or a mix", at)
		case c.Workload != "" && c.Mix != "":
			return fmt.Errorf("%s: workload %q and mix %q are mutually exclusive", at, c.Workload, c.Mix)
		case c.Workload != "":
			if err := workloads.ValidateName(c.Workload); err != nil {
				return fmt.Errorf("%s: workload %w", at, err)
			}
			if c.Threads <= 0 {
				return fmt.Errorf("%s (%s): threads must be positive", at, c.name())
			}
		default:
			if err := workloads.ValidateName(c.Mix); err != nil {
				return fmt.Errorf("%s: mix %w", at, err)
			}
			if c.Threads != 0 {
				return fmt.Errorf("%s (%s): a mix cohort's thread layout comes from the mix; leave threads unset", at, c.name())
			}
		}
		if err := workloads.ValidateName(c.name()); err != nil {
			return fmt.Errorf("%s: %w", at, err)
		}
		if seen[c.name()] {
			return fmt.Errorf("%s: duplicate cohort name %q (set distinct \"name\" fields when two cohorts share a workload)", at, c.name())
		}
		seen[c.name()] = true
		if err := workloads.ValidateName(c.class()); err != nil {
			return fmt.Errorf("%s: class %w", at, err)
		}
		at = fmt.Sprintf("%s (%s)", at, c.name())
		if err := c.Process.validate(at); err != nil {
			return err
		}
		if err := validateWindows(c.Windows, at); err != nil {
			return err
		}
	}
	return nil
}

// groups is the one resolution of the spec's cohorts against the
// workload and mix registries: it flattens them, in declaration order,
// into tenant groups without a budget (a mix cohort expands to one
// group per mix tenant, named cohort/tenant), and counts[i] is cohort
// i's thread count. A cohort's threads are contiguous in the groups.
func (sp Spec) groups() (groups []tenant.Group, counts []int, err error) {
	counts = make([]int, len(sp.Cohorts))
	for i, c := range sp.Cohorts {
		var cohort []tenant.Group
		if c.Mix == "" {
			var w workloads.Spec
			w, err = workloads.ByName(c.Workload)
			cohort = []tenant.Group{{Name: c.name(), Workload: w, Threads: c.Threads}}
		} else {
			var m tenant.Mix
			if m, err = tenant.ByName(c.Mix); err == nil {
				cohort, err = m.Groups(0)
			}
			for k := range cohort {
				cohort[k].Name = c.name() + "/" + cohort[k].Name
			}
		}
		if err != nil {
			return nil, nil, fmt.Errorf("arrival: %q: cohort %q: %w", sp.Name, c.name(), err)
		}
		for _, g := range cohort {
			counts[i] += g.Threads
		}
		groups = append(groups, cohort...)
	}
	return groups, counts, nil
}

// Resolve checks that every cohort's workload or mix, and every mix
// member, resolves against the live registries — the CLIs call it
// before anything simulates, so a typo'd member name fails upfront
// with the full valid set, exactly like the -workload/-mix axes.
func (sp Spec) Resolve() error {
	_, _, err := sp.groups()
	return err
}

// Groups returns the tenant groups Apply lays out, without a budget: a
// caller checks them against a machine with tenant.Fit before building
// it.
func (sp Spec) Groups() ([]tenant.Group, error) {
	groups, _, err := sp.normalized().groups()
	return groups, err
}

// TotalThreads returns the spec's combined software thread count. Mix
// cohorts need their mix resolvable to know its layout.
func (sp Spec) TotalThreads() (int, error) {
	_, counts, err := sp.groups()
	n := 0
	for _, c := range counts {
		n += c
	}
	return n, err
}

// Classes returns the spec's SLO classes in first-appearance order,
// each with the analytic offered rate of its cohorts at the given
// intensity scale: threads × per-thread rate × schedule mean scale.
func (sp Spec) Classes(rateScale float64) ([]system.SLOClass, error) {
	_, counts, err := sp.groups()
	if err != nil {
		return nil, err
	}
	return sp.classes(counts, rateScale), nil
}

// classes is Classes over resolved per-cohort thread counts.
func (sp Spec) classes(counts []int, rateScale float64) []system.SLOClass {
	if rateScale <= 0 {
		rateScale = 1
	}
	var classes []system.SLOClass
	index := map[string]int{}
	for i, c := range sp.Cohorts {
		offered := float64(counts[i]) * c.Process.Rate * MeanScale(c.Windows) * rateScale
		name := c.class()
		if j, ok := index[name]; ok {
			classes[j].OfferedRPS += offered
			continue
		}
		index[name] = len(classes)
		classes = append(classes, system.SLOClass{Name: name, OfferedRPS: offered})
	}
	return classes
}

// Fingerprint returns the spec's stable content identity: a hex digest
// of its normalized canonical JSON, prefixed with the format version.
// It covers the spec *shape* only; SourceID additionally folds the
// member workloads'/mixes' source identities.
func (sp Spec) Fingerprint() string { return registry.Digest(SpecFormatVersion, sp.normalized()) }

// SourceID returns the full source identity of an arrival run: the
// spec's own fingerprint plus each member workload's or mix's
// SourceID. The runner folds it into the spec key, so editing the spec
// file, a member mix, or a member workload definition re-keys exactly
// the affected store entries. An unresolvable member contributes an
// "unresolved" marker (the run itself errors before simulating).
func (sp Spec) SourceID() string {
	var b strings.Builder
	fmt.Fprintf(&b, "arrival:%s", sp.Fingerprint())
	for _, c := range sp.Cohorts {
		if c.Mix != "" {
			src := "unresolved"
			if m, err := tenant.ByName(c.Mix); err == nil {
				src = m.SourceID()
			}
			fmt.Fprintf(&b, "|mix:%s=%s", c.Mix, src)
			continue
		}
		src := "unresolved"
		if w, err := workloads.ByName(c.Workload); err == nil {
			src = w.SourceID()
		}
		fmt.Fprintf(&b, "|%s=%s", c.Workload, src)
	}
	sum := sha256.Sum256([]byte(b.String()))
	return "arrival:" + hex.EncodeToString(sum[:])
}

// gateSeed derives the arrival-sampler stream seed for one global
// thread index: a distinct mixing from the workload-stream seeds, so
// arrival draws never correlate with address draws.
func gateSeed(seed uint64, thread int) uint64 {
	return seed*0xC2B2AE3D + uint64(thread)*0x165667B1 + 5
}

// ValidateScale checks an offered-intensity scale: it must be finite
// and not negative (0 means 1).
func ValidateScale(scale float64) error {
	if math.IsNaN(scale) || math.IsInf(scale, 0) || scale < 0 {
		return fmt.Errorf("arrival: intensity scale %v not accepted; want a finite scale >= 0 (0 means 1)", scale)
	}
	return nil
}

// Apply resolves the spec against the workload and mix registries and
// populates sys as an open-loop run: the cohorts become tenant groups
// laid out by tenant.Layout (a mix cohort expands to one group per mix
// tenant, named cohort/tenant), SLO classes are declared with their
// analytic offered rates, and every thread gets an arrival gate with
// its own deterministic sampler stream. rateScale multiplies every
// cohort's rate — the campaign's intensity axis; 0 means 1. The
// instruction budget splits evenly across all threads, mix cohorts
// included (a mix tenant's intensity does not apply here); pacing
// comes from the arrival processes, not the budget.
func (sp Spec) Apply(sys *system.System, totalInstr, seed uint64, rateScale float64) error {
	if err := sp.Validate(); err != nil {
		return err
	}
	if err := ValidateScale(rateScale); err != nil {
		return err
	}
	n := sp.normalized()
	groups, cohortThreads, err := n.groups()
	if err != nil {
		return err
	}
	total := 0
	for _, t := range cohortThreads {
		total += t
	}
	per := totalInstr / uint64(total)
	for i := range groups {
		groups[i].Per = per
	}
	classes := n.classes(cohortThreads, rateScale)
	threads, err := tenant.Layout(sys, groups, seed)
	if err != nil {
		return fmt.Errorf("arrival: %q: %w (shrink the spec or grow the machine)", n.Name, err)
	}

	sys.DeclareSLOClasses(classes)
	classIdx := map[string]int{}
	for i, cl := range classes {
		classIdx[cl.Name] = i
	}
	t := 0
	for i, c := range n.Cohorts {
		for k := 0; k < cohortThreads[i]; k++ {
			gen := NewGen(c.Process, c.Windows, rateScale, gateSeed(seed, t))
			sys.AttachGate(threads[t], classIdx[c.Class], gen, c.ReqInstr)
			t++
		}
	}
	return nil
}

// --- registry ---

// reg holds the code-defined specs and every spec registered at
// start-up, under the workload registry's contract: register before
// building runners or harnesses; re-registering a name replaces it
// (the file-editing loop); built-in names are reserved.
var reg = registry.New(registry.Kind[Spec]{
	Pkg:       "arrival",
	Noun:      "arrival spec",
	File:      "arrival spec",
	Tag:       "skybyte-arrivals|",
	Builtins:  func() []Spec { return []Spec{openSteady(), openBurst()} },
	Name:      func(sp Spec) string { return sp.Name },
	SourceID:  Spec.SourceID,
	Validate:  Spec.Validate,
	Normalize: Spec.normalized,
})

// Builtins returns the code-defined arrival specs: the steady
// two-class population figopen sweeps, and a bursty time-varying
// schedule. The returned slice is shared — do not mutate.
func Builtins() []Spec { return reg.Builtins() }

// openSteady is figopen's default population: a latency-sensitive
// zipfian point-lookup cohort against a burstier transactional batch
// cohort (gamma k=0.25 gives CV-2 interarrival bursts). Threads
// oversubscribe the 8 cores so the context-switch variants operate as
// designed, and base rates are calibrated against the measured
// saturated capacities (Base-CSSD ≈ 25k rps, SkyByte-Full ≈ 33k rps on
// the latency class under ScaledConfig): intensity scale 1 sits below
// every variant's knee, scale 2 lands between Base-CSSD's and
// SkyByte-Full's, and scale 4 is past both.
func openSteady() Spec {
	return Spec{
		Format: SpecFormatVersion,
		Name:   "open-steady",
		Cohorts: []Cohort{
			{Name: "point", Workload: "ycsb", Threads: 12, Class: "latency",
				Process: Process{Dist: DistPoisson, Rate: 1200}},
			{Name: "batch", Workload: "tpcc", Threads: 6, Class: "batch",
				Process: Process{Dist: DistGamma, Rate: 600, Shape: 0.25}},
		},
	}
}

// openBurst drives one cohort through a cyclic burst schedule: a quiet
// baseline, a linear ramp into a 3x peak, and a decay back — the
// diurnal-shift shape, compressed to simulation scale.
func openBurst() Spec {
	return Spec{
		Format: SpecFormatVersion,
		Name:   "open-burst",
		Cohorts: []Cohort{
			{Name: "burst", Workload: "ycsb", Threads: 8, Class: "burst",
				Process: Process{Dist: DistPoisson, Rate: 800},
				Windows: []Window{
					{DurUS: 40, Scale: 1},
					{DurUS: 20, Scale: 1, EndScale: 3},
					{DurUS: 20, Scale: 3},
					{DurUS: 20, Scale: 3, EndScale: 1},
				}},
		},
	}
}

// Register adds a spec to the registry, making it resolvable by name
// everywhere a built-in spec is — ByName, figopen's spec set, the
// CLIs' -arrival flags. The spec must validate; built-in names are
// reserved; re-registering a registered name replaces it.
func Register(sp Spec) error { return reg.Register(sp) }

// Names returns every resolvable spec name: built-ins first, then
// registered specs in registration order.
func Names() []string { return reg.Names() }

// ByName resolves any known arrival spec — built-in or registered.
// Unknown names error with the full valid list.
func ByName(name string) (Spec, error) { return reg.ByName(name) }

// FromFile loads a spec from a versioned JSON file (WORKLOADS.md
// documents the schema). It is strictly decoded: unknown fields and
// trailing data are rejected so a typo fails loudly instead of
// silently meaning "default". The returned Spec is validated but not
// registered; RegisterFile also makes it resolvable by name.
func FromFile(path string) (Spec, error) { return reg.FromFile(path) }

// RegisterFile loads a spec from path (FromFile) and registers it, so
// campaigns and CLIs can select it by name like a built-in.
func RegisterFile(path string) (Spec, error) { return reg.RegisterFile(path, FromFile) }

// RegistryFingerprint digests the full resolvable spec set — every
// name mapped to its SourceID, sorted. Campaign-level external cache
// keys (skybyte.CampaignFingerprint) fold it in next to the workload
// and mix registry fingerprints, so a CI cache key rotates when any
// arrival spec — or anything one references — changes.
func RegistryFingerprint() string { return reg.Fingerprint() }
