// Package tenant is the multi-tenant subsystem: it lets one simulation
// assign *different* workloads to named thread groups and attributes
// the results per group. The paper evaluates every design point with
// all hardware threads replaying the same workload, but the target
// deployment — a CXL-SSD as pooled far memory — is inherently
// multi-tenant, and interference between co-located workloads is where
// these designs win or lose (OpenCXD, the CMM-H characterization). A
// Mix is declarative and JSON-loadable like a workload Def: tenants
// are data, not code, and a mix's canonical fingerprint (folding the
// source identity of every member workload) reaches the runner spec
// key, so the persistent result store re-keys the moment a mix file or
// a member definition changes — and only then.
//
// WORKLOADS.md documents the on-file schema; EXPERIMENTS.md documents
// the figmix solo-vs-co-located fairness table built on top.
package tenant

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"

	"skybyte/internal/mem"
	"skybyte/internal/osched"
	"skybyte/internal/registry"
	"skybyte/internal/system"
	"skybyte/internal/trace"
	"skybyte/internal/workloads"
)

// MixFormatVersion names the declarative mix format. It appears as the
// required "format" field of every mix file and is folded into each
// mix's fingerprint, so a format change can never silently reinterpret
// an old file.
const MixFormatVersion = 1

// Mix assigns workloads to named thread groups. Thread IDs are
// allocated contiguously in tenant declaration order; each tenant's
// threads replay its workload's streams 0..Threads-1 — the same
// streams a solo run of that workload with the same thread count
// replays, which is what makes solo-vs-co-located slowdowns
// apples-to-apples.
type Mix struct {
	// Format must equal MixFormatVersion.
	Format int `json:"format"`
	// Name is the mix's registry name (same character set as workload
	// names).
	Name string `json:"name"`
	// Tenants lists the thread groups in declaration order.
	Tenants []TenantDef `json:"tenants"`
}

// TenantDef is one thread group of a mix.
type TenantDef struct {
	// Name labels the group in tables and Result.Tenants (defaults to
	// the workload name).
	Name string `json:"name,omitempty"`
	// Workload names the workload the group's threads replay — any
	// resolvable name: Table I, the extension scenarios, or a
	// file-registered workload. Resolution happens at run time, so a
	// mix may reference workloads registered after it.
	Workload string `json:"workload"`
	// Threads is the group's software thread count.
	Threads int `json:"threads"`
	// Intensity scales the group's per-thread instruction budget
	// relative to an even split of the run's total (default 1): 0.5
	// models a tenant issuing half the work per thread, 2 a double-rate
	// tenant.
	Intensity float64 `json:"intensity,omitempty"`
}

// intensity is the tenant's effective budget scale (0 → 1).
func (t TenantDef) intensity() float64 {
	if t.Intensity == 0 {
		return 1
	}
	return t.Intensity
}

// normalized returns a copy with every defaulted field made explicit,
// so two mixes that mean the same thing fingerprint identically.
func (m Mix) normalized() Mix {
	m.Tenants = append([]TenantDef(nil), m.Tenants...)
	for i := range m.Tenants {
		t := &m.Tenants[i]
		if t.Name == "" {
			t.Name = t.Workload
		}
		t.Intensity = t.intensity()
	}
	return m
}

// Validate checks the mix against the format's contract and returns
// the first violation, phrased for a human editing a file. Workload
// names are checked for well-formedness only — they resolve against
// the live registry at run time.
func (m Mix) Validate() error {
	if m.Format != MixFormatVersion {
		return fmt.Errorf("tenant: %q: format %d, this build reads format %d", m.Name, m.Format, MixFormatVersion)
	}
	if err := workloads.ValidateName(m.Name); err != nil {
		return fmt.Errorf("tenant: mix %w", err)
	}
	if len(m.Tenants) == 0 {
		return fmt.Errorf("tenant: %q: at least one tenant required", m.Name)
	}
	seen := map[string]bool{}
	for i, t := range m.Tenants {
		at := fmt.Sprintf("tenant: %q: tenant %d", m.Name, i)
		if t.Workload == "" {
			return fmt.Errorf("%s: missing a workload", at)
		}
		if err := workloads.ValidateName(t.Workload); err != nil {
			return fmt.Errorf("%s: workload %w", at, err)
		}
		name := t.Name
		if name == "" {
			name = t.Workload
		}
		if err := workloads.ValidateName(name); err != nil {
			return fmt.Errorf("%s: %w", at, err)
		}
		if seen[name] {
			return fmt.Errorf("%s: duplicate tenant name %q (set distinct \"name\" fields when two tenants share a workload)", at, name)
		}
		seen[name] = true
		if t.Threads <= 0 {
			return fmt.Errorf("%s (%s): threads must be positive", at, name)
		}
		if t.Intensity < 0 {
			return fmt.Errorf("%s (%s): negative intensity", at, t.Workload)
		}
	}
	return nil
}

// TotalThreads returns the mix's combined software thread count.
func (m Mix) TotalThreads() int {
	n := 0
	for _, t := range m.Tenants {
		n += t.Threads
	}
	return n
}

// PerThreadInstr returns tenant i's per-thread instruction budget for
// a run of totalInstr total instructions: the even per-thread split of
// the total, scaled by the tenant's intensity. Pure integer-in,
// integer-out arithmetic on deterministic float operations, so every
// process computes identical budgets.
func (m Mix) PerThreadInstr(i int, totalInstr uint64) uint64 {
	total := m.TotalThreads()
	if total == 0 {
		return 0
	}
	return uint64(m.Tenants[i].intensity() * float64(totalInstr) / float64(total))
}

// Fingerprint returns the mix's stable content identity: a hex digest
// of its normalized canonical JSON, prefixed with the format version.
// It covers the mix *shape* only; SourceID additionally folds the
// member workloads' source identities.
func (m Mix) Fingerprint() string { return registry.Digest(MixFormatVersion, m.normalized()) }

// SourceID returns the full source identity of a mix run: the mix's
// own fingerprint plus each member workload's SourceID. It is the
// mix-side analogue of workloads.Spec.SourceID — the runner folds it
// into the spec key, so editing the mix file, changing a member
// definition, re-recording a member trace, or bumping a generator or
// codec version re-keys exactly the affected store entries. An
// unresolvable member contributes an "unresolved" marker (the run
// itself will error before simulating).
func (m Mix) SourceID() string {
	var b strings.Builder
	fmt.Fprintf(&b, "mix:%s", m.Fingerprint())
	for _, t := range m.Tenants {
		src := "unresolved"
		if w, err := workloads.ByName(t.Workload); err == nil {
			src = w.SourceID()
		}
		fmt.Fprintf(&b, "|%s=%s", t.Workload, src)
	}
	sum := sha256.Sum256([]byte(b.String()))
	return "mix:" + hex.EncodeToString(sum[:])
}

// Group is one thread group of a tenant layout: Threads threads
// replaying Workload's streams 0..Threads-1 (tenant-local indices,
// matching a solo run), each with a budget of Per instructions.
type Group struct {
	Name     string
	Workload workloads.Spec
	Threads  int
	Per      uint64
}

// Groups resolves the mix against the workload registry into its
// layout groups for a run of totalInstr total instructions: one per
// tenant in declaration order, under the tenant's normalized name, at
// the tenant's PerThreadInstr budget.
func (m Mix) Groups(totalInstr uint64) ([]Group, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	n := m.normalized()
	groups := make([]Group, len(n.Tenants))
	for i, t := range n.Tenants {
		w, err := workloads.ByName(t.Workload)
		if err != nil {
			return nil, fmt.Errorf("tenant: %q: %w", n.Name, err)
		}
		groups[i] = Group{Name: t.Name, Workload: w, Threads: t.Threads, Per: n.PerThreadInstr(i, totalInstr)}
	}
	return groups, nil
}

// Apply resolves the mix (Groups) and populates sys with it (Layout).
func (m Mix) Apply(sys *system.System, totalInstr, seed uint64) error {
	groups, err := m.Groups(totalInstr)
	if err != nil {
		return err
	}
	if _, err := Layout(sys, groups, seed); err != nil {
		return fmt.Errorf("tenant: %q: %w (shrink the mix or grow the machine)", m.Name, err)
	}
	return nil
}

// Fit sizes each group's workload for the machine cfg describes
// (workloads.Spec.ForDevice) and checks that the groups' combined
// footprint fits a device's logical space. It needs only the Config, so
// a caller can reject a layout before building the System; Layout
// applies the same check. The sized workloads return in group order.
func Fit(cfg system.Config, groups []Group) ([]workloads.Spec, error) {
	sized := make([]workloads.Spec, len(groups))
	flash := cfg.Geometry.Bytes()
	var pages uint64
	for i, g := range groups {
		w, err := g.Workload.ForDevice(flash)
		if err != nil {
			return nil, err
		}
		sized[i] = w
		pages += w.FootprintPages
	}
	if logical := cfg.FTL.LogicalPages(cfg.Geometry); pages > logical {
		return nil, fmt.Errorf("combined footprint %d pages exceeds the device's %d logical pages", pages, logical)
	}
	return sized, nil
}

// Layout is the one multi-tenant wiring of a System, shared by mixes
// and arrival specs: it declares groups as tenants in order and adds
// each group's threads, returning them in the order added.
//
// Each group occupies a disjoint arena: group i's streams shift by the
// cumulative footprint of the groups before it, so co-located groups
// contend for the link, the SSD DRAM, the write log, the flash dies,
// and the scheduler — the interference under study — but never alias
// each other's data. The groups must Fit the machine; otherwise Layout
// errors and leaves sys untouched.
func Layout(sys *system.System, groups []Group, seed uint64) ([]*osched.Thread, error) {
	sized, err := Fit(sys.Config(), groups)
	if err != nil {
		return nil, err
	}
	infos := make([]system.TenantInfo, len(groups))
	total := 0
	for i, g := range groups {
		infos[i] = system.TenantInfo{Name: g.Name, Workload: sized[i].Name, Threads: g.Threads}
		total += g.Threads
	}
	sys.DeclareTenants(infos)
	threads := make([]*osched.Thread, 0, total)
	var base uint64 // cumulative arena offset, in pages
	for i, g := range groups {
		w := sized[i]
		delta := mem.Addr(base) * mem.PageBytes
		for k := 0; k < g.Threads; k++ {
			threads = append(threads, sys.AddThreadFor(i, &trace.Offset{Src: w.Stream(k, seed), Delta: delta}, g.Per))
		}
		base += w.FootprintPages
	}
	return threads, nil
}

// --- registry ---

// reg holds the code-defined mixes and every mix registered at
// start-up, under the workload registry's contract: register before
// building runners or harnesses; re-registering a name replaces it
// (the file-editing loop); built-in names are reserved.
var reg = registry.New(registry.Kind[Mix]{
	Pkg:       "tenant",
	Noun:      "mix",
	File:      "mix definition",
	Tag:       "skybyte-mixes|",
	Builtins:  func() []Mix { return []Mix{graphVsLog(), scanVsPoint()} },
	Name:      func(m Mix) string { return m.Name },
	SourceID:  Mix.SourceID,
	Validate:  Mix.Validate,
	Normalize: Mix.normalized,
})

// Builtins returns the code-defined mixes: interference pairings of
// the extension scenarios and Table I workloads, used by the figmix
// fairness table. The returned slice is shared — do not mutate.
func Builtins() []Mix { return reg.Builtins() }

// graphVsLog co-locates the latency-bound Graph500-style pointer chase
// (the coordinated context switch's best case) with the bursty
// log-append writer (the write log's adversarial dense-write case):
// who pays for whose context switches and log drains?
func graphVsLog() Mix {
	return Mix{
		Format: MixFormatVersion,
		Name:   "graph-vs-log",
		Tenants: []TenantDef{
			{Name: "graph", Workload: "graph500", Threads: 4},
			{Name: "logger", Workload: "log-append", Threads: 4},
		},
	}
}

// scanVsPoint co-locates the bandwidth-bound sequential analytics scan
// with ycsb-style zipfian point lookups — the classic
// streaming-vs-latency-sensitive interference pairing.
func scanVsPoint() Mix {
	return Mix{
		Format: MixFormatVersion,
		Name:   "scan-vs-point",
		Tenants: []TenantDef{
			{Name: "scanner", Workload: "scan-heavy", Threads: 4},
			{Name: "pointer", Workload: "ycsb", Threads: 4},
		},
	}
}

// Register adds a mix to the registry, making it resolvable by name
// everywhere a built-in mix is — ByName, figmix's mix set, the CLIs'
// -mix flags. The mix must validate; built-in names are reserved;
// re-registering a registered name replaces it.
func Register(m Mix) error { return reg.Register(m) }

// Names returns every resolvable mix name: built-ins first, then
// registered mixes in registration order.
func Names() []string { return reg.Names() }

// ByName resolves any known mix — built-in or registered. Unknown
// names error with the full valid list.
func ByName(name string) (Mix, error) { return reg.ByName(name) }

// FromFile loads a mix from a versioned JSON file (WORKLOADS.md
// documents the schema). It is strictly decoded: unknown fields and
// trailing data are rejected so a typo fails loudly instead of
// silently meaning "default". The returned Mix is validated but not
// registered; RegisterFile also makes it resolvable by name.
func FromFile(path string) (Mix, error) { return reg.FromFile(path) }

// RegisterFile loads a mix from path (FromFile) and registers it, so
// campaigns and CLIs can select it by name like a built-in.
func RegisterFile(path string) (Mix, error) { return reg.RegisterFile(path, FromFile) }

// RegistryFingerprint digests the full resolvable mix set — every name
// mapped to its SourceID, sorted. Campaign-level external cache keys
// (skybyte.CampaignFingerprint) fold it in next to the workload
// registry fingerprint, so a CI cache key rotates when any mix — or
// any workload a mix references — changes.
func RegistryFingerprint() string { return reg.Fingerprint() }
