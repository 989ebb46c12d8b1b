package workloads

import (
	"fmt"
	"strings"

	"skybyte/internal/mem"
	"skybyte/internal/registry"
	"skybyte/internal/trace"
)

// DefFormatVersion names the declarative workload format. It appears
// as the required "format" field of every workload file and is folded
// into each definition's fingerprint, so a format change can never
// silently reinterpret an old file — the loader rejects the mismatch
// and the result store misses.
const DefFormatVersion = 1

// Def is a declarative workload definition: a footprint carved into
// named regions, walked by weighted phases whose ops compose the
// primitive access kernels (sequential, strided, uniform, zipfian,
// pointer-chase). A Def is a pure value — the stream it compiles to is
// a deterministic function of (definition, thread, seed) — so new
// scenarios are data, not code: WORKLOADS.md documents the on-file
// JSON form loadable via FromFile.
type Def struct {
	// Format must equal DefFormatVersion.
	Format int `json:"format"`
	// Name is the workload's registry name.
	Name string `json:"name"`
	// Suite labels provenance in tables (default "custom").
	Suite string `json:"suite,omitempty"`
	// FootprintPages sizes the CXL arena (4 KiB pages).
	FootprintPages uint64 `json:"footprint_pages"`
	// WriteRatio is the intended store fraction of memory ops, carried
	// for documentation and Table I-style comparisons; the phases and
	// ops determine the actual mix.
	WriteRatio float64 `json:"write_ratio,omitempty"`
	// PaperMPKI/PaperFootprintGB document a paper counterpart, if any.
	PaperMPKI        float64 `json:"paper_mpki,omitempty"`
	PaperFootprintGB float64 `json:"paper_footprint_gb,omitempty"`
	// Regions partition the arena by fractions of the footprint.
	Regions []RegionDef `json:"regions"`
	// Phases are units of work; each stream iteration picks one phase
	// (weighted) and emits its ops in order.
	Phases []PhaseDef `json:"phases"`
}

// RegionDef is a named sub-range of the arena, as fractions of the
// footprint. Regions may overlap (sharing pages is sometimes the
// point); Start+Size must stay within the footprint.
type RegionDef struct {
	Name  string  `json:"name"`
	Start float64 `json:"start"`
	Size  float64 `json:"size"`
}

// PhaseDef is one unit of work — a transaction, a vertex visit, a scan
// chunk. With several phases, each stream iteration picks one with
// probability proportional to Weight (nil means 1; an explicit 0 is
// honored — the phase never runs).
type PhaseDef struct {
	Name   string   `json:"name,omitempty"`
	Weight *float64 `json:"weight,omitempty"`
	Ops    []OpDef  `json:"ops"`
}

// OpDef is one primitive operation inside a phase.
type OpDef struct {
	// Op is "compute", "load", or "store".
	Op string `json:"op"`
	// Region names the target region (memory ops only).
	Region string `json:"region,omitempty"`
	// Kernel picks the address pattern: "sequential" (per-thread
	// cursor, default), "stride" (cursor advancing StrideLines),
	// "uniform" (random line), or "zipf" (scrambled zipfian page of
	// skew Theta, random line within it).
	Kernel string `json:"kernel,omitempty"`
	// Theta is the zipf skew in (0,1); required for the zipf kernel.
	Theta float64 `json:"theta,omitempty"`
	// StrideLines is the stride kernel's advance in cache lines.
	StrideLines uint64 `json:"stride_lines,omitempty"`
	// Lines touches this many consecutive lines per access (default 1).
	Lines int `json:"lines,omitempty"`
	// Count repeats the op per phase iteration (default 1).
	Count int `json:"count,omitempty"`
	// Prob emits the op with this probability (nil means 1; an
	// explicit 0 is honored — the op never emits).
	Prob *float64 `json:"prob,omitempty"`
	// Dep marks a load as pointer-chasing: it issues as a dependent
	// load that serializes behind outstanding misses.
	Dep bool `json:"dep,omitempty"`
	// Min/Max bound a compute burst's instruction count (uniform).
	Min uint32 `json:"min,omitempty"`
	Max uint32 `json:"max,omitempty"`
}

// Kernel names.
const (
	KernelSequential = "sequential"
	KernelStride     = "stride"
	KernelUniform    = "uniform"
	KernelZipf       = "zipf"
)

// F wraps a literal for the optional pointer-typed fields (Weight,
// Prob), which distinguish "omitted, use the default" from an explicit
// 0 in both Go literals and JSON.
func F(x float64) *float64 { return &x }

// weight is the phase's effective weight (nil → 1).
func (p PhaseDef) weight() float64 {
	if p.Weight == nil {
		return 1
	}
	return *p.Weight
}

// prob is the op's effective emit probability (nil → 1).
func (o OpDef) prob() float64 {
	if o.Prob == nil {
		return 1
	}
	return *o.Prob
}

// normalized returns a copy with every defaulted field made explicit,
// so two definitions that mean the same thing fingerprint identically
// and the compiled generator never re-derives defaults.
func (d Def) normalized() Def {
	if d.Suite == "" {
		d.Suite = "custom"
	}
	d.Regions = append([]RegionDef(nil), d.Regions...)
	d.Phases = append([]PhaseDef(nil), d.Phases...)
	for pi := range d.Phases {
		p := &d.Phases[pi]
		p.Weight = F(p.weight())
		p.Ops = append([]OpDef(nil), p.Ops...)
		for oi := range p.Ops {
			op := &p.Ops[oi]
			if op.Count == 0 {
				op.Count = 1
			}
			op.Prob = F(op.prob())
			if op.Op == "compute" {
				if op.Max < op.Min {
					op.Max = op.Min
				}
				continue
			}
			if op.Kernel == "" {
				op.Kernel = KernelSequential
			}
			if op.Lines == 0 {
				op.Lines = 1
			}
		}
	}
	return d
}

// Validate checks the definition against the format's contract and
// returns the first violation, phrased for a human editing a file.
func (d Def) Validate() error {
	if d.Format != DefFormatVersion {
		return fmt.Errorf("workloads: %q: format %d, this build reads format %d", d.Name, d.Format, DefFormatVersion)
	}
	if err := validateName(d.Name); err != nil {
		return err
	}
	if d.FootprintPages == 0 {
		return fmt.Errorf("workloads: %q: footprint_pages must be positive", d.Name)
	}
	if d.WriteRatio < 0 || d.WriteRatio > 1 {
		return fmt.Errorf("workloads: %q: write_ratio %v outside [0,1]", d.Name, d.WriteRatio)
	}
	if len(d.Regions) == 0 {
		return fmt.Errorf("workloads: %q: at least one region required", d.Name)
	}
	regions := map[string]bool{}
	for _, r := range d.Regions {
		if r.Name == "" {
			return fmt.Errorf("workloads: %q: unnamed region", d.Name)
		}
		if regions[r.Name] {
			return fmt.Errorf("workloads: %q: duplicate region %q", d.Name, r.Name)
		}
		regions[r.Name] = true
		if r.Start < 0 || r.Size <= 0 || r.Start+r.Size > 1.0001 {
			return fmt.Errorf("workloads: %q: region %q [start=%v size=%v] outside the footprint", d.Name, r.Name, r.Start, r.Size)
		}
	}
	if len(d.Phases) == 0 {
		return fmt.Errorf("workloads: %q: at least one phase required", d.Name)
	}
	totalWeight := 0.0
	for pi, p := range d.Phases {
		if p.weight() < 0 {
			return fmt.Errorf("workloads: %q: phase %d has negative weight", d.Name, pi)
		}
		totalWeight += p.weight()
		if len(p.Ops) == 0 {
			return fmt.Errorf("workloads: %q: phase %d has no ops", d.Name, pi)
		}
		for oi, op := range p.Ops {
			at := fmt.Sprintf("workloads: %q: phase %d op %d", d.Name, pi, oi)
			if op.Count < 0 {
				return fmt.Errorf("%s: negative count", at)
			}
			if pr := op.prob(); pr < 0 || pr > 1 {
				return fmt.Errorf("%s: prob %v outside [0,1]", at, pr)
			}
			switch op.Op {
			case "compute":
				// min >= 1 is the Record invariant (a Compute record
				// batches at least one instruction): a zero-instruction
				// burst would encode into traces the decoder rejects.
				if op.Min == 0 {
					return fmt.Errorf("%s: compute needs min >= 1 instructions (and optionally max)", at)
				}
				if op.Max != 0 && op.Max < op.Min {
					return fmt.Errorf("%s: max %d below min %d", at, op.Max, op.Min)
				}
			case "load", "store":
				if !regions[op.Region] {
					return fmt.Errorf("%s: unknown region %q", at, op.Region)
				}
				if op.Lines < 0 {
					return fmt.Errorf("%s: negative lines", at)
				}
				switch op.Kernel {
				case "", KernelSequential, KernelUniform:
				case KernelStride:
					if op.StrideLines == 0 {
						return fmt.Errorf("%s: stride kernel needs stride_lines", at)
					}
				case KernelZipf:
					if op.Theta <= 0 || op.Theta >= 1 {
						return fmt.Errorf("%s: zipf kernel needs theta in (0,1), got %v", at, op.Theta)
					}
				default:
					return fmt.Errorf("%s: unknown kernel %q (valid: %s)", at, op.Kernel,
						strings.Join([]string{KernelSequential, KernelStride, KernelUniform, KernelZipf}, ", "))
				}
				if op.Dep && op.Op == "store" {
					return fmt.Errorf("%s: dep applies to loads only", at)
				}
			default:
				return fmt.Errorf("%s: unknown op %q (valid: compute, load, store)", at, op.Op)
			}
		}
	}
	if totalWeight <= 0 {
		return fmt.Errorf("workloads: %q: phase weights sum to zero", d.Name)
	}
	return nil
}

// ValidateName checks a registry name (workloads and tenant mixes
// share the character set): letters, digits, '-', '_', '.', ':'.
func ValidateName(name string) error { return validateName(name) }

func validateName(name string) error {
	if name == "" {
		return fmt.Errorf("workloads: definition missing a name")
	}
	for _, r := range name {
		ok := r == '-' || r == '_' || r == '.' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (r >= '0' && r <= '9')
		if !ok {
			return fmt.Errorf("workloads: name %q contains %q; use letters, digits, '-', '_', '.', ':'", name, r)
		}
	}
	return nil
}

// Fingerprint returns the definition's stable content identity: a hex
// digest of its normalized canonical JSON, prefixed with the format
// version. Equivalent definitions (explicit vs defaulted fields) hash
// identically; any semantic change — and any format bump — changes it.
func (d Def) Fingerprint() string { return registry.Digest(DefFormatVersion, d.normalized()) }

// Spec validates the definition and wraps it as a runnable Spec.
func (d Def) Spec() (Spec, error) {
	if err := d.Validate(); err != nil {
		return Spec{}, err
	}
	n := d.normalized()
	return Spec{
		Name:             n.Name,
		Suite:            n.Suite,
		FootprintPages:   n.FootprintPages,
		WriteRatio:       n.WriteRatio,
		PaperMPKI:        n.PaperMPKI,
		PaperFootprintGB: n.PaperFootprintGB,
		Def:              &n,
	}, nil
}

// MustSpec is Spec for vetted in-tree definitions.
func (d Def) MustSpec() Spec {
	s, err := d.Spec()
	if err != nil {
		panic(err)
	}
	return s
}

// --- compilation ---

// opState is the per-thread mutable state of one op slot: a cursor for
// the sequential/stride kernels and a zipf sampler where needed. Every
// slot gets its own state so phases stay independent and the stream is
// reproducible record for record.
type opState struct {
	cursor uint64
	zipf   *trace.Zipf
}

// stream compiles the definition into one thread's deterministic
// record stream. The contract matches the hand-coded generators: the
// same (definition, thread, seed) always yields the identical stream,
// at any parallelism, because all state below is per-invocation.
func (d *Def) stream(s Spec, thread int, rng *trace.RNG) trace.Stream {
	type slot struct {
		op     OpDef
		region region
		st     opState
	}
	regions := map[string]region{}
	for _, r := range d.Regions {
		regions[r.Name] = s.region(r.Start, r.Size)
	}
	phases := make([][]*slot, len(d.Phases))
	weights := make([]float64, len(d.Phases))
	totalWeight := 0.0
	for pi, p := range d.Phases {
		weights[pi] = p.weight()
		totalWeight += p.weight()
		for _, op := range p.Ops {
			sl := &slot{op: op}
			if op.Op != "compute" {
				sl.region = regions[op.Region]
				switch op.Kernel {
				case KernelSequential, KernelStride:
					// Offset threads into disjoint parts of the region so
					// sequential walkers partition the work like the
					// hand-coded generators do.
					sl.st.cursor = uint64(thread) * 2654435761 % (sl.region.pages * mem.LinesPerPage)
				case KernelZipf:
					sl.st.zipf = trace.NewZipf(rng, sl.region.pages, op.Theta)
				}
			}
			phases[pi] = append(phases[pi], sl)
		}
	}
	pickPhase := func() int {
		if len(phases) == 1 {
			return 0
		}
		x := rng.Float64() * totalWeight
		for i, w := range weights {
			x -= w
			if x < 0 {
				return i
			}
		}
		return len(phases) - 1
	}
	emitMem := func(emit func(trace.Record), sl *slot) {
		r := sl.region
		lines := r.pages * mem.LinesPerPage
		var line uint64
		switch sl.op.Kernel {
		case KernelSequential:
			sl.st.cursor++
			line = sl.st.cursor
		case KernelStride:
			sl.st.cursor += sl.op.StrideLines
			line = sl.st.cursor
		case KernelUniform:
			line = rng.Uint64n(lines)
		case KernelZipf:
			line = sl.st.zipf.ScrambledNext()*mem.LinesPerPage + rng.Uint64n(mem.LinesPerPage)
		}
		for i := 0; i < sl.op.Lines; i++ {
			l := line + uint64(i)
			addr := r.line(l/mem.LinesPerPage, l%mem.LinesPerPage)
			switch {
			case sl.op.Op == "store":
				emit(store(addr))
			case sl.op.Dep:
				emit(loadDep(addr))
			default:
				emit(load(addr))
			}
		}
	}
	return &trace.BufGen{Refill: func(emit func(trace.Record)) bool {
		for _, sl := range phases[pickPhase()] {
			for i := 0; i < sl.op.Count; i++ {
				if pr := sl.op.prob(); pr < 1 && !rng.Bool(pr) {
					continue
				}
				if sl.op.Op == "compute" {
					n := sl.op.Min
					if sl.op.Max > sl.op.Min {
						n += uint32(rng.Intn(int(sl.op.Max - sl.op.Min + 1)))
					}
					emit(compute(n))
					continue
				}
				emitMem(emit, sl)
			}
		}
		return true
	}}
}
