package workloads

// Extras returns the extra built-in scenarios beyond Table I. Each is
// composed entirely from the declarative primitives of def.go — they
// are the in-tree proof that new scenarios are data, not code (the
// same definitions, written as JSON, load byte-for-byte equivalently
// via FromFile). The optional figext experiments table compares them
// across design points; WORKLOADS.md documents each.
func Extras() []Spec {
	return []Spec{scanHeavy().MustSpec(), logAppend().MustSpec(), graph500().MustSpec()}
}

// scanHeavy models an analytics column scan: long sequential reads
// over a large fact table (multi-line runs — the spatial pattern the
// Base-CSSD prefetcher and the page-granular SSD cache love), zipfian
// probes into a small dimension table, and rare aggregation-buffer
// writes. Nearly read-only, high spatial locality, bandwidth-bound.
func scanHeavy() Def {
	return Def{
		Format:         DefFormatVersion,
		Name:           "scan-heavy",
		Suite:          "extra",
		FootprintPages: 40 * 1024, // 160 MB at 1/64 scale
		WriteRatio:     0.03,
		Regions: []RegionDef{
			{Name: "fact", Start: 0, Size: 0.88},
			{Name: "dim", Start: 0.88, Size: 0.10},
			{Name: "agg", Start: 0.98, Size: 0.02},
		},
		Phases: []PhaseDef{{
			Name: "scan-chunk",
			Ops: []OpDef{
				{Op: "load", Region: "fact", Kernel: KernelSequential, Lines: 4, Count: 2},
				{Op: "compute", Min: 24, Max: 48},
				{Op: "load", Region: "dim", Kernel: KernelZipf, Theta: 0.8, Prob: F(0.5)},
				{Op: "compute", Min: 8, Max: 16},
				{Op: "store", Region: "agg", Kernel: KernelZipf, Theta: 0.6, Prob: F(0.3)},
			},
		}},
	}
}

// logAppend models a bursty log-structured writer: bursts of
// sequential appends, a zipfian index lookup before each burst, and a
// quiet compute phase between bursts. Write-dominated with dense
// append locality — deliberately the write log's adversarial case:
// §III-B's cacheline-granular log wins on sparse writes (Fig. 6),
// while dense appends dirty whole pages and favour the page-granular
// RMW path, so this scenario probes the regime where Base-CSSD's
// cache is already sufficient (figext shows the log costing, not
// saving, here).
func logAppend() Def {
	return Def{
		Format:         DefFormatVersion,
		Name:           "log-append",
		Suite:          "extra",
		FootprintPages: 36 * 1024, // 144 MB at 1/64 scale
		WriteRatio:     0.55,
		Regions: []RegionDef{
			{Name: "log", Start: 0, Size: 0.80},
			{Name: "index", Start: 0.80, Size: 0.20},
		},
		Phases: []PhaseDef{
			{
				Name:   "append-burst",
				Weight: F(3),
				Ops: []OpDef{
					{Op: "load", Region: "index", Kernel: KernelZipf, Theta: 0.7},
					{Op: "load", Region: "log", Kernel: KernelSequential},
					{Op: "compute", Min: 10, Max: 20},
					{Op: "store", Region: "log", Kernel: KernelSequential, Count: 3},
					{Op: "store", Region: "index", Kernel: KernelZipf, Theta: 0.7, Prob: F(0.4)},
				},
			},
			{
				Name:   "quiescent",
				Weight: F(1),
				Ops: []OpDef{
					{Op: "compute", Min: 80, Max: 160},
					{Op: "load", Region: "index", Kernel: KernelUniform},
				},
			},
		},
	}
}

// graph500 models a Graph500-style BFS kernel: a sequential frontier
// scan, pointer-chasing dependent probes of random neighbours (the
// low-MLP access shape that motivates the coordinated context switch),
// and sparse visited-bitmap updates. Latency-bound with near-zero
// spatial locality on the chase.
func graph500() Def {
	return Def{
		Format:         DefFormatVersion,
		Name:           "graph500",
		Suite:          "extra",
		FootprintPages: 44 * 1024, // 176 MB at 1/64 scale
		WriteRatio:     0.12,
		Regions: []RegionDef{
			{Name: "edges", Start: 0, Size: 0.62},
			{Name: "vertices", Start: 0.62, Size: 0.30},
			{Name: "visited", Start: 0.92, Size: 0.08},
		},
		Phases: []PhaseDef{{
			Name: "visit",
			Ops: []OpDef{
				{Op: "load", Region: "edges", Kernel: KernelSequential, Lines: 2},
				{Op: "compute", Min: 4, Max: 8},
				{Op: "load", Region: "vertices", Kernel: KernelZipf, Theta: 0.65, Dep: true, Count: 2},
				{Op: "compute", Min: 3, Max: 6},
				{Op: "load", Region: "vertices", Kernel: KernelUniform, Dep: true, Prob: F(0.6)},
				{Op: "store", Region: "visited", Kernel: KernelUniform, Prob: F(0.65)},
			},
		}},
	}
}
