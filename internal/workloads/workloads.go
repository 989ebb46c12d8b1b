// Package workloads is the simulator's workload engine. It ships the
// seven Table I benchmarks the paper evaluates (bc, bfs-dense, dlrm,
// radix, srad, tpcc, ycsb) as hand-coded deterministic generators,
// extra scenarios composed from declarative primitives (def.go,
// extras.go), file-loaded workloads (file.go; JSON definitions or
// recorded binary traces), and a registry (registry.go) that makes all
// of them resolvable by name everywhere a built-in is. The paper
// replays PIN-captured instruction traces; the generators reproduce
// each workload's measured characteristics instead — memory footprint
// (scaled 1/64 with the rest of the machine), write ratio, LLC miss
// intensity, spatial sparsity (Figs. 5–6) and dependence structure
// (graph traversals are pointer chases; DLRM gathers are independent)
// — so every simulator variant replays an identical, workload-shaped
// stream. DESIGN.md §1 documents this substitution; DESIGN.md §3 and
// WORKLOADS.md document the engine.
package workloads

import (
	"fmt"
	"math/bits"

	"skybyte/internal/mem"
	"skybyte/internal/stats"
	"skybyte/internal/trace"
)

// Spec describes one workload: its Table I-style characteristics plus
// exactly one generator — a hand-coded built-in, a declarative
// definition, or a recorded trace.
type Spec struct {
	Name string
	// Suite is the benchmark's origin (paper suite, "extra", "custom",
	// or "trace").
	Suite string
	// FootprintPages is the CXL-resident data footprint at 1/64 scale;
	// ForDevice sizes it for any other machine.
	FootprintPages uint64
	// WriteRatio is Table I's fraction of memory accesses that are writes.
	WriteRatio float64
	// PaperMPKI is Table I's LLC misses per kilo-instruction (the target
	// the generator approximates; EXPERIMENTS.md reports measured values).
	PaperMPKI float64
	// PaperFootprintGB is Table I's unscaled footprint, for documentation.
	PaperFootprintGB float64

	// Def, when set, is the declarative definition the stream compiles
	// from (extra built-ins and file-loaded workloads).
	Def *Def
	// Trace, when set, replays a recorded trace through the same
	// Stream interface (the seed is ignored — a trace is literal). The
	// reader streams straight off the encoded file one compressed
	// block at a time, so campaign memory stays bounded no matter how
	// large the recording is.
	Trace *trace.Reader
	// native is the hand-coded generator of the Table I seven.
	native func(Spec, int, *trace.RNG) trace.Stream
}

// FootprintBytes returns the scaled footprint in bytes.
func (s Spec) FootprintBytes() uint64 { return s.FootprintPages * mem.PageBytes }

// RefFlashBytes is the per-device flash capacity of the 1/64 machine
// (system.ScaledConfig), the device FootprintPages is sized for.
const RefFlashBytes = 2 * mem.GiB

// ForDevice returns s sized for a machine whose devices hold flashBytes
// of flash each — the one footprint rule of DESIGN.md §1: a generated
// workload's footprint is FootprintPages x flashBytes / RefFlashBytes,
// so footprints scale with the machine's capacities. A trace-backed
// workload replays literal addresses, so it runs only on the 1/64
// device and errors on any other. On the 1/64 device s is returned as
// is. s must carry its 1/64 footprint, as every registry lookup returns
// it: sizing a sized spec scales it twice.
func (s Spec) ForDevice(flashBytes uint64) (Spec, error) {
	if flashBytes == RefFlashBytes {
		return s, nil
	}
	if s.Trace != nil {
		return s, fmt.Errorf("workloads: %q replays recorded addresses, so it runs only on the 1/64 machine (%s of flash per device, not %s)",
			s.Name, stats.FormatGB(RefFlashBytes), stats.FormatGB(flashBytes))
	}
	hi, lo := bits.Mul64(s.FootprintPages, flashBytes)
	var pages uint64
	if hi < RefFlashBytes {
		pages, _ = bits.Div64(hi, lo, RefFlashBytes)
	}
	if pages == 0 {
		return s, fmt.Errorf("workloads: %q cannot be sized for a device of %s of flash", s.Name, stats.FormatGB(flashBytes))
	}
	s.FootprintPages = pages
	return s, nil
}

// Table1 lists the seven benchmarks in the paper's order. Footprints are
// Table I divided by the 64x capacity scaling (≥8 GB → ≥128 MB).
func Table1() []Spec {
	return []Spec{
		{Name: "bc", Suite: "GAP", FootprintPages: 32 * 1024, WriteRatio: 0.11, PaperMPKI: 39.4, PaperFootprintGB: 8.18, native: Spec.bc},
		{Name: "bfs-dense", Suite: "Rodinia", FootprintPages: 36 * 1024, WriteRatio: 0.25, PaperMPKI: 122.9, PaperFootprintGB: 9.13, native: Spec.bfsDense},
		{Name: "dlrm", Suite: "DLRM", FootprintPages: 48 * 1024, WriteRatio: 0.32, PaperMPKI: 5.1, PaperFootprintGB: 12.35, native: Spec.dlrm},
		{Name: "radix", Suite: "Splashv3", FootprintPages: 38 * 1024, WriteRatio: 0.29, PaperMPKI: 7.1, PaperFootprintGB: 9.60, native: Spec.radix},
		{Name: "srad", Suite: "Rodinia", FootprintPages: 32 * 1024, WriteRatio: 0.24, PaperMPKI: 7.5, PaperFootprintGB: 8.16, native: Spec.srad},
		{Name: "tpcc", Suite: "WHISPER", FootprintPages: 62 * 1024, WriteRatio: 0.36, PaperMPKI: 1.0, PaperFootprintGB: 15.77, native: Spec.tpcc},
		{Name: "ycsb", Suite: "WHISPER", FootprintPages: 38 * 1024, WriteRatio: 0.05, PaperMPKI: 92.2, PaperFootprintGB: 9.61, native: Spec.ycsb},
	}
}

// Table1Names returns the benchmark names in Table I order — the
// default campaign set. Names() lists the full resolvable set.
func Table1Names() []string {
	specs := Table1()
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.Name
	}
	return out
}

// Stream builds the deterministic instruction stream of one thread. All
// threads of a workload share the data arena and partition the work; the
// same (spec, thread, seed) always yields the identical stream, so every
// design variant replays the same section of the program (§VI-A).
// Trace-backed specs replay their records literally and ignore the seed.
func (s Spec) Stream(thread int, seed uint64) trace.Stream {
	if s.Trace != nil {
		return s.Trace.Stream(thread)
	}
	mix := trace.NewRNG(seed*0x9E37 + uint64(thread)*0x79B9 + 1)
	switch {
	case s.native != nil:
		return s.native(s, thread, mix)
	case s.Def != nil:
		return s.Def.stream(s, thread, mix)
	}
	panic("workloads: no generator for " + s.Name)
}

// --- address helpers ---

func (s Spec) lineAddr(page, line uint64) mem.Addr {
	return mem.CXLBase + mem.Addr(page%s.FootprintPages)*mem.PageBytes + mem.Addr(line%mem.LinesPerPage)*mem.LineBytes
}

func compute(n uint32) trace.Record   { return trace.Record{Kind: trace.Compute, N: n} }
func load(a mem.Addr) trace.Record    { return trace.Record{Kind: trace.Load, Addr: a} }
func loadDep(a mem.Addr) trace.Record { return trace.Record{Kind: trace.LoadDep, Addr: a} }
func store(a mem.Addr) trace.Record   { return trace.Record{Kind: trace.Store, Addr: a} }

// region is a sub-range of the arena, in pages.
type region struct {
	spec  Spec
	start uint64 // first page
	pages uint64
}

func (s Spec) region(startFrac, sizeFrac float64) region {
	start := uint64(startFrac * float64(s.FootprintPages))
	pages := uint64(sizeFrac * float64(s.FootprintPages))
	if pages == 0 {
		pages = 1
	}
	return region{spec: s, start: start, pages: pages}
}

func (r region) line(page, line uint64) mem.Addr {
	return r.spec.lineAddr(r.start+page%r.pages, line)
}

// --- bc: betweenness centrality (GAP) ---
//
// CSR graph traversal: short sequential runs over an edge list, a
// pointer-dependent hop to each neighbour's score (zipfian vertex
// popularity — power-law graphs), and occasional score updates (11%
// writes, one line per touched page: Fig. 6's sparse writes).
func (s Spec) bc(thread int, rng *trace.RNG) trace.Stream {
	edges := s.region(0, 0.55) // CSR edge lists
	scores := s.region(0.55, 0.45)
	pop := trace.NewZipf(rng, scores.pages, 0.75)
	cursor := uint64(thread) * 7919
	return &trace.BufGen{Refill: func(emit func(trace.Record)) bool {
		emit(compute(uint32(12 + rng.Intn(10))))
		// Walk a neighbour run in the edge list (spatially local).
		cursor += 3 + rng.Uint64n(5)
		base := cursor
		deg := 2 + rng.Intn(4)
		for i := 0; i < deg; i++ {
			emit(load(edges.line(base/8, base%8*8+uint64(i))))
		}
		// Chase two neighbours' scores (dependent).
		for i := 0; i < 2; i++ {
			emit(compute(uint32(6 + rng.Intn(6))))
			emit(loadDep(scores.line(pop.ScrambledNext(), rng.Uint64n(64))))
		}
		// Sparse score update (~11% of the ~9 memory ops above).
		if rng.Bool(0.82) {
			emit(store(scores.line(pop.ScrambledNext(), rng.Uint64n(64))))
		}
		return true
	}}
}

// --- bfs-dense: dense-frontier BFS (Rodinia) ---
//
// The highest-MPKI workload (122.9): nearly every visit probes random
// vertices through dependent loads, with 25% writes updating the
// visited/cost arrays as it sweeps.
func (s Spec) bfsDense(thread int, rng *trace.RNG) trace.Stream {
	graph := s.region(0, 0.7)
	state := s.region(0.7, 0.3)
	cursor := uint64(thread) * 104729
	return &trace.BufGen{Refill: func(emit func(trace.Record)) bool {
		emit(compute(uint32(3 + rng.Intn(4))))
		// Frontier scan line (sequential, cheap).
		cursor++
		emit(load(state.line(cursor/64, cursor%64)))
		// Probe two random neighbours (pointer chase).
		emit(loadDep(graph.line(rng.Uint64n(graph.pages), rng.Uint64n(64))))
		emit(compute(uint32(2 + rng.Intn(3))))
		emit(loadDep(graph.line(rng.Uint64n(graph.pages), rng.Uint64n(64))))
		// Mark visited / update cost: scattered sparse writes.
		if rng.Bool(0.95) {
			w := cursor*13 + rng.Uint64n(7)
			emit(store(state.line(w%state.pages, (w*7)%64)))
		}
		return true
	}}
}

// --- dlrm: deep-learning recommendation (embedding gathers) ---
//
// Each sample gathers a handful of embedding rows — independent random
// reads of one or two cachelines per page (Fig. 5's sparse reads) —
// followed by a dense MLP compute burst, then writes gradient updates back
// to the same rows (32% writes, sparse).
func (s Spec) dlrm(thread int, rng *trace.RNG) trace.Stream {
	tables := s.region(0, 0.9)
	dense := s.region(0.9, 0.1)
	hot := trace.NewZipf(rng, tables.pages, 0.6)
	step := uint64(thread) * 31
	return &trace.BufGen{Refill: func(emit func(trace.Record)) bool {
		step++
		rows := make([]mem.Addr, 0, 4)
		for i := 0; i < 4; i++ {
			row := tables.line(hot.ScrambledNext(), rng.Uint64n(64))
			rows = append(rows, row)
			emit(load(row)) // gathers are index-known: independent loads
			if rng.Bool(0.3) {
				emit(load(row + mem.LineBytes)) // second line of the row
			}
		}
		// Dense MLP layers: long compute with local activations.
		emit(load(dense.line(step%dense.pages, step%64)))
		emit(compute(uint32(180 + rng.Intn(120))))
		// Gradient writes to the same sparse rows.
		for _, row := range rows {
			if rng.Bool(0.6) {
				emit(store(row))
			}
		}
		return true
	}}
}

// --- radix: parallel radix sort (Splash-3) ---
//
// Streaming passes: sequential reads of the input partition (high spatial
// locality keeps MPKI at 7.1 despite the data intensity) and scattered
// single-line scatter writes into the output buckets (29% writes — the
// classic sparse-write pattern).
func (s Spec) radix(thread int, rng *trace.RNG) trace.Stream {
	input := s.region(0, 0.48)
	output := s.region(0.48, 0.48)
	hist := s.region(0.96, 0.04)
	cursor := uint64(thread) * input.pages / 8 * 64 // per-thread partition
	return &trace.BufGen{Refill: func(emit func(trace.Record)) bool {
		// Read the next keys sequentially.
		for i := 0; i < 4; i++ {
			cursor++
			emit(load(input.line(cursor/64, cursor%64)))
			emit(compute(uint32(10 + rng.Intn(8))))
		}
		// Histogram update (hot, cache-resident).
		emit(load(hist.line(rng.Uint64n(hist.pages), rng.Uint64n(64))))
		// Scatter the keys to random buckets: sparse single-line writes.
		for i := 0; i < 2; i++ {
			emit(store(output.line(rng.Uint64n(output.pages), rng.Uint64n(64))))
		}
		if rng.Bool(0.5) {
			emit(store(hist.line(rng.Uint64n(hist.pages), rng.Uint64n(64))))
		}
		emit(compute(uint32(30 + rng.Intn(20))))
		return true
	}}
}

// --- srad: speckle-reducing anisotropic diffusion (Rodinia) ---
//
// A 5-point stencil sweeping a 2D grid: row-sequential reads with
// neighbour rows (strong spatial locality), and strided sparse writes of
// the output grid (24% writes; srad benefits most from the write log).
func (s Spec) srad(thread int, rng *trace.RNG) trace.Stream {
	in := s.region(0, 0.5)
	out := s.region(0.5, 0.5)
	// 8192 rows of 128 lines: the three-row stencil working set stays
	// within the (scaled) shared LLC, matching srad's low paper MPKI.
	rowLines := in.pages * 64 / 8192
	if rowLines < 64 {
		rowLines = 64
	}
	cursor := uint64(thread) * rowLines * 1024
	return &trace.BufGen{Refill: func(emit func(trace.Record)) bool {
		cursor++
		idx := cursor
		// Centre + N/S neighbours (E/W fall in the same line).
		emit(load(in.line(idx/64, idx%64)))
		emit(load(in.line((idx+rowLines)/64, (idx+rowLines)%64)))
		emit(load(in.line((idx-rowLines)/64, (idx-rowLines)%64)))
		emit(compute(uint32(35 + rng.Intn(20))))
		// Strided output write (every other line), so roughly half the
		// lines of each output page are dirty when it is flushed.
		emit(store(out.line(idx/32, (idx*2)%64)))
		return true
	}}
}

// --- tpcc: OLTP transactions (WHISPER nstore) ---
//
// New-order style transactions over a strongly hot working set (warehouse
// and district rows live in the LLC — MPKI 1.0) with occasional trips to
// the large customer/stock tables and 36% writes concentrated on the hot
// rows.
func (s Spec) tpcc(thread int, rng *trace.RNG) trace.Stream {
	hotTbl := s.region(0, 0.0008) // warehouses+districts: LLC-resident
	stock := s.region(0.002, 0.6)
	log := s.region(0.602, 0.398)
	hotKey := trace.NewZipf(rng, hotTbl.pages*64, 0.5)
	custKey := trace.NewZipf(rng, stock.pages, 0.85)
	lsn := uint64(thread) * 65537
	return &trace.BufGen{Refill: func(emit func(trace.Record)) bool {
		emit(compute(uint32(150 + rng.Intn(100))))
		// Read + update hot rows (cache hits, still memory instructions).
		for i := 0; i < 3; i++ {
			k := hotKey.Next()
			emit(load(hotTbl.line(k/64, k%64)))
			if rng.Bool(0.25) {
				emit(store(hotTbl.line(k/64, k%64)))
			}
		}
		// Occasionally touch the big stock/customer table.
		if rng.Bool(0.35) {
			p := custKey.ScrambledNext()
			emit(loadDep(stock.line(p, rng.Uint64n(64))))
			if rng.Bool(0.6) {
				emit(store(stock.line(p, rng.Uint64n(64))))
			}
		}
		// Append to the redo log (sequential sparse writes).
		lsn++
		emit(store(log.line(lsn/64, lsn%64)))
		emit(compute(uint32(120 + rng.Intn(80))))
		return true
	}}
}

// --- ycsb: key-value store, workload B (WHISPER nstore) ---
//
// 95% reads / 5% updates over zipfian (θ=0.99) keys; a record spans 16
// lines (1 KB) but an op touches only a few — high MPKI (92.2) from the
// random record base plus a dependent hash-bucket probe.
func (s Spec) ycsb(thread int, rng *trace.RNG) trace.Stream {
	records := s.region(0, 0.9)
	index := s.region(0.9, 0.1)
	nKeys := records.pages * 4 // 4 records (1KB each) per page
	keys := trace.NewZipf(rng, nKeys, 0.99)
	return &trace.BufGen{Refill: func(emit func(trace.Record)) bool {
		emit(compute(uint32(8 + rng.Intn(8))))
		key := keys.ScrambledNext()
		// Hash-index probe, then the dependent record fetch.
		emit(load(index.line(key%index.pages, key%64)))
		rec := key / 4
		recLine := key % 4 * 16
		emit(loadDep(records.line(rec, recLine)))
		// Read a couple more fields of the record (same page).
		emit(load(records.line(rec, recLine+1)))
		if rng.Bool(0.5) {
			emit(load(records.line(rec, recLine+2)))
		}
		// 5% of operations update one field.
		if rng.Bool(0.18) {
			emit(store(records.line(rec, recLine+rng.Uint64n(3))))
		}
		emit(compute(uint32(10 + rng.Intn(10))))
		return true
	}}
}
