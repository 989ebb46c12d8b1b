// skybyte-trace inspects the workload generators that stand in for the
// paper's PIN traces: it prints a sample of records, summarises the
// stream's characteristics against Table I, records streams to the
// versioned on-disk trace format for later replay, and imports
// externally produced traces — ChampSim, DAMON, cachegrind — into the
// same format (WORKLOADS.md). It takes the same one selector per
// invocation as skybyte-sim (a workload, mix or arrival spec; two are
// an error) and analyses a workload as a one-group mix.
//
// Example:
//
//	skybyte-trace -workload bc -n 200000
//	skybyte-trace -workload radix -dump 30
//	skybyte-trace -workload ycsb -nthreads 24        # all 24 streams, analysed in parallel
//	skybyte-trace -workload-file my-workload.json -n 50000
//	skybyte-trace -mix graph-vs-log                  # per-tenant stream summary
//
// Record and replay: -record captures the deterministic streams to a
// file; the file then loads as a workload anywhere (-workload-file on
// any CLI, skybyte.WorkloadFromFile) and replays record for record —
// re-recording a replay reproduces the file bit for bit, and a replay
// cut at the same instruction budget reproduces a simulation's Result
// bit for bit:
//
//	skybyte-trace -workload ycsb -nthreads 24 -record-instr 16000 -record ycsb.trc
//	skybyte-sim -workload-file ycsb.trc -variant SkyByte-Full -threads 24 -instr 16000
//
// Files are written in the block-compressed v2 container, which
// replays with bounded memory; legacy flat v1 files still load, and
// re-recording one writes v2.
//
// Import: -import <format>:<path> converts an external trace and
// either records it (-record) or analyses it like any workload. A bare
// path works too when its extension names the format (unrecognized
// extensions fail loudly with the valid set — never a silent guess).
// For champsim, the path may be a directory or glob of per-CPU trace
// files; each file becomes one real thread stream. The converted file
// carries provenance meta (source name, sha256, converter revision)
// and loads as workload "trace:<format>:<source>":
//
//	skybyte-trace -import champsim:600.perlbench.bin -record perlbench.trc
//	skybyte-trace -import 'champsim:traces/cpu*.champsimtrace' -record perlbench-4cpu.trc
//	skybyte-sim -workload-file perlbench.trc -variant SkyByte-Full
//	skybyte-trace -import damon:damon-raw.txt          # analyse without recording
//
// -make-fixture <format>:<path> writes a tiny synthetic source file in
// an external format (the importer test/CI fixture generator, handy
// for trying the pipeline without a real trace).
package main

import (
	"flag"
	"fmt"
	"math"
	"math/bits"
	"os"
	"path/filepath"
	"runtime"
	"sync"

	"skybyte"
	"skybyte/cmd/internal/profile"
	"skybyte/cmd/internal/selector"
	"skybyte/internal/arrival"
	"skybyte/internal/mem"
	"skybyte/internal/stats"
	"skybyte/internal/telemetry"
	"skybyte/internal/tenant"
	"skybyte/internal/trace"
	"skybyte/internal/traceimport"
)

// summary is one thread stream's measured characteristics.
type summary struct {
	thread    int
	kinds     map[trace.Kind]uint64
	instrs    uint64
	pages     map[uint64]bool
	pageLines map[uint64]uint64 // page -> line bitmask
}

// analyze drains up to n records of one thread's stream. Streams are
// independent deterministic generators, so distinct threads may be
// analysed concurrently.
func analyze(w skybyte.Workload, thread int, seed uint64, n, dump int) summary {
	st := w.Stream(thread, seed)
	s := summary{
		thread:    thread,
		kinds:     map[trace.Kind]uint64{},
		pages:     map[uint64]bool{},
		pageLines: map[uint64]uint64{},
	}
	dumped := 0
	for i := 0; i < n; i++ {
		r, ok := st.Next()
		if !ok {
			break
		}
		if dumped < dump {
			fmt.Printf("%6d  %-8s", i, r.Kind)
			if r.Kind == trace.Compute {
				fmt.Printf("  n=%d\n", r.N)
			} else {
				fmt.Printf("  %#x (page %d, line %d)\n", uint64(r.Addr), r.Addr.PageNumber(), r.Addr.LineIndex())
			}
			dumped++
		}
		s.kinds[r.Kind]++
		s.instrs += r.Instructions()
		if r.Kind != trace.Compute {
			p := r.Addr.PageNumber()
			s.pages[p] = true
			s.pageLines[p] |= 1 << r.Addr.LineIndex()
		}
	}
	return s
}

func (s summary) memOps() uint64 {
	return s.kinds[trace.Load] + s.kinds[trace.LoadDep] + s.kinds[trace.Store]
}

func main() {
	sel := selector.Declare(flag.CommandLine, false)
	var (
		n        = flag.Int("n", 100000, "records to analyse (or record) per thread")
		dump     = flag.Int("dump", 0, "records to print verbatim (single-thread workload analysis only)")
		thread   = flag.Int("thread", 0, "thread id")
		nthreads = flag.Int("nthreads", 1, "analyse (or record) this many thread streams (ids 0..n-1)")
		parallel = flag.Int("parallel", 0, "streams analysed concurrently (0 = GOMAXPROCS)")
		seed     = flag.Uint64("seed", 1, "workload seed")
		record   = flag.String("record", "", "record the workload's streams to this trace file instead of analysing; with -import, write the full conversion")
		recInstr = flag.Uint64("record-instr", 0, "with -record: cut each stream at this instruction budget (matching a simulation's -instr) instead of at -n records")
		fixture  = flag.String("make-fixture", "", "write a tiny synthetic external-format source file, <format>:<path>, then exit (importer demo/CI fixture)")
		checkTL  = flag.String("check-timeline", "", "validate a Chrome trace-event timeline written by skybyte-sim -timeline (JSON shape and per-track span nesting), then exit; a violation is a non-zero exit")
	)
	prof := profile.Declare(flag.CommandLine)
	flag.Parse()
	defer prof.Start()()
	// Which flags were given explicitly matters: cut flags do not apply
	// to an import's conversion, and defaults mean "reproduce the source
	// exactly" when re-recording a trace.
	explicit := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	fail := func(code int, err error) {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(code)
	}

	if *checkTL != "" {
		data, err := os.ReadFile(*checkTL)
		if err != nil {
			fail(1, err)
		}
		spans, tracks, err := telemetry.ValidateChromeTrace(data)
		if err != nil {
			fail(1, fmt.Errorf("%s: %w", *checkTL, err))
		}
		fmt.Printf("timeline OK: %d spans across %d tracks, spans nest within every track\n", spans, tracks)
		return
	}

	if *fixture != "" {
		format, path, err := traceimport.ParseSpec(*fixture)
		if err == nil {
			err = traceimport.WriteFixture(format, path)
		}
		if err != nil {
			fail(1, err)
		}
		fmt.Printf("wrote synthetic %s fixture to %s\n", format, path)
		fmt.Printf("import with: skybyte-trace -import %s:%s -record %s.trc\n", format, path, path)
		return
	}

	choice, err := sel.Choice()
	if err != nil {
		fail(2, err)
	}
	if choice.Flag == selector.Import && *record != "" {
		// Convert an external trace straight to a .trc: the records
		// pass through verbatim (no cut), with provenance meta sealed
		// into the file, and nothing is registered. Cut flags would be
		// silently meaningless here, so refuse them — record the full
		// conversion, then re-record the .trc with -workload-file and
		// the desired cut.
		for _, f := range []string{"n", "record-instr", "nthreads", "seed", "thread"} {
			if explicit[f] {
				fail(2, fmt.Errorf("-import -record writes the full conversion verbatim; -%s does not apply (record first, then re-record the .trc with -workload-file and your cut)", f))
			}
		}
		if err := recordImport(choice.Value, *record); err != nil {
			fail(1, err)
		}
		return
	}
	if *dump > 0 && *nthreads > 1 {
		fail(2, fmt.Errorf("-dump prints one stream's records; it cannot be combined with -nthreads %d", *nthreads))
	}

	spec, err := sel.Resolve()
	if err != nil {
		fail(2, err)
	}
	if spec.Workload == "" && (*record != "" || *dump > 0) {
		fail(2, fmt.Errorf("-record and -dump take one workload's streams; record or dump each member workload of a mix or arrival spec on its own"))
	}
	// The selector resolved the spec's names and members, so the lookups
	// below cannot fail.
	switch {
	case spec.Arrival != "":
		a, _ := skybyte.ArrivalByName(spec.Arrival)
		analyzeArrival(a, *n, *seed)
	case spec.Mix != "":
		m, _ := skybyte.MixByName(spec.Mix)
		groups, _ := m.Groups(0)
		reportMix(m, groups, analyzeGroups(groups, allThreads(groups), *seed, *n, 0, *parallel), *n)
	default:
		w, _ := skybyte.WorkloadByName(spec.Workload)
		if *record != "" {
			if err := recordTrace(w, *record, *nthreads, *n, *recInstr, *seed, explicit); err != nil {
				fail(1, err)
			}
			return
		}
		// A workload is the one-group case of a mix: its -nthreads
		// streams, or the single stream -thread.
		groups := []tenant.Group{{Name: w.Name, Workload: w, Threads: *nthreads}}
		jobs := allThreads(groups)
		if *nthreads <= 1 {
			jobs = []job{{group: 0, thread: *thread}}
		}
		reportWorkload(w, analyzeGroups(groups, jobs, *seed, *n, *dump, *parallel), *n, *nthreads > 1)
	}
}

// job is one stream to analyse: thread of groups[group].
type job struct{ group, thread int }

// allThreads lists every stream of groups, group by group in thread
// order.
func allThreads(groups []tenant.Group) []job {
	var jobs []job
	for g, grp := range groups {
		for k := 0; k < grp.Threads; k++ {
			jobs = append(jobs, job{g, k})
		}
	}
	return jobs
}

// analyzeGroups drains n records of every job's stream across a bounded
// worker pool of parallel goroutines (0 = GOMAXPROCS) and returns the
// summaries in job order, whatever the completion order. Streams are
// independent deterministic generators, so they analyse concurrently.
func analyzeGroups(groups []tenant.Group, jobs []job, seed uint64, n, dump, parallel int) []summary {
	workers := parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	sums := make([]summary, len(jobs))
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for ji, j := range jobs {
		wg.Add(1)
		go func(ji int, j job) {
			defer wg.Done()
			sem <- struct{}{}
			sums[ji] = analyze(groups[j.group].Workload, j.thread, seed, n, dump)
			<-sem
		}(ji, j)
	}
	wg.Wait()
	return sums
}

// reportWorkload prints one workload's stream summary: a per-thread
// table when several streams were analysed, then the aggregate against
// Table I and the Fig. 5/6 style line-usage distribution.
func reportWorkload(w skybyte.Workload, sums []summary, n int, perThread bool) {
	fmt.Printf("\nworkload %s (%s, paper footprint %.2fGB, paper MPKI %.1f)\n",
		w.Name, w.Suite, w.PaperFootprintGB, w.PaperMPKI)
	if perThread {
		fmt.Printf("%-8s %12s %12s %10s %8s\n", "thread", "instrs", "mem ops", "stores", "pages")
		for _, s := range sums {
			fmt.Printf("%-8d %12d %12d %10d %8d\n", s.thread, s.instrs, s.memOps(), s.kinds[trace.Store], len(s.pages))
		}
	}

	// Aggregate across the analysed streams.
	var (
		kinds     = map[trace.Kind]uint64{}
		instrs    uint64
		pages     = map[uint64]bool{}
		pageLines = map[uint64]uint64{}
	)
	for _, s := range sums {
		for k, v := range s.kinds {
			kinds[k] += v
		}
		instrs += s.instrs
		for p := range s.pages {
			pages[p] = true
		}
		for p, mask := range s.pageLines {
			pageLines[p] |= mask
		}
	}

	memOps := kinds[trace.Load] + kinds[trace.LoadDep] + kinds[trace.Store]
	fmt.Printf("instructions     %d (%d records/thread, %d threads)\n", instrs, n, len(sums))
	fmt.Printf("memory ops       %d (%.1f per 100 instr)\n", memOps, 100*float64(memOps)/float64(instrs))
	totalLoads := kinds[trace.Load] + kinds[trace.LoadDep]
	depFrac := 0.0
	if totalLoads > 0 {
		depFrac = float64(kinds[trace.LoadDep]) / float64(totalLoads)
	}
	fmt.Printf("  loads          %d (%.1f%% dependent/pointer-chasing)\n", totalLoads, 100*depFrac)
	fmt.Printf("  stores         %d (write ratio %.1f%%, Table I: %.0f%%)\n",
		kinds[trace.Store], 100*float64(kinds[trace.Store])/float64(memOps), 100*w.WriteRatio)
	fmt.Printf("pages touched    %d of %d footprint (%s)\n", len(pages), w.FootprintPages, stats.FormatGB(w.FootprintBytes()))

	// Spatial sparsity: the Fig. 5/6 style line-usage distribution.
	var dist stats.Distribution
	for _, mask := range pageLines {
		dist.Add(float64(bits.OnesCount64(mask)) / float64(mem.LinesPerPage))
	}
	fmt.Printf("line usage/page  mean %.1f%% of 64 lines; %.0f%% of pages use <=25%% of lines\n",
		100*dist.Mean(), 100*dist.FractionAtOrBelow(0.25))
}

// reportMix prints one aggregate row per tenant of a multi-tenant mix
// (its streams at its thread count, sums in allThreads order), so the
// interference study's inputs can be inspected before a simulation
// runs.
func reportMix(m skybyte.Mix, groups []tenant.Group, sums []summary, n int) {
	fmt.Printf("\nmix %s (%d tenants, %d threads, %d records/thread)\n",
		m.Name, len(m.Tenants), m.TotalThreads(), n)
	fmt.Printf("%-10s %-12s %8s %12s %12s %10s %8s %10s\n",
		"tenant", "workload", "threads", "instrs", "mem ops", "stores", "pages", "write%")
	for _, g := range groups {
		var instrs, memOps, stores uint64
		pages := map[uint64]bool{}
		for _, s := range sums[:g.Threads] {
			instrs += s.instrs
			memOps += s.memOps()
			stores += s.kinds[trace.Store]
			for p := range s.pages {
				pages[p] = true
			}
		}
		sums = sums[g.Threads:]
		wr := 0.0
		if memOps > 0 {
			wr = float64(stores) / float64(memOps)
		}
		fmt.Printf("%-10s %-12s %8d %12d %12d %10d %8d %9.1f%%\n",
			g.Name, g.Workload.Name, g.Threads, instrs, memOps, stores, len(pages), 100*wr)
	}
}

// analyzeArrival summarises an open-loop arrival spec: each cohort's
// process parameters (rate, analytic CV, schedule shape) next to
// statistics measured from n sampled interarrival gaps of the cohort's
// first gate, so the traffic an open-loop run will offer can be
// inspected before any simulation. The selector has resolved the
// cohorts' members, so TotalThreads cannot fail.
func analyzeArrival(a skybyte.Arrival, n int, seed uint64) {
	threads, _ := a.TotalThreads()
	fmt.Printf("\narrival %s (%d cohorts, %d threads, %d gaps sampled/cohort)\n",
		a.Name, len(a.Cohorts), threads, n)
	fmt.Printf("%-10s %-12s %8s %-8s %-14s %8s %10s %12s %12s %8s %8s\n",
		"cohort", "generator", "threads", "class", "process", "windows", "rps/thread", "mean gap", "sampled", "cv", "sampled")
	for _, c := range a.Cohorts {
		gen := c.Workload
		if c.Mix != "" {
			gen = "mix:" + c.Mix
		}
		proc := c.Process.Dist
		if c.Process.Shape != 0 {
			proc = fmt.Sprintf("%s(k=%g)", c.Process.Dist, c.Process.Shape)
		}
		g := arrival.NewGen(c.Process, c.Windows, 1, seed)
		var prev, sum, sumSq float64
		for i := 0; i < n; i++ {
			t := g.Next().Seconds()
			gap := t - prev
			prev = t
			sum += gap
			sumSq += gap * gap
		}
		mean := sum / float64(n)
		variance := sumSq/float64(n) - mean*mean
		cv := 0.0
		if mean > 0 && variance > 0 {
			cv = math.Sqrt(variance) / mean
		}
		eff := c.Process.Rate * arrival.MeanScale(c.Windows)
		fmt.Printf("%-10s %-12s %8d %-8s %-14s %8d %10.0f %12s %12s %8.2f %8.2f\n",
			c.Name, gen, c.Threads, c.Class, proc, len(c.Windows), eff,
			fmtSeconds(1/eff), fmtSeconds(mean), c.Process.CV(), cv)
	}
}

// fmtSeconds renders a duration given in seconds at µs resolution.
func fmtSeconds(s float64) string { return fmt.Sprintf("%.1fµs", s*1e6) }

// recordTrace captures nthreads deterministic streams and writes them
// in the on-disk trace format, streaming each record into the encoder.
// Streams are cut at maxRecords records, or — with a -record-instr
// budget — at exactly that many instructions per thread (the same
// trace.Limited clipping a simulation applies, so replaying the file at
// the same budget reproduces the run's Result bit for bit).
// Re-recording a trace-backed workload preserves the source metadata
// (including import provenance), and with -nthreads, -n and
// -record-instr left at their defaults the source's thread count and
// cuts are inherited too, so a plain re-record of a v2 file reproduces
// it bit for bit (a v1 file comes out as v2).
func recordTrace(w skybyte.Workload, path string, nthreads, maxRecords int, instrBudget, seed uint64, explicit map[string]bool) error {
	meta := trace.Meta{
		Workload:       w.Name,
		Seed:           seed,
		FootprintPages: w.FootprintPages,
		WriteRatio:     w.WriteRatio,
		InstrPerThread: instrBudget,
	}
	if w.Trace != nil {
		src := w.Trace.TraceMeta()
		meta.Workload = src.Workload
		meta.Seed = src.Seed
		meta.Origin = src.Origin
		if !explicit["record-instr"] && !explicit["n"] {
			// No new cut at all: the source records pass through
			// verbatim (never truncate), so the source's recorded
			// budget still describes them. With an explicit -n the cut
			// is a record count and InstrPerThread correctly stays 0.
			meta.InstrPerThread = src.InstrPerThread
			maxRecords = math.MaxInt
		}
		if !explicit["nthreads"] {
			nthreads = w.Trace.NumThreads()
		}
	}
	enc := trace.NewStreamEncoder()
	for t := 0; t < nthreads; t++ {
		var st trace.Stream = w.Stream(t, seed)
		limit := maxRecords
		if instrBudget > 0 {
			st = &trace.Limited{Src: st, Budget: instrBudget}
			limit = math.MaxInt
		}
		enc.BeginThread()
		for i := 0; i < limit; i++ {
			r, ok := st.Next()
			if !ok {
				break
			}
			if err := enc.Append(r); err != nil {
				return err
			}
		}
	}
	data, err := enc.Finish(meta)
	if err != nil {
		return err
	}
	if err := writeFileAtomic(path, data); err != nil {
		return err
	}
	fmt.Printf("recorded %s: %d threads, %d records, %d bytes (%s)\n",
		path, enc.Threads(), enc.Records(), len(data), trace.TraceDigest(data))
	fmt.Printf("replay with: skybyte-sim -workload-file %s\n", path)
	return nil
}

// recordImport converts an external trace (-import <format>:<path>)
// and writes the result as a .trc, provenance meta included. Records
// stream from the parser straight into the block writer, so importing
// a multi-gigabyte published trace needs memory for the encoded
// output, not for the record stream.
func recordImport(spec, out string) error {
	format, src, err := traceimport.ParseSpec(spec)
	if err != nil {
		return err
	}
	enc, err := traceimport.ImportEncoded(format, src)
	if err != nil {
		return err
	}
	if err := writeFileAtomic(out, enc.Data); err != nil {
		return err
	}
	o := enc.Meta.Origin
	fmt.Printf("imported %s %s: %d threads, %d records, %d pages touched\n",
		format, src, enc.Threads, enc.Records, enc.Meta.FootprintPages)
	fmt.Printf("recorded %s: %d bytes (%s; source sha256 %s)\n",
		out, len(enc.Data), trace.TraceDigest(enc.Data), o.SourceDigest[:16])
	fmt.Printf("replay with: skybyte-sim -workload-file %s\n", out)
	return nil
}

// writeFileAtomic writes data via a temp file and rename in the target
// directory — the internal/store convention — so a failed or
// interrupted record never leaves a stale partial .trc behind (a
// partial file would fail its checksum, but the loud failure belongs
// at record time, not at the next replay).
func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "record-*.tmp")
	if err != nil {
		return err
	}
	_, werr := tmp.Write(data)
	merr := tmp.Chmod(0o644)
	cerr := tmp.Close()
	if werr == nil && merr == nil && cerr == nil {
		if err := os.Rename(tmp.Name(), path); err == nil {
			return nil
		} else {
			werr = err
		}
	}
	os.Remove(tmp.Name())
	for _, e := range []error{werr, merr, cerr} {
		if e != nil {
			return fmt.Errorf("recording %s: %w", path, e)
		}
	}
	return nil
}
