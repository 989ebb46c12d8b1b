package main

import (
	"sort"
	"time"

	"skybyte/internal/cachesim"
	"skybyte/internal/core"
	"skybyte/internal/cxl"
	"skybyte/internal/flash"
	"skybyte/internal/ftl"
	"skybyte/internal/mem"
	"skybyte/internal/runner"
	"skybyte/internal/sim"
	"skybyte/internal/tenant"
	"skybyte/internal/trace"
	"skybyte/internal/workloads"
	"skybyte/internal/writelog"
)

// Layer replays feed a workload's own generator streams straight into
// each model layer's public functions, outside any System, so each
// layer's host cost per operation is measured on the workload's address
// pattern.
const (
	replayThreads    = 3      // streams replayed per app
	replayPerThread  = 50_000 // records taken from each stream
	replayReps       = 3      // repetitions; the median is reported
	replayEngineStep = 1024   // operations issued between engine drains
)

// replayApps lists the Table I or extension workloads a workload's
// design points replay, mix members included, in first-use order.
func replayApps(pts []runner.Spec) ([]workloads.Spec, error) {
	var names []string
	seen := map[string]bool{}
	add := func(n string) {
		if !seen[n] {
			seen[n] = true
			names = append(names, n)
		}
	}
	for _, s := range pts {
		switch {
		case s.Mix != "":
			m, err := tenant.ByName(s.Mix)
			if err != nil {
				return nil, err
			}
			for _, t := range m.Tenants {
				add(t.Workload)
			}
		case s.Workload != "":
			add(s.Workload)
		}
	}
	out := make([]workloads.Spec, len(names))
	for i, n := range names {
		w, err := workloads.ByName(n)
		if err != nil {
			return nil, err
		}
		out[i] = w
	}
	return out, nil
}

// recordStreams generates the replay streams and returns them with
// their record count.
func recordStreams(apps []workloads.Spec, seed uint64) ([][]trace.Record, int) {
	var streams [][]trace.Record
	var n int
	for _, w := range apps {
		for t := 0; t < replayThreads; t++ {
			st := w.Stream(t, seed)
			recs := make([]trace.Record, 0, replayPerThread)
			for len(recs) < replayPerThread {
				rec, ok := st.Next()
				if !ok {
					break
				}
				recs = append(recs, rec)
			}
			n += len(recs)
			streams = append(streams, recs)
		}
	}
	return streams, n
}

func isWrite(r trace.Record) bool { return r.Kind == trace.Store }

// medianNsPerOp builds fresh layer state with prepare, untimed, and
// times the replay it returns, replayReps times; the replay returns its
// operation count.
func medianNsPerOp(prepare func() func() int) float64 {
	var xs []float64
	for i := 0; i < replayReps; i++ {
		replay := prepare()
		t0 := time.Now()
		n := replay()
		if n == 0 {
			return 0
		}
		xs = append(xs, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	sort.Float64s(xs)
	return xs[len(xs)/2]
}

// layerReplays measures every layer on the workload's streams and
// returns ns per operation keyed by metric name.
func layerReplays(pts []runner.Spec, seed uint64) (map[string]float64, error) {
	apps, err := replayApps(pts)
	if err != nil {
		return nil, err
	}
	var streams [][]trace.Record
	out := map[string]float64{}
	out["workloads.ns_per_record"] = medianNsPerOp(func() func() int {
		return func() int {
			var n int
			streams, n = recordStreams(apps, seed)
			return n
		}
	})
	var memRecs []trace.Record // every stream's memory records, in order
	for _, recs := range streams {
		for _, r := range recs {
			if r.Kind != trace.Compute {
				memRecs = append(memRecs, r)
			}
		}
	}
	cfg := baseConfig()

	out["trace.replay_ns_per_record"] = medianNsPerOp(func() func() int {
		return func() int {
			n := 0
			for _, recs := range streams {
				r := trace.NewReplayer(&trace.SliceStream{Recs: recs})
				for {
					if _, _, ok := r.Next(); !ok {
						break
					}
					n++
				}
			}
			return n
		}
	})

	out["cachesim.ns_per_access"] = medianNsPerOp(func() func() int {
		c := cachesim.New(cachesim.Config{Name: "llc", SizeBytes: cfg.LLCBytes, Ways: cfg.LLCWays})
		return func() int {
			for _, r := range memRecs {
				if !c.Access(r.Addr, isWrite(r)) {
					c.Fill(r.Addr, isWrite(r))
				}
			}
			return len(memRecs)
		}
	})

	out["core.pagecache_ns_per_op"] = medianNsPerOp(func() func() int {
		pc := core.NewPageCache(cfg.SSDDRAMBytes, cfg.CacheWays, false)
		return func() int {
			for _, r := range memRecs {
				lpa := uint64(r.Addr-mem.CXLBase) >> mem.PageShift
				f := pc.Lookup(lpa)
				if f == nil {
					_, f, _ = pc.Insert(lpa)
				}
				if f != nil {
					if isWrite(r) {
						f.TouchWrite(r.Addr.LineIndex(), nil)
					} else {
						f.TouchRead(r.Addr.LineIndex())
					}
				}
			}
			return len(memRecs)
		}
	})

	out["sim.ns_per_event"] = medianNsPerOp(func() func() int {
		eng := new(sim.Engine)
		return func() int {
			fired := 0
			fn := func() { fired++ }
			for i, r := range memRecs {
				eng.After(sim.Time(r.Addr.LineNumber()%4096)*sim.Nanosecond, fn)
				if i%replayEngineStep == replayEngineStep-1 {
					eng.Run()
				}
			}
			eng.Run()
			return fired
		}
	})

	out["cxl.ns_per_transfer"] = medianNsPerOp(func() func() int {
		eng := new(sim.Engine)
		link := cxl.New(eng, cfg.Link)
		return func() int {
			done := func() {}
			for i, r := range memRecs {
				if isWrite(r) {
					link.ToDevice(cxl.DataBytes, done)
					link.ToHost(cxl.HeaderBytes, done)
				} else {
					link.ToDevice(cxl.HeaderBytes, done)
					link.ToHost(cxl.DataBytes, done)
				}
				if i%replayEngineStep == replayEngineStep-1 {
					eng.Run()
				}
			}
			eng.Run()
			return 2 * len(memRecs)
		}
	})

	// The writes fill one of the controller's two log buffers, which is
	// reset (as compaction would) whenever it fills; the reads then look
	// up the last fill.
	logLines := cfg.WriteLogBytes / 2 / mem.LineBytes
	fill := func() *writelog.Log {
		l := writelog.New(logLines, false)
		for _, r := range memRecs {
			if isWrite(r) {
				if l.Full() {
					l.Reset()
				}
				l.Append(r.Addr.LineNumber(), nil)
			}
		}
		return l
	}
	out["writelog.ns_per_append"] = medianNsPerOp(func() func() int {
		return func() int { return int(fill().Stats().Appends) }
	})
	out["writelog.ns_per_lookup"] = medianNsPerOp(func() func() int {
		l := fill()
		return func() int {
			n := 0
			for _, r := range memRecs {
				if !isWrite(r) {
					l.Lookup(r.Addr.LineNumber())
					n++
				}
			}
			return n
		}
	})

	// The FTL replays on a preconditioned FTL, as every System wires it;
	// preconditioning is set-up, timed on its own as ftl.precondition_ms.
	out["ftl.ns_per_page"] = medianNsPerOp(func() func() int {
		eng := new(sim.Engine)
		fl := ftl.New(eng, flash.New(eng, cfg.Geometry, cfg.Timing), cfg.FTL)
		fl.Precondition(cfg.PreconditionFill, cfg.PreconditionRewrit, cfg.Seed)
		eng.Run()
		return func() int {
			logical := fl.LogicalPages()
			for i, r := range memRecs {
				lpa := (uint64(r.Addr-mem.CXLBase) >> mem.PageShift) % logical
				if isWrite(r) {
					fl.Write(lpa, nil, nil)
				} else {
					fl.Read(lpa, nil)
				}
				if i%replayEngineStep == replayEngineStep-1 {
					eng.Run()
				}
			}
			eng.Run()
			return len(memRecs)
		}
	})

	out["flash.ns_per_op"] = medianNsPerOp(func() func() int {
		eng := new(sim.Engine)
		arr := flash.New(eng, cfg.Geometry, cfg.Timing)
		return func() int {
			pages := cfg.Geometry.TotalPages()
			for i, r := range memRecs {
				ppa := (uint64(r.Addr-mem.CXLBase) >> mem.PageShift) % pages
				if isWrite(r) {
					arr.Program(ppa, nil, nil)
				} else {
					arr.Read(ppa, nil)
				}
				if i%replayEngineStep == replayEngineStep-1 {
					eng.Run()
				}
			}
			eng.Run()
			return len(memRecs)
		}
	})
	return out, nil
}

// preconditionMs times ftl.New plus Precondition directly, on the
// machine the workload's design points wire, and returns the median in
// milliseconds.
func preconditionMs() float64 {
	cfg := baseConfig()
	var xs []float64
	for i := 0; i < replayReps; i++ {
		var eng sim.Engine
		arr := flash.New(&eng, cfg.Geometry, cfg.Timing)
		t0 := time.Now()
		fl := ftl.New(&eng, arr, cfg.FTL)
		fl.Precondition(cfg.PreconditionFill, cfg.PreconditionRewrit, cfg.Seed)
		xs = append(xs, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	sort.Float64s(xs)
	return xs[len(xs)/2]
}
