package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"time"

	"skybyte/internal/arrival"
	"skybyte/internal/runner"
	"skybyte/internal/store"
	"skybyte/internal/system"
	"skybyte/internal/tenant"
	"skybyte/internal/workloads"
)

// baseConfig is the machine every design point runs on.
func baseConfig() system.Config { return system.ScaledConfig() }

// calls holds the host time of each public call one design point makes.
type calls struct {
	wire, run, encode, decode, put, get time.Duration
}

func (c calls) total() time.Duration {
	return c.wire + c.run + c.encode + c.decode + c.put + c.get
}

// outcome is everything the benchmark keeps from one executed design
// point. The System itself is dropped once its Result is taken.
type outcome struct {
	id       string
	res      *system.Result
	enc      []byte // canonical Result encoding
	events   uint64 // engine events fired by Run
	allocs   uint64 // heap objects allocated inside Run
	liveHeap uint64 // live heap after Run, System still reachable
	t        calls
	warmHit  bool
	err      error
}

// wire builds the System of one design point the way the campaign
// runner does (system.New plus AddThread, Mix.Apply or Spec.Apply) and
// returns the instruction count it must retire.
func wire(s runner.Spec, seed uint64) (*system.System, uint64, error) {
	cfg := baseConfig().WithVariant(s.Variant)
	cfg.Devices, cfg.Placement = s.Devices, s.Placement
	switch {
	case s.Mix != "":
		m, err := tenant.ByName(s.Mix)
		if err != nil {
			return nil, 0, err
		}
		sys := system.New(cfg)
		if err := m.Apply(sys, s.TotalInstr, seed); err != nil {
			return nil, 0, err
		}
		var want uint64
		for i, t := range m.Tenants {
			want += m.PerThreadInstr(i, s.TotalInstr) * uint64(t.Threads)
		}
		return sys, want, nil
	case s.Arrival != "":
		a, err := arrival.ByName(s.Arrival)
		if err != nil {
			return nil, 0, err
		}
		if err := a.Resolve(); err != nil {
			return nil, 0, err
		}
		threads, err := a.TotalThreads()
		if err != nil {
			return nil, 0, err
		}
		sys := system.New(cfg)
		if err := a.Apply(sys, s.TotalInstr, seed, s.ArrivalScale); err != nil {
			return nil, 0, err
		}
		return sys, s.TotalInstr / uint64(threads) * uint64(threads), nil
	}
	w, err := workloads.ByName(s.Workload)
	if err != nil {
		return nil, 0, err
	}
	threads := s.Threads
	if threads == 0 {
		threads = runner.ThreadsFor(cfg)
	}
	sys := system.New(cfg)
	per := s.TotalInstr / uint64(threads)
	for i := 0; i < threads; i++ {
		sys.AddThread(w.Stream(i, seed), per)
	}
	return sys, per * uint64(threads), nil
}

var heapMetrics = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/tiny/allocs:objects"},
	{Name: "/gc/heap/live:bytes"},
}

// readHeap returns the cumulative heap allocation count, tiny
// allocations included as runtime.MemStats.Mallocs counts them, and the
// live heap marked by the last GC.
func readHeap() (allocs, live uint64) {
	metrics.Read(heapMetrics)
	return heapMetrics[0].Value.Uint64() + heapMetrics[1].Value.Uint64(), heapMetrics[2].Value.Uint64()
}

// execute drives one design point through wiring, Run, the Result codec
// and a store round trip, timing each call, and checks the outputs. A
// panic inside any call is reported as the point's error.
func execute(s runner.Spec, seed uint64, st *store.Disk, tr *tracer, parent int) (o outcome) {
	o.id = pointID(s)
	span := tr.begin("point", parent, o.id)
	defer tr.end(span)
	defer func() {
		if r := recover(); r != nil {
			o.err = fmt.Errorf("panic: %v", r)
		}
	}()
	var (
		sys  *system.System
		want uint64
		err  error
	)
	o.t.wire = tr.timed("wire", span, o.id, func() { sys, want, err = wire(s, seed) })
	if err != nil {
		o.err = err
		return o
	}
	before, _ := readHeap()
	o.t.run = tr.timed("run", span, o.id, func() { o.res = sys.Run() })
	after, _ := readHeap()
	o.allocs = after - before
	o.events = sys.Eng.Fired()

	o.t.encode = tr.timed("encode", span, o.id, func() { o.enc, err = system.EncodeResult(o.res) })
	if err != nil {
		o.err = err
		return o
	}
	var dec *system.Result
	o.t.decode = tr.timed("decode", span, o.id, func() { dec, err = system.DecodeResult(o.enc) })
	if err != nil {
		o.err = err
		return o
	}
	key := s.Key()
	var warm *system.Result
	o.t.put = tr.timed("store.put", span, o.id, func() { st.Put(key, o.res) })
	o.t.get = tr.timed("store.get", span, o.id, func() { warm, o.warmHit = st.Get(key) })

	// Measured outside every timed section: the live heap while the
	// finished System is still reachable.
	runtime.GC()
	_, o.liveHeap = readHeap()
	runtime.KeepAlive(sys)

	o.err = check(o, want, dec, warm)
	return o
}

// check verifies one design point's outputs: the retired instruction
// count, the tenant, SLO-class and device splits, and byte-identical
// re-encoding of the decoded and store-recalled Results.
func check(o outcome, want uint64, dec, warm *system.Result) error {
	r := o.res
	if r.Instructions != want {
		return fmt.Errorf("retired %d instructions, budget %d", r.Instructions, want)
	}
	if err := checkSplits(r); err != nil {
		return err
	}
	for _, c := range []struct {
		name string
		res  *system.Result
	}{{"decoded", dec}, {"store-recalled", warm}} {
		if c.res == nil {
			return fmt.Errorf("%s result missing", c.name)
		}
		again, err := system.EncodeResult(c.res)
		if err != nil {
			return err
		}
		if !bytes.Equal(again, o.enc) {
			return fmt.Errorf("%s result does not re-encode byte-identically", c.name)
		}
	}
	return nil
}

// checkSplits verifies that every per-tenant, per-SLO-class and
// per-device split of a Result sums to its whole-system total.
func checkSplits(r *system.Result) error {
	if len(r.Tenants) > 0 {
		var instr, switches, misses, reqs uint64
		for _, t := range r.Tenants {
			instr += t.Instructions
			switches += t.CtxSwitches
			misses += t.LLCMisses
			reqs += t.Breakdown.Total()
		}
		if instr != r.Instructions || switches != r.CtxSwitches || misses != r.LLCMisses || reqs != r.Breakdown.Total() {
			return fmt.Errorf("tenant splits do not sum to totals")
		}
	}
	if ol := r.OpenLoop; ol != nil {
		var admitted, completed uint64
		for _, c := range ol.Classes {
			admitted += c.Stats.Admitted
			completed += c.Stats.Completed
		}
		if admitted != ol.Total.Admitted || completed != ol.Total.Completed {
			return fmt.Errorf("SLO-class splits do not sum to totals")
		}
	}
	if len(r.Devices) > 0 {
		var programs, reads, hits, compactions uint64
		for _, d := range r.Devices {
			programs += d.Traffic.TotalPrograms()
			reads += d.FlashStats.Reads
			hits += d.CacheStats.Hits
			compactions += d.Compaction.Count
		}
		if programs != r.Traffic.TotalPrograms() || reads != r.FlashStats.Reads ||
			hits != r.CacheStats.Hits || compactions != r.Compaction.Count {
			return fmt.Errorf("device splits do not sum to totals")
		}
	}
	return nil
}

// pass is one execution of every design point of a workload.
type pass struct {
	outs   []outcome
	wire   time.Duration // summed host time of the wiring calls
	instr  uint64        // simulated instructions retired
	allocs uint64        // heap objects allocated inside Run
	digest string        // sha256 over every encoded Result, in point order
}

// runPass executes every point once against a fresh on-disk store under
// dir, which it removes afterwards.
func runPass(pts []runner.Spec, seed uint64, dir string, tr *tracer) (pass, error) {
	stDir, err := os.MkdirTemp(dir, "store-")
	if err != nil {
		return pass{}, err
	}
	defer os.RemoveAll(stDir)
	st, err := store.Open(stDir, store.Fingerprint(baseConfig(), seed))
	if err != nil {
		return pass{}, err
	}
	root := tr.begin("workload", -1, "")
	defer tr.end(root)
	var p pass
	h := sha256.New()
	for _, s := range pts {
		runtime.GC()
		o := execute(s, seed, st, tr, root)
		p.outs = append(p.outs, o)
		if o.err != nil {
			continue
		}
		p.wire += o.t.wire
		p.instr += o.res.Instructions
		p.allocs += o.allocs
		h.Write(o.enc)
	}
	p.digest = hex.EncodeToString(h.Sum(nil))
	return p, nil
}

// wireOnly wires every point without running it and returns the summed
// wiring time: an extra set-up sample that costs no simulation.
func wireOnly(pts []runner.Spec, seed uint64) (time.Duration, error) {
	var total time.Duration
	for _, s := range pts {
		runtime.GC()
		t0 := time.Now()
		sys, _, err := wire(s, seed)
		total += time.Since(t0)
		if err != nil {
			return 0, err
		}
		runtime.KeepAlive(sys)
	}
	return total, nil
}
