// Command perfbench is the repository's benchmark: it drives the
// simulator's design points through their public calls, timing each
// call, and prints end-to-end metrics (untraced) or per-layer metrics
// (traced) as one JSON line. README.md in this directory documents the
// workloads and metrics; run.py builds and runs it.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"time"

	"skybyte/internal/runner"
	"skybyte/internal/workloads"
)

// minSetupSamples is how many times a run wires every design point; the
// median of these sums is setup_s.
const minSetupSamples = 5

type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "paper", "workload: paper, read-path or sweep")
	seed := flag.Uint64("seed", 7, "workload stream seed")
	seconds := flag.Float64("seconds", 30, "measurement budget in seconds; at least one pass always runs")
	traced := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	out := flag.String("out", filepath.Join(".bench_build", "perfbench-out"), "directory for result stores and span files")
	flag.Parse()
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	if err := run(*workload, *seed, *seconds, *traced == 1, *out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds float64, traced bool, out string) error {
	pts, err := planWorkload(name)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	var res result
	if traced {
		res, err = tracedRun(name, pts, seed, out)
	} else {
		res, err = untracedRun(pts, seed, seconds, out)
	}
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// tally counts attempted and failed points over passes, reports each
// failure, and requires every pass to produce the same Result digest.
func tally(passes []pass) (res result) {
	res.Correct = true
	for _, p := range passes {
		for _, o := range p.outs {
			res.Attempted++
			if o.err != nil {
				res.Failed++
				res.Correct = false
				fmt.Fprintf(os.Stderr, "point %s failed: %v\n", o.id, o.err)
			}
		}
		if p.digest != passes[0].digest {
			res.Correct = false
			fmt.Fprintf(os.Stderr, "result digest changed between passes: %s != %s\n", p.digest, passes[0].digest)
		}
	}
	fmt.Printf("digest %s (%d design points)\n", passes[0].digest, len(passes[0].outs))
	return res
}

// untracedRun repeats passes until the next one would overrun the
// budget and reports the end-to-end metrics. Host interference on a
// shared machine comes in bursts that slow some calls of a pass and not
// others, so each design point's time is its median over the passes,
// and wall_s and sim_instr_per_s sum those medians.
func untracedRun(pts []runner.Spec, seed uint64, seconds float64, out string) (result, error) {
	start := time.Now()
	var passes []pass
	var setups []float64
	for {
		t0 := time.Now()
		p, err := runPass(pts, seed, out, nil)
		if err != nil {
			return result{}, err
		}
		passes = append(passes, p)
		setups = append(setups, p.wire.Seconds())
		if time.Since(start)+time.Since(t0) > time.Duration(seconds*float64(time.Second)) {
			break
		}
	}
	res := tally(passes)
	// Extra wiring rounds only when every point wired cleanly: a point
	// that panicked is already counted as failed.
	for res.Failed == 0 && len(setups) < minSetupSamples {
		d, err := wireOnly(pts, seed)
		if err != nil {
			return result{}, err
		}
		setups = append(setups, d.Seconds())
	}
	var allocs, heap []float64
	for _, p := range passes {
		allocs = append(allocs, ratio(float64(p.allocs), float64(p.instr)/1000))
		var peak uint64
		for _, o := range p.outs {
			peak = max(peak, o.liveHeap)
		}
		heap = append(heap, float64(peak)/(1<<20))
	}
	wall := sumOfPointMedians(passes, calls.total)
	run := sumOfPointMedians(passes, func(c calls) time.Duration { return c.run })
	res.Metrics = metricSet{}
	res.Metrics.set("wall_s", wall, "s")
	res.Metrics.set("setup_s", median(setups), "s")
	res.Metrics.set("sim_instr_per_s", ratio(float64(passes[0].instr), run), "1/s")
	res.Metrics.set("allocs_per_kinstr", median(allocs), "1/kinstr")
	res.Metrics.set("live_heap_mb", median(heap), "MiB")
	fmt.Printf("passes %d, setup samples %d\n", len(passes), len(setups))
	if acc, ok := computeAccuracy(indexResults(pts, passes[0].outs), workloads.Table1Names()); ok {
		line, err := json.Marshal(acc.metrics())
		if err != nil {
			return result{}, err
		}
		fmt.Printf("accuracy %s\n", line)
	}
	return res, nil
}

// sumOfPointMedians takes, for each design point, the median over
// passes of the host time f selects from its calls, and returns the sum
// over points in seconds. Failed points are left out.
func sumOfPointMedians(passes []pass, f func(calls) time.Duration) float64 {
	var sum float64
	for i := range passes[0].outs {
		var xs []float64
		for _, p := range passes {
			if o := p.outs[i]; o.err == nil {
				xs = append(xs, f(o.t).Seconds())
			}
		}
		if len(xs) > 0 {
			sum += median(xs)
		}
	}
	return sum
}

// tracedRun runs one untraced and one traced pass, then the layer
// replays, and reports the per-layer metrics. The traced pass records a
// span around every timed call and a CPU profile; the spans are written
// to out as JSON.
func tracedRun(name string, pts []runner.Spec, seed uint64, out string) (result, error) {
	plain, err := runPass(pts, seed, out, nil)
	if err != nil {
		return result{}, err
	}
	tr := newTracer()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return result{}, err
	}
	traced, err := runPass(pts, seed, out, tr)
	pprof.StopCPUProfile()
	if err != nil {
		return result{}, err
	}
	spanPath := filepath.Join(out, fmt.Sprintf("spans-%s-seed%d.json", name, seed))
	if err := tr.write(spanPath); err != nil {
		return result{}, err
	}
	fmt.Printf("spans %d written to %s\n", len(tr.spans), spanPath)
	res := tally([]pass{plain, traced})

	ms := metricSet{}
	hostTimes(plain, ms)
	modelled(plain.outs, ms)
	replays, err := layerReplays(pts, seed)
	if err != nil {
		return result{}, err
	}
	for k, v := range replays {
		ms.set(k, v, "ns/op")
	}
	ms.set("ftl.precondition_ms", preconditionMs(), "ms")
	shares, err := cpuShares(prof.Bytes())
	if err != nil {
		return result{}, err
	}
	for _, pkg := range profiledPackages {
		ms.set(pkg+".cpu_share", shares[pkg], "ratio")
	}
	ms.set("bench.trace_overhead_s", sumOfPointMedians([]pass{traced}, calls.total)-sumOfPointMedians([]pass{plain}, calls.total), "s")
	res.Metrics = ms
	return res, nil
}

// hostTimes reports the host time of the benchmark's own calls over one
// pass: per-call means, and Run's distribution over design points.
func hostTimes(p pass, ms metricSet) {
	var runs []float64
	var sum calls
	var kb float64
	var hits, n int
	for _, o := range p.outs {
		if o.err != nil {
			continue
		}
		n++
		runs = append(runs, float64(o.t.run.Nanoseconds())/1e6)
		sum.wire += o.t.wire
		sum.encode += o.t.encode
		sum.decode += o.t.decode
		sum.put += o.t.put
		sum.get += o.t.get
		kb += float64(len(o.enc)) / 1024
		if o.warmHit {
			hits++
		}
	}
	mean := func(d time.Duration) float64 { return ratio(float64(d.Nanoseconds())/1e6, float64(n)) }
	ms.set("system.setup_ms", mean(sum.wire), "ms")
	ms.set("system.run_ms_p50", quantile(runs, 0.5), "ms")
	ms.set("system.run_ms_p90", quantile(runs, 0.9), "ms")
	ms.set("system.run_samples", float64(len(runs)), "count")
	ms.set("codec.encode_ms", mean(sum.encode), "ms")
	ms.set("codec.decode_ms", mean(sum.decode), "ms")
	ms.set("codec.result_kb", ratio(kb, float64(n)), "KiB")
	ms.set("store.put_ms", mean(sum.put), "ms")
	ms.set("store.get_ms", mean(sum.get), "ms")
	ms.set("store.warm_hit_ratio", ratio(float64(hits), float64(n)), "ratio")
}
