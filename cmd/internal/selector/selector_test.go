package selector

import (
	"flag"
	"io"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"skybyte"
	"skybyte/internal/runner"
	"skybyte/internal/traceimport"
)

// parse declares the selectors on a fresh FlagSet and parses args.
func parse(t *testing.T, withScale bool, args ...string) *Flags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := Declare(fs, withScale)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %v: %v", args, err)
	}
	return f
}

// champsimFixture writes a tiny ChampSim trace and returns its path.
func champsimFixture(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "champsim.bin")
	if err := traceimport.WriteFixture("champsim", path); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestResolveOneSelector pins the spec each selector resolves to, before
// the CLI sizes it and sets the design point. skybyte-trace declares no
// -arrival-scale, so its arrival specs carry no scale.
func TestResolveOneSelector(t *testing.T) {
	champsim := champsimFixture(t)
	cases := []struct {
		args      []string
		withScale bool
		want      runner.Spec
	}{
		{nil, true, runner.Spec{Workload: "ycsb"}},
		{[]string{"-workload", "srad"}, true, runner.Spec{Workload: "srad"}},
		{[]string{"-workload-file", "../../../examples/customworkload/workload.json"}, true, runner.Spec{Workload: "session-store"}},
		{[]string{"-import", "champsim:" + champsim}, true, runner.Spec{Workload: "trace:champsim:champsim.bin"}},
		{[]string{"-mix", "graph-vs-log"}, true, runner.Spec{Mix: "graph-vs-log"}},
		{[]string{"-mix-file", "../../../examples/multitenant/mix.json"}, true, runner.Spec{Mix: "consolidation"}},
		{[]string{"-arrival", "open-steady"}, true, runner.Spec{Arrival: "open-steady", ArrivalScale: 1}},
		{[]string{"-arrival", "open-burst", "-arrival-scale", "2.5"}, true, runner.Spec{Arrival: "open-burst", ArrivalScale: 2.5}},
		{[]string{"-arrival-file", "../../../examples/openloop/spec.json"}, true, runner.Spec{Arrival: "frontend-vs-batch", ArrivalScale: 1}},
		{[]string{"-arrival", "open-steady"}, false, runner.Spec{Arrival: "open-steady"}},
		{[]string{"-workload", "bc"}, false, runner.Spec{Workload: "bc"}},
	}
	for _, c := range cases {
		got, err := parse(t, c.withScale, c.args...).Resolve()
		if err != nil {
			t.Errorf("%v: %v", c.args, err)
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%v resolved to %+v, want %+v", c.args, got, c.want)
		}
	}
}

// TestTwoSelectorsConflict checks that every pair of selectors is an
// error naming both flags, raised before anything is loaded.
func TestTwoSelectorsConflict(t *testing.T) {
	loads := countLoads(t)
	for i, a := range names {
		for _, b := range names[i+1:] {
			f := parse(t, true, "-"+b, "x", "-"+a, "y")
			_, err := f.Resolve()
			if want := "-" + a + " and -" + b + " "; err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("-%s with -%s: error %v, want one naming %q", a, b, err, want)
			}
		}
	}
	if *loads != 0 {
		t.Fatalf("conflicting selectors loaded %d files", *loads)
	}
}

// TestArrivalScaleNeedsArrival checks that -arrival-scale is rejected
// unless an arrival selector is given, and validated when one is.
func TestArrivalScaleNeedsArrival(t *testing.T) {
	for _, args := range [][]string{
		{"-arrival-scale", "2"},
		{"-workload", "bc", "-arrival-scale", "NaN"},
		{"-mix", "graph-vs-log", "-arrival-scale", "1"},
	} {
		_, err := parse(t, true, args...).Resolve()
		if err == nil || !strings.Contains(err.Error(), "-arrival-scale") {
			t.Errorf("%v: error %v, want an -arrival-scale usage error", args, err)
		}
	}
	for _, scale := range []string{"NaN", "-1", "+Inf"} {
		if _, err := parse(t, true, "-arrival", "open-steady", "-arrival-scale", scale).Resolve(); err == nil {
			t.Errorf("-arrival-scale %s accepted", scale)
		}
	}
}

// TestUnknownNamesError checks that an unknown name lists the valid set.
func TestUnknownNamesError(t *testing.T) {
	for _, flagName := range []string{Workload, Mix, Arrival} {
		_, err := parse(t, true, "-"+flagName, "nosuch").Resolve()
		if err == nil || !strings.Contains(err.Error(), "valid:") {
			t.Errorf("-%s nosuch: error %v, want one listing the valid set", flagName, err)
		}
	}
}

// countLoads routes the four file selectors' registry entry points
// through a shared counter for the test's duration.
func countLoads(t *testing.T) *int {
	n := new(int)
	wf, it, mf, af := workloadFromFile, importTrace, mixFromFile, arrivalFromFile
	t.Cleanup(func() { workloadFromFile, importTrace, mixFromFile, arrivalFromFile = wf, it, mf, af })
	workloadFromFile = func(p string) (skybyte.Workload, error) { *n++; return wf(p) }
	importTrace = func(p string) (skybyte.Workload, error) { *n++; return it(p) }
	mixFromFile = func(p string) (skybyte.Mix, error) { *n++; return mf(p) }
	arrivalFromFile = func(p string) (skybyte.Arrival, error) { *n++; return af(p) }
	return n
}

// TestFileSelectorRegistersOnce checks that resolving a file or import
// selector registers its definition exactly once.
func TestFileSelectorRegistersOnce(t *testing.T) {
	champsim := champsimFixture(t)
	loads := countLoads(t)
	for _, args := range [][]string{
		{"-workload-file", "../../../examples/customworkload/workload.json"},
		{"-import", "champsim:" + champsim},
		{"-mix-file", "../../../examples/multitenant/mix.json"},
		{"-arrival-file", "../../../examples/openloop/spec.json"},
	} {
		*loads = 0
		if _, err := parse(t, true, args...).Resolve(); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		if *loads != 1 {
			t.Errorf("%v registered %d times, want 1", args, *loads)
		}
	}
}
