// Package selector is the one front end skybyte-sim and skybyte-trace
// share for what an invocation runs: a workload, a multi-tenant mix or
// an open-loop arrival spec, named or loaded from a file. It declares
// the seven selector flags once, resolves them by one rule, and hands
// the CLI a runner.Spec with exactly one of Workload, Mix or Arrival
// set.
//
// The rule: at most one selector per invocation. Two selectors are an
// error naming both, never a silent pick; with none, -workload's ycsb
// default runs. A -workload-file, -import, -mix-file or -arrival-file
// registers its definition once and selects it. A mix's tenants and an
// arrival spec's cohort members resolve upfront, so a typo lists the
// valid set before anything runs.
package selector

import (
	"flag"
	"fmt"
	"strings"

	"skybyte"
	"skybyte/internal/arrival"
	"skybyte/internal/runner"
)

// The selector flags, in the order their conflicts are named.
const (
	Workload     = "workload"
	WorkloadFile = "workload-file"
	Import       = "import"
	Mix          = "mix"
	MixFile      = "mix-file"
	Arrival      = "arrival"
	ArrivalFile  = "arrival-file"
)

var names = []string{Workload, WorkloadFile, Import, Mix, MixFile, Arrival, ArrivalFile}

// The registry entry points a file selector goes through (the test
// counts calls through them).
var (
	workloadFromFile = skybyte.WorkloadFromFile
	importTrace      = skybyte.ImportTrace
	mixFromFile      = skybyte.MixFromFile
	arrivalFromFile  = skybyte.ArrivalFromFile
)

// Flags is the selector flag set declared on one CLI's FlagSet.
type Flags struct {
	fs    *flag.FlagSet
	value map[string]*string
	scale *float64 // nil when the CLI does not declare -arrival-scale
}

// Declare declares the seven selector flags on fs and, with withScale,
// -arrival-scale (the offered-intensity multiplier of an arrival run).
func Declare(fs *flag.FlagSet, withScale bool) *Flags {
	f := &Flags{fs: fs, value: map[string]*string{
		Workload:     fs.String(Workload, "ycsb", "workload name; any of skybyte.WorkloadNames() — Table I, the extension scenarios, or a file-registered workload (the default when no selector is given)"),
		WorkloadFile: fs.String(WorkloadFile, "", "load the workload from a file (declarative JSON definition or recorded trace; see WORKLOADS.md) and select it"),
		Import:       fs.String(Import, "", "convert an external trace, <format>:<path> or a bare path with a recognized extension (formats: champsim, damon, cachegrind; champsim accepts a dir/glob of per-CPU files; see WORKLOADS.md), and select it"),
		Mix:          fs.String(Mix, "", "select a multi-tenant mix: each tenant group replays its own workload (any of skybyte.MixNames())"),
		MixFile:      fs.String(MixFile, "", "load a multi-tenant mix from a JSON file (see WORKLOADS.md) and select it"),
		Arrival:      fs.String(Arrival, "", "select an open-loop arrival spec: client cohorts offer requests at sampled instants (any of skybyte.ArrivalNames())"),
		ArrivalFile:  fs.String(ArrivalFile, "", "load an arrival spec from a JSON file (see WORKLOADS.md) and select it"),
	}}
	if withScale {
		f.scale = fs.Float64("arrival-scale", 1, "with -arrival or -arrival-file: multiply every cohort rate by this offered-intensity scale (finite and >= 0; 0 means 1)")
	}
	return f
}

// Choice is the one selector an invocation gave: its flag name and
// value, before anything is loaded or registered.
type Choice struct{ Flag, Value string }

// Choice returns the selector given on the command line, or -workload's
// default when none was. Two selectors, or -arrival-scale without an
// arrival selector, are errors.
func (f *Flags) Choice() (Choice, error) {
	set := map[string]bool{}
	f.fs.Visit(func(fl *flag.Flag) { set[fl.Name] = true })
	var given []string
	for _, name := range names {
		if set[name] {
			given = append(given, name)
		}
	}
	if len(given) > 1 {
		return Choice{}, fmt.Errorf("-%s each select what runs; give one selector", strings.Join(given, " and -"))
	}
	c := Choice{Flag: Workload}
	if len(given) == 1 {
		c.Flag = given[0]
	}
	c.Value = *f.value[c.Flag]
	if set["arrival-scale"] && c.Flag != Arrival && c.Flag != ArrivalFile {
		return Choice{}, fmt.Errorf("-arrival-scale scales an arrival spec's cohort rates; it needs -arrival or -arrival-file")
	}
	return c, nil
}

// Resolve returns the spec naming what runs: Workload, Mix, or Arrival
// with its ArrivalScale. A file or import selector is registered here,
// once. Every error is a usage error, raised before anything runs.
func (f *Flags) Resolve() (runner.Spec, error) {
	c, err := f.Choice()
	if err != nil {
		return runner.Spec{}, err
	}
	var (
		spec runner.Spec
		w    skybyte.Workload
		m    skybyte.Mix
		a    skybyte.Arrival
	)
	switch c.Flag {
	case Workload:
		w, err = skybyte.WorkloadByName(c.Value)
		spec.Workload = w.Name
	case WorkloadFile:
		w, err = workloadFromFile(c.Value)
		spec.Workload = w.Name
	case Import:
		w, err = importTrace(c.Value)
		spec.Workload = w.Name
	case Mix:
		m, err = skybyte.MixByName(c.Value)
		spec.Mix = m.Name
	case MixFile:
		m, err = mixFromFile(c.Value)
		spec.Mix = m.Name
	case Arrival:
		a, err = skybyte.ArrivalByName(c.Value)
		spec.Arrival = a.Name
	case ArrivalFile:
		a, err = arrivalFromFile(c.Value)
		spec.Arrival = a.Name
	}
	switch {
	case err != nil:
	case spec.Mix != "":
		_, err = m.Groups(0)
	case spec.Arrival != "":
		err = a.Resolve()
		if err == nil && f.scale != nil {
			spec.ArrivalScale = *f.scale
			if err = arrival.ValidateScale(spec.ArrivalScale); err != nil {
				err = fmt.Errorf("-arrival-scale: %w", err)
			}
		}
	}
	if err != nil {
		return runner.Spec{}, err
	}
	return spec, nil
}
