// Package profile declares the -cpuprofile and -memprofile flags every
// CLI takes and writes the profiles they ask for, in the format
// `go tool pprof` reads.
package profile

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Flags holds the two profile destinations of one command line.
type Flags struct {
	cpu, mem string
}

// Declare registers -cpuprofile and -memprofile on fs.
func Declare(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.cpu, "cpuprofile", "", "write a CPU profile of the command to this file when it exits normally (read it with go tool pprof)")
	fs.StringVar(&f.mem, "memprofile", "", "record every allocation and write the heap profile to this file when the command exits normally (go tool pprof -sample_index=alloc_objects gives exact counts per site)")
	return f
}

// Start begins the CPU profile, if one was asked for, and returns the
// function that ends it and writes the heap profile. Call Start after
// the flags are parsed and stop as the command returns; a command that
// leaves through os.Exit writes neither profile. A profile that cannot
// be written is reported on stderr and exits 1.
func (f *Flags) Start() (stop func()) {
	check := func(err error) {
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if f.mem != "" {
		// Sample every allocation, so the profile's counts are exact.
		runtime.MemProfileRate = 1
	}
	var cpu *os.File
	if f.cpu != "" {
		var err error
		cpu, err = os.Create(f.cpu)
		check(err)
		check(pprof.StartCPUProfile(cpu))
	}
	return func() {
		if cpu != nil {
			pprof.StopCPUProfile()
			check(cpu.Close())
		}
		if f.mem == "" {
			return
		}
		mem, err := os.Create(f.mem)
		check(err)
		// The profile's live-heap figures are as of the last collection.
		runtime.GC()
		check(pprof.Lookup("allocs").WriteTo(mem, 0))
		check(mem.Close())
	}
}
