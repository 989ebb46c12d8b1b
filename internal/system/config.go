// Package system assembles the full simulated machine: multi-core CPU with
// its cache hierarchy, the OS scheduler, the CXL.mem link, host DRAM, and
// the SkyByte SSD controller over flash+FTL. It implements the design
// variants of the paper's evaluation (§VI-A and §VI-H) as configuration
// presets and produces the measurements every figure and table consumes.
package system

import (
	"fmt"
	"strconv"
	"strings"

	"skybyte/internal/core"
	"skybyte/internal/cpu"
	"skybyte/internal/cxl"
	"skybyte/internal/dram"
	"skybyte/internal/flash"
	"skybyte/internal/fleet"
	"skybyte/internal/ftl"
	"skybyte/internal/mem"
	"skybyte/internal/osched"
	"skybyte/internal/sim"
	"skybyte/internal/stats"
)

// Variant names a design point from the paper's evaluation.
type Variant string

// The design points of Figs. 14 and 23.
const (
	DRAMOnly      Variant = "DRAM-Only"
	BaseCSSD      Variant = "Base-CSSD"
	SkyByteC      Variant = "SkyByte-C"
	SkyByteP      Variant = "SkyByte-P"
	SkyByteW      Variant = "SkyByte-W"
	SkyByteCP     Variant = "SkyByte-CP"
	SkyByteWP     Variant = "SkyByte-WP"
	SkyByteFull   Variant = "SkyByte-Full"
	SkyByteCT     Variant = "SkyByte-CT"
	SkyByteWCT    Variant = "SkyByte-WCT"
	AstriFlashCXL Variant = "AstriFlash-CXL"
)

// AllVariants lists the Fig. 14 comparison set in the paper's order.
var AllVariants = []Variant{BaseCSSD, SkyByteP, SkyByteC, SkyByteW, SkyByteCP, SkyByteWP, SkyByteFull, DRAMOnly}

// KnownVariants lists every design point WithVariant accepts, in the
// order the paper introduces them.
var KnownVariants = []Variant{
	DRAMOnly, BaseCSSD, SkyByteC, SkyByteP, SkyByteW, SkyByteCP,
	SkyByteWP, SkyByteFull, SkyByteCT, SkyByteWCT, AstriFlashCXL,
}

// ParseVariant resolves a variant name, rejecting unknown names with an
// error that lists the valid set — use it to validate CLI input before
// WithVariant, which panics on unknown variants.
func ParseVariant(name string) (Variant, error) {
	for _, v := range KnownVariants {
		if string(v) == name {
			return v, nil
		}
	}
	return "", fmt.Errorf("system: unknown variant %q (valid: %s)", name, strings.Join(VariantNames(), ", "))
}

// VariantNames returns the names of every known variant.
func VariantNames() []string {
	names := make([]string, len(KnownVariants))
	for i, v := range KnownVariants {
		names[i] = string(v)
	}
	return names
}

// MigrationMode selects the host-side page-management mechanism.
type MigrationMode string

// Migration mechanisms of §III-C and §VI-H.
const (
	MigrationNone     MigrationMode = "none"
	MigrationAdaptive MigrationMode = "adaptive" // SkyByte §III-C
	MigrationTPP      MigrationMode = "tpp"      // TPP-style sampling
	MigrationAstri    MigrationMode = "astri"    // AstriFlash host page cache
)

// Fixed host-side parameters of the modelled machine. No caller varies
// them, so they are constants rather than Config fields; changing one
// changes the model's output and needs a ResultVersion bump.
const (
	// policySeed seeds the RANDOM scheduling policy.
	policySeed = 0xC0FFEE
	// plbEntries sizes the Promotion Look-aside Buffer, which bounds
	// concurrent migrations (§III-C).
	plbEntries = 64
	// migrationMinResidency is how long a page must sit in SSD DRAM
	// before adaptive promotion may nominate it.
	migrationMinResidency = 5 * sim.Microsecond
	// tppScanInterval and tppThreshold are the TPP sampler's scan period
	// and the sampled access count that promotes a page (§VI-H).
	tppScanInterval = 100 * sim.Microsecond
	tppThreshold    = 16
	// msixCost is the MSI-X interrupt a promotion raises on the host.
	msixCost = 2 * sim.Microsecond
	// pteUpdateCost and tlbShootdown are the host's page-table update
	// after a promotion and the stall it injects on every core.
	pteUpdateCost = 500 * sim.Nanosecond
	tlbShootdown  = 300 * sim.Nanosecond
	// astriSwitchCost is AstriFlash's user-level thread switch, and
	// astriWays the associativity of its host page cache (§VI-H).
	astriSwitchCost = 500 * sim.Nanosecond
	astriWays       = 16
	// warmupFrac is the leading fraction of each thread's instructions
	// excluded from the measured statistics.
	warmupFrac = 0.1
	// l1Bytes/l1Ways and l2Bytes/l2Ways size each core's private caches.
	// They do not scale with the machine (DESIGN.md §1).
	l1Bytes = 16 * mem.KiB
	l1Ways  = 8
	l2Bytes = 64 * mem.KiB
	l2Ways  = 16
)

// Config is the full-system configuration: the Table II values a caller
// may vary, plus the artifact's knobs. Start from ConfigAt (or
// ScaledConfig) and apply WithVariant.
type Config struct {
	Name string

	// CPU side.
	Cores    int
	CPU      cpu.Config
	LLCBytes int
	LLCWays  int

	// Interconnect and memories.
	Link     cxl.Config
	HostDRAM dram.Config
	SSDDRAM  dram.Config

	// SSD.
	Geometry flash.Geometry
	Timing   flash.Timing
	FTL      ftl.Config
	// SSDDRAMBytes is the total controller DRAM (Table II: 512 MB); the
	// write log takes WriteLogBytes of it when enabled, the data cache the
	// rest.
	SSDDRAMBytes  int
	WriteLogBytes int
	CacheWays     int

	// SkyByte features (variant toggles).
	WriteLogEnabled  bool
	CtxSwitchEnabled bool
	HintThreshold    sim.Time
	PrefetchNext     bool

	// OS.
	Policy        osched.PolicyKind
	CtxSwitchCost sim.Time

	// Migration.
	Migration        MigrationMode
	PromotedMaxBytes int
	MigrationThresh  uint32

	// Run behaviour.
	DRAMOnly           bool
	PreconditionFill   float64
	PreconditionRewrit float64
	Seed               uint64
	TrackLocality      bool

	// Fleet (DESIGN.md §9). Devices, when >= 2, wires that many
	// independent controller+FTL+flash+write-log backends behind the
	// shared CXL link, with Placement naming the fleet.Policy that maps
	// logical pages to devices ("" = striped). Zero (the default) and one
	// are the same single-device machine, bit-identical to pre-fleet
	// builds and with no per-device Result section. Placement requires
	// Devices >= 2.
	Devices   int
	Placement string

	// TelemetryCadence, when positive, samples the registered telemetry
	// probes every cadence of simulated time into Result.Telemetry.
	// Zero (the default) disables telemetry entirely: no sampler events
	// are scheduled and the request-path hooks stay nil, so the run is
	// bit-identical to one before the telemetry subsystem existed.
	TelemetryCadence sim.Time
	// TelemetryTimeline additionally records request-lifecycle and
	// context-switch spans (exportable as Chrome trace-event JSON).
	// Requires TelemetryCadence > 0; ignored otherwise.
	TelemetryTimeline bool
}

// MaxScale is the largest n ConfigAt accepts: 1/64 of Table II, the
// machine every campaign runs.
const MaxScale = 64

// ConfigAt is the evaluation machine at 1/n of Table II's capacities, n
// a power of two from 1 to MaxScale. One sizing rule (DESIGN.md §1) sets
// every capacity: the LLC is 16 MiB/n, flash has 512/n blocks per plane
// over a fixed 256 dies, and SSD DRAM is 512 MiB/n (WithSSDDRAM sizes the
// write log and promotion budget from it). Everything else — core
// count, L1/L2, die count, FTL thresholds, promotion threshold — is the
// same at every n, so ConfigAt(1) has Table II's capacities but not all
// of its other values. ConfigAt panics on any other n; ParseScale
// validates user input.
func ConfigAt(n int) Config {
	if err := checkScale(n); err != nil {
		panic(err)
	}
	c := Config{
		Cores:    8,
		CPU:      cpu.DefaultConfig(),
		LLCBytes: 16 * mem.MiB / n,
		LLCWays:  16,

		Link:     cxl.DefaultConfig(),
		HostDRAM: dram.HostDDR5(),
		SSDDRAM:  dram.SSDLPDDR4(),

		// 16 channels x 4 chips x 4 dies x 512/n blocks x 256 pages x 4 KB
		// (2 GB at 1/64, 128 GB at 1/1). Capacity scales with n; the die
		// count stays 256 (Table II: 1024), keeping per-die program
		// pressure within reach of the paper's device at 1/64 (see
		// DESIGN.md §1).
		Geometry: flash.Geometry{Channels: 16, ChipsPerChan: 4, DiesPerChip: 4, PlanesPerDie: 1, BlocksPerPlane: 512 / n, PagesPerBlock: 256},
		Timing:   flash.TimingULL,
		FTL:      ftl.Config{UsableRatio: 0.75, GCTriggerFree: 0.15, GCReplenishFree: 0.18},

		CacheWays: 16,

		HintThreshold: 2 * sim.Microsecond,

		Policy:        osched.PolicyCFS,
		CtxSwitchCost: 2 * sim.Microsecond,

		// Hotness knobs scale with run length: the paper replays >=100M
		// instructions per thread with threshold 32; scaled campaigns run
		// tens of thousands, so pages earn promotion sooner.
		MigrationThresh: 8,

		PreconditionFill:   0.85,
		PreconditionRewrit: 0.25,
		Seed:               1,
	}
	return c.WithSSDDRAM(512 * mem.MiB / n)
}

// ScaledConfig is ConfigAt(MaxScale): the 1/64 machine every campaign
// runs, sized so a full variant sweep runs in seconds.
func ScaledConfig() Config { return ConfigAt(MaxScale) }

// ParseScale parses a machine scale written "1/n" (n a power of two
// from 1 to MaxScale) and returns n.
func ParseScale(s string) (int, error) {
	num, den, ok := strings.Cut(s, "/")
	n, err := strconv.Atoi(den)
	if !ok || num != "1" || err != nil {
		return 0, fmt.Errorf("system: scale %q is not of the form 1/n", s)
	}
	if err := checkScale(n); err != nil {
		return 0, err
	}
	return n, nil
}

func checkScale(n int) error {
	if n < 1 || n > MaxScale || n&(n-1) != 0 {
		return fmt.Errorf("system: scale 1/%d: n must be a power of two from 1 to %d", n, MaxScale)
	}
	return nil
}

// WithSSDDRAM sizes the SSD DRAM to bytes and keeps §VI-F's ratios to
// it: the write log is 1/8 of it and the host promotion budget 4x.
func (c Config) WithSSDDRAM(bytes int) Config {
	c.SSDDRAMBytes = bytes
	c.WriteLogBytes = bytes / 8
	c.PromotedMaxBytes = 4 * bytes
	return c
}

// Validate reports a configuration no machine can be built from: an SSD
// DRAM whose data cache — what the write log, when enabled, leaves of
// it — cannot hold one full set of CacheWays pages.
func (c Config) Validate() error {
	if cache, set := c.controllerConfig().CacheBytes, c.CacheWays*mem.PageBytes; cache < set {
		return fmt.Errorf("system: %s of SSD DRAM beside a %s write log leaves %s for the data cache, less than one %d-way set (%s)",
			stats.FormatGB(uint64(c.SSDDRAMBytes)), stats.FormatGB(uint64(c.WriteLogBytes)),
			stats.FormatGB(uint64(max(cache, 0))), c.CacheWays, stats.FormatGB(uint64(set)))
	}
	return nil
}

// WithVariant applies a design point's feature toggles.
func (c Config) WithVariant(v Variant) Config {
	c.Name = string(v)
	c.DRAMOnly = false
	c.WriteLogEnabled = false
	c.CtxSwitchEnabled = false
	c.PrefetchNext = true // Base-CSSD ships with prefetching; all variants build on it
	c.Migration = MigrationNone
	switch v {
	case DRAMOnly:
		c.DRAMOnly = true
		c.PrefetchNext = false
	case BaseCSSD:
	case SkyByteC:
		c.CtxSwitchEnabled = true
	case SkyByteP:
		c.Migration = MigrationAdaptive
	case SkyByteW:
		c.WriteLogEnabled = true
	case SkyByteCP:
		c.CtxSwitchEnabled = true
		c.Migration = MigrationAdaptive
	case SkyByteWP:
		c.WriteLogEnabled = true
		c.Migration = MigrationAdaptive
	case SkyByteFull:
		c.WriteLogEnabled = true
		c.CtxSwitchEnabled = true
		c.Migration = MigrationAdaptive
	case SkyByteCT:
		c.CtxSwitchEnabled = true
		c.Migration = MigrationTPP
	case SkyByteWCT:
		c.WriteLogEnabled = true
		c.CtxSwitchEnabled = true
		c.Migration = MigrationTPP
	case AstriFlashCXL:
		c.Migration = MigrationAstri
		c.CtxSwitchCost = astriSwitchCost
	default:
		panic(fmt.Sprintf("system: unknown variant %q", v))
	}
	return c
}

// fleetConfig derives the placement-layer configuration of a fleet run.
func (c Config) fleetConfig() fleet.Config {
	return fleet.Config{Devices: c.Devices, Policy: fleet.Policy(c.Placement)}
}

// controllerConfig derives the SSD controller configuration.
func (c Config) controllerConfig() core.Config {
	cache := c.SSDDRAMBytes
	if c.WriteLogEnabled {
		cache -= c.WriteLogBytes
	}
	return core.Config{
		WriteLogEnabled:       c.WriteLogEnabled,
		WriteLogBytes:         c.WriteLogBytes,
		CacheBytes:            cache,
		CacheWays:             c.CacheWays,
		HintEnabled:           c.CtxSwitchEnabled,
		HintThreshold:         c.HintThreshold,
		PrefetchNext:          c.PrefetchNext,
		MigrationEnabled:      c.Migration == MigrationAdaptive,
		MigrationThreshold:    c.MigrationThresh,
		MigrationMinResidency: migrationMinResidency,
		TrackLocality:         c.TrackLocality,
	}
}
