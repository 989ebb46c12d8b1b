// Package system assembles the full simulated machine: multi-core CPU with
// its cache hierarchy, the OS scheduler, the CXL.mem link, host DRAM, and
// the SkyByte SSD controller over flash+FTL. It implements the design
// variants of the paper's evaluation (§VI-A and §VI-H) as configuration
// presets and produces the measurements every figure and table consumes.
package system

import (
	"fmt"
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
)

// Config is the full-system configuration: the Table II values a caller
// may vary, plus the artifact's knobs. Start from ScaledConfig or
// PaperConfig and apply WithVariant.
type Config struct {
	Name string

	// CPU side.
	Cores    int
	CPU      cpu.Config
	L1Bytes  int
	L1Ways   int
	L2Bytes  int
	L2Ways   int
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

// ScaledConfig is the evaluation configuration at 1/64 of Table II's
// capacities (same ratios throughout; see DESIGN.md §1), sized so a full
// variant sweep runs in seconds.
func ScaledConfig() Config {
	return Config{
		Cores:    8,
		CPU:      cpu.DefaultConfig(),
		L1Bytes:  16 * mem.KiB,
		L1Ways:   8,
		L2Bytes:  64 * mem.KiB,
		L2Ways:   16,
		LLCBytes: 256 * mem.KiB,
		LLCWays:  16,

		Link:     cxl.DefaultConfig(),
		HostDRAM: dram.HostDDR5(),
		SSDDRAM:  dram.SSDLPDDR4(),

		// 2 GB flash: 16 channels x 4 chips x 4 dies x 8 blocks x 256
		// pages x 4 KB. Capacity scales 1/64 from Table II but the die
		// count only 1/4 (256 vs 1024), keeping per-die program pressure
		// within reach of the paper's device (see DESIGN.md §1).
		Geometry: flash.Geometry{Channels: 16, ChipsPerChan: 4, DiesPerChip: 4, PlanesPerDie: 1, BlocksPerPlane: 8, PagesPerBlock: 256},
		Timing:   flash.TimingULL,
		FTL:      ftl.Config{UsableRatio: 0.75, GCTriggerFree: 0.15, GCReplenishFree: 0.18},

		SSDDRAMBytes:  8 * mem.MiB,
		WriteLogBytes: 1 * mem.MiB,
		CacheWays:     16,

		HintThreshold: 2 * sim.Microsecond,

		Policy:        osched.PolicyCFS,
		CtxSwitchCost: 2 * sim.Microsecond,

		PromotedMaxBytes: 32 * mem.MiB,
		// Hotness knobs scale with run length: the paper replays >=100M
		// instructions per thread with threshold 32; scaled campaigns run
		// tens of thousands, so pages earn promotion sooner.
		MigrationThresh: 8,

		PreconditionFill:   0.85,
		PreconditionRewrit: 0.25,
		Seed:               1,
	}
}

// PaperConfig has Table II's capacities (128 GB flash, 512 MB SSD DRAM,
// 64 MB write log, 2 GB promotion budget, 16 MB LLC) but keeps two
// ScaledConfig settings that differ from the paper: the FTL exposes 75%
// of flash and collects garbage from 15% free blocks back to 18%
// (Table II: GC at 80% utilisation), and the promotion threshold is 8
// (paper: 32). Simulating at this scale is slow — the artifact quotes
// 3 days on 32 cores — so benches use ScaledConfig; PaperConfig exists
// for spot validation and documentation.
func PaperConfig() Config {
	c := ScaledConfig()
	c.L1Bytes = 32 * mem.KiB
	c.L1Ways = 8
	c.L2Bytes = 512 * mem.KiB
	c.L2Ways = 32
	c.LLCBytes = 16 * mem.MiB
	c.LLCWays = 16
	c.Geometry = flash.PaperGeometry
	c.SSDDRAMBytes = 512 * mem.MiB
	c.WriteLogBytes = 64 * mem.MiB
	c.PromotedMaxBytes = 2 * mem.GiB
	return c
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
