// Package fleet places logical pages across a cluster of CXL-SSD
// devices. A fleet run wires K independent controller+FTL+flash
// backends behind the shared CXL link (DESIGN.md §9); this package owns
// the placement layer that decides which device serves each logical
// page, under one of three pluggable policies:
//
//   - striped: page i lives on device i mod K — the interleave that
//     spreads sequential streams perfectly and is the fleet default.
//   - capacity: a deterministic hash of the page maps into equal
//     per-device ranges, so placement depends on the page number alone
//     and spreads without striped's lpa-mod-K correlation.
//   - hotcold: pages start on the cold tier (striped across the cold
//     devices); a page whose access count reaches the hot threshold
//     migrates to the hot tier, and the simulator charges the transfer
//     through the normal link and flash paths.
//
// Every policy is a pure function of (config, access history): two
// placers built from the same Config observing the same access sequence
// make identical decisions, which is what keeps fleet results
// byte-identical at any campaign parallelism. The policy name and
// device count fold into runner spec keys (Spec.Devices/Placement), so
// changing only the placement re-keys exactly the fleet design points.
package fleet

import (
	"fmt"
	"math"
	"strings"
)

// Policy names a placement algorithm.
type Policy string

// The placement policies.
const (
	Striped  Policy = "striped"
	Capacity Policy = "capacity"
	HotCold  Policy = "hotcold"
)

// Policies lists every placement policy, in documentation order.
// Striped comes first: it is the default when a fleet config names no
// policy.
var Policies = []Policy{Striped, Capacity, HotCold}

// MaxDevices bounds the fleet size a run may wire. Each device carries
// a full flash array, FTL map, and controller, so the bound keeps a
// mistyped device count from allocating a rack's worth of simulator
// state.
const MaxDevices = 16

// PolicyNames returns the names of every placement policy.
func PolicyNames() []string {
	names := make([]string, len(Policies))
	for i, p := range Policies {
		names[i] = string(p)
	}
	return names
}

// ParsePolicy resolves a placement-policy name, rejecting unknown names
// with an error that lists the valid set — use it to validate CLI input
// before building a system, the same convention as system.ParseVariant.
// The empty string resolves to the default, Striped.
func ParsePolicy(name string) (Policy, error) {
	if name == "" {
		return Striped, nil
	}
	for _, p := range Policies {
		if string(p) == name {
			return p, nil
		}
	}
	return "", fmt.Errorf("fleet: unknown placement policy %q (valid: %s)", name, strings.Join(PolicyNames(), ", "))
}

// Validate checks a (device count, placement name) pair the way the
// CLIs and the runner must before any simulation starts: the count
// within 1..MaxDevices and the name a known policy (or empty). The
// errors list the valid sets.
func Validate(devices int, placement string) error {
	if devices < 1 || devices > MaxDevices {
		return fmt.Errorf("fleet: invalid device count %d (valid: 1..%d)", devices, MaxDevices)
	}
	_, err := ParsePolicy(placement)
	return err
}

// Config parameterizes a fleet's placement layer.
type Config struct {
	// Devices is the fleet size K (1..MaxDevices).
	Devices int
	// Policy selects the placement algorithm ("" = Striped).
	Policy Policy
}

// The HotCold tier shape: the hot tier is the leading
// max(1, K/hotTierDivisor) devices, and a cold-tier page migrates there
// on its hotThreshold-th access (matching the scaled machine's
// promotion threshold).
const (
	hotTierDivisor = 4
	hotThreshold   = 8
)

// Migration reports one hot/cold tier promotion: page LPA leaves device
// From for device To. The caller (the system) simulates the transfer;
// the placer has already flipped ownership, so requests issued after
// the decision route to the new device.
type Migration struct {
	LPA      uint64
	From, To int
}

// Placer maps logical pages to devices. It records first-touch
// ownership (the per-device page accounting of Result.Devices) and, for
// HotCold, per-page heat. A Placer belongs to one System and is not
// safe for concurrent use — the same contract as every other simulator
// component.
type Placer struct {
	cfg    Config
	policy Policy
	hotDev int

	owner   map[uint64]uint16 // lpa -> owning device (recorded at first touch)
	heat    map[uint64]uint32 // HotCold: access counts of cold-tier pages
	pages   []uint64          // per-device owned-page counts
	inbound []uint64          // per-device hot-tier migration arrivals
	bounds  []uint64          // Capacity: cumulative weight thresholds over the hash range
}

// NewPlacer builds a placement layer. The config must pass Validate,
// and a HotCold fleet needs a cold tier beside its hot one (K >= 2).
func NewPlacer(cfg Config) (*Placer, error) {
	if err := Validate(cfg.Devices, string(cfg.Policy)); err != nil {
		return nil, err
	}
	policy, _ := ParsePolicy(string(cfg.Policy))
	p := &Placer{
		cfg:    cfg,
		policy: policy,
		hotDev: max(1, cfg.Devices/hotTierDivisor),
		owner:  make(map[uint64]uint16),
		pages:  make([]uint64, cfg.Devices),
	}
	switch policy {
	case Capacity:
		// Equal-weight ranges over the hash space; the last bound
		// covers the whole range exactly.
		p.bounds = make([]uint64, cfg.Devices)
		total := float64(cfg.Devices)
		for i := range p.bounds {
			if i == cfg.Devices-1 {
				p.bounds[i] = math.MaxUint64
			} else {
				p.bounds[i] = uint64(float64(i+1) / total * float64(math.MaxUint64))
			}
		}
	case HotCold:
		if p.hotDev >= cfg.Devices {
			return nil, fmt.Errorf("fleet: hotcold needs a cold tier: hot devices %d must be < devices %d", p.hotDev, cfg.Devices)
		}
		p.heat = make(map[uint64]uint32)
		p.inbound = make([]uint64, cfg.Devices)
	}
	return p, nil
}

// Policy returns the resolved placement policy.
func (p *Placer) Policy() Policy { return p.policy }

// Device returns the device owning lpa, recording first-touch ownership
// so the per-device page accounting stays exact.
func (p *Placer) Device(lpa uint64) int {
	if d, ok := p.owner[lpa]; ok {
		return int(d)
	}
	d := p.home(lpa)
	p.owner[lpa] = uint16(d)
	p.pages[d]++
	return d
}

// home computes a page's policy-defined initial device.
func (p *Placer) home(lpa uint64) int {
	k := uint64(p.cfg.Devices)
	switch p.policy {
	case Capacity:
		h := mix64(lpa)
		for i, bound := range p.bounds {
			if h <= bound {
				return i
			}
		}
		return p.cfg.Devices - 1
	case HotCold:
		// Cold pages stripe across the cold tier; heat moves them up.
		cold := k - uint64(p.hotDev)
		return p.hotDev + int(lpa%cold)
	default: // Striped
		return int(lpa % k)
	}
}

// NoteAccess books one access to lpa for the heat-driven policies and
// reports the migration it triggers, if any. Static policies always
// return ok=false. The returned migration's ownership flip has already
// happened; the caller simulates the data movement.
func (p *Placer) NoteAccess(lpa uint64) (m Migration, ok bool) {
	if p.policy != HotCold {
		return Migration{}, false
	}
	from := p.Device(lpa)
	if from < p.hotDev {
		return Migration{}, false // already hot
	}
	p.heat[lpa]++
	if p.heat[lpa] < hotThreshold {
		return Migration{}, false
	}
	delete(p.heat, lpa)
	to := int(lpa % uint64(p.hotDev))
	p.owner[lpa] = uint16(to)
	p.pages[from]--
	p.pages[to]++
	p.inbound[to]++
	return Migration{LPA: lpa, From: from, To: to}, true
}

// Pages returns the number of logical pages currently owned by dev.
func (p *Placer) Pages(dev int) uint64 { return p.pages[dev] }

// Inbound returns the number of hot-tier migrations that landed on dev
// (always 0 for static policies).
func (p *Placer) Inbound(dev int) uint64 {
	if p.inbound == nil {
		return 0
	}
	return p.inbound[dev]
}

// Migrations returns the total inter-device migrations performed.
func (p *Placer) Migrations() uint64 {
	var n uint64
	for _, x := range p.inbound {
		n += x
	}
	return n
}

// mix64 is the splitmix64 finalizer: a fixed, high-quality 64-bit
// mixer, so capacity placement depends only on the page number — never
// on iteration order or a seeded stream.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
