// Package dram models channel-interleaved DRAM timing for both the host
// DDR5 (Table II: 4800 MHz, 8 channels) and the SSD's internal LPDDR4
// (3200 MHz, 2 channels). Each channel is a FIFO with a fixed access
// latency plus a per-64-B service time; the unloaded latency and aggregate
// bandwidth match the respective parts (~70 ns / ~38 GB/s for DDR5, ~50 ns
// / ~26 GB/s for LPDDR4). A full DDR state machine is out of scope (see
// DESIGN.md §1) — queueing under load is what the evaluation depends on.
package dram

import (
	"skybyte/internal/mem"
	"skybyte/internal/sim"
)

// Config parameterises a DRAM device.
type Config struct {
	Channels     int
	FixedLatency sim.Time // pipeline latency added to every access
	ServicePer64 sim.Time // channel occupancy per 64 B transferred
}

// HostDDR5 mirrors Table II's host memory: 8 channels; ~71 ns unloaded,
// ~38 GB/s aggregate.
func HostDDR5() Config {
	return Config{Channels: 8, FixedLatency: 58 * sim.Nanosecond, ServicePer64: 13300}
}

// SSDLPDDR4 mirrors Table II's SSD DRAM: 2 channels; ~50 ns unloaded,
// ~26 GB/s aggregate.
func SSDLPDDR4() Config {
	return Config{Channels: 2, FixedLatency: 45 * sim.Nanosecond, ServicePer64: 5 * sim.Nanosecond}
}

// Stats counts DRAM activity.
type Stats struct {
	Reads    uint64
	Writes   uint64
	Bytes    uint64
	BusyTime sim.Time
}

// DRAM is one timing-modelled DRAM device.
type DRAM struct {
	eng   *sim.Engine
	cfg   Config
	free  []sim.Time
	stats Stats
}

// New builds a DRAM device.
func New(eng *sim.Engine, cfg Config) *DRAM {
	if cfg.Channels <= 0 {
		panic("dram: channels must be positive")
	}
	return &DRAM{eng: eng, cfg: cfg, free: make([]sim.Time, cfg.Channels)}
}

// Stats returns a copy of the counters.
func (d *DRAM) Stats() Stats { return d.stats }

// channelOf interleaves cachelines across channels.
func (d *DRAM) channelOf(a mem.Addr) int {
	return int(a.LineNumber()) % d.cfg.Channels
}

// Access performs one cacheline access, firing done at completion.
// It returns the completion time for callers that account latency inline.
func (d *DRAM) Access(a mem.Addr, write bool, done func()) sim.Time {
	return d.AccessBytes(a, mem.LineBytes, write, done)
}

// AccessBytes performs a transfer of size bytes (rounded up to whole
// cachelines) — used for page-granular moves between the flash buffers and
// the SSD DRAM cache. Cachelines interleave across channels exactly like
// demand accesses, so a 4 KB fill spreads over every channel rather than
// serialising on one.
func (d *DRAM) AccessBytes(a mem.Addr, size int, write bool, done func()) sim.Time {
	lines := (size + mem.LineBytes - 1) / mem.LineBytes
	if lines <= 1 {
		return d.access(d.channelOf(a), 1, write, done)
	}
	per := lines / d.cfg.Channels
	extra := lines % d.cfg.Channels
	var completion sim.Time
	for ch := 0; ch < d.cfg.Channels; ch++ {
		n := per
		if ch < extra {
			n++
		}
		if n == 0 {
			continue
		}
		end := d.accessTime(ch, n)
		if end > completion {
			completion = end
		}
	}
	d.stats.Bytes += uint64(lines * mem.LineBytes)
	if write {
		d.stats.Writes++
	} else {
		d.stats.Reads++
	}
	completion += d.cfg.FixedLatency
	if done != nil {
		d.eng.At(completion, done)
	}
	return completion
}

func (d *DRAM) access(ch, lines int, write bool, done func()) sim.Time {
	end := d.accessTime(ch, lines)
	d.stats.Bytes += uint64(lines * mem.LineBytes)
	if write {
		d.stats.Writes++
	} else {
		d.stats.Reads++
	}
	completion := end + d.cfg.FixedLatency
	if done != nil {
		d.eng.At(completion, done)
	}
	return completion
}

// accessTime books lines of channel occupancy and returns when the channel
// finishes them.
func (d *DRAM) accessTime(ch, lines int) sim.Time {
	ser := d.cfg.ServicePer64 * sim.Time(lines)
	start := sim.Max(d.eng.Now(), d.free[ch])
	end := start + ser
	d.free[ch] = end
	d.stats.BusyTime += ser
	return end
}

// UnloadedLatency returns the latency of an access on an idle channel.
func (d *DRAM) UnloadedLatency() sim.Time {
	return d.cfg.FixedLatency + d.cfg.ServicePer64
}
