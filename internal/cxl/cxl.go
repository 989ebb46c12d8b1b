// Package cxl models the CXL.mem transport between the host and the SSD: a
// bandwidth- and latency-accurate link for the PCIe 5.0 x4 interface of
// Table II (16 GB/s per direction, 40 ns protocol latency round trip) that
// moves header-only and data-carrying messages in each direction.
package cxl

import "skybyte/internal/sim"

// Wire sizes used for bandwidth shaping: a header-only message (requests
// without data, NDR responses) and a data-carrying message (64 B payload
// plus header). CXL flits are 64 B plus 2 B CRC; we round to whole bytes.
const (
	HeaderBytes = 16
	DataBytes   = 64 + HeaderBytes
)

// Config sets the link parameters.
type Config struct {
	// LatencyEachWay is the protocol latency per direction; Table II's
	// "40 ns protocol latency" is the round trip, so the default is 20 ns.
	LatencyEachWay sim.Time
	// BytesPerNs is the per-direction bandwidth (PCIe 5.0 x4 ≈ 16 GB/s =
	// 16 B/ns).
	BytesPerNs float64
}

// DefaultConfig mirrors Table II.
func DefaultConfig() Config {
	return Config{LatencyEachWay: 20 * sim.Nanosecond, BytesPerNs: 16}
}

// Stats counts link traffic.
type Stats struct {
	ToDeviceMsgs  uint64
	ToDeviceBytes uint64
	ToHostMsgs    uint64
	ToHostBytes   uint64
	BusyTx        sim.Time
	BusyRx        sim.Time
}

// Link is one full-duplex CXL link.
type Link struct {
	eng    *sim.Engine
	cfg    Config
	txFree sim.Time // host→device direction
	rxFree sim.Time // device→host direction
	stats  Stats
}

// New builds a link.
func New(eng *sim.Engine, cfg Config) *Link {
	return &Link{eng: eng, cfg: cfg}
}

// Stats returns a copy of the traffic counters.
func (l *Link) Stats() Stats { return l.stats }

// serialize computes how long size bytes occupy a direction.
func (l *Link) serialize(size int) sim.Time {
	return sim.Time(float64(size) / l.cfg.BytesPerNs * float64(sim.Nanosecond))
}

// ToDevice delivers a message of size bytes to the device, firing done at
// arrival time. Messages queue behind earlier traffic in this direction.
func (l *Link) ToDevice(size int, done func()) {
	start := sim.Max(l.eng.Now(), l.txFree)
	ser := l.serialize(size)
	l.txFree = start + ser
	l.stats.BusyTx += ser
	l.stats.ToDeviceMsgs++
	l.stats.ToDeviceBytes += uint64(size)
	if done != nil {
		l.eng.At(l.txFree+l.cfg.LatencyEachWay, done)
	}
}

// ToHost delivers a message of size bytes to the host.
func (l *Link) ToHost(size int, done func()) {
	start := sim.Max(l.eng.Now(), l.rxFree)
	ser := l.serialize(size)
	l.rxFree = start + ser
	l.stats.BusyRx += ser
	l.stats.ToHostMsgs++
	l.stats.ToHostBytes += uint64(size)
	if done != nil {
		l.eng.At(l.rxFree+l.cfg.LatencyEachWay, done)
	}
}

// TxBacklog returns how far the host→device direction is committed
// beyond instant now — the serialization backlog a message entering
// the link at now would queue behind. Zero when the direction is idle.
func (l *Link) TxBacklog(now sim.Time) sim.Time {
	if l.txFree > now {
		return l.txFree - now
	}
	return 0
}

// RxBacklog is TxBacklog for the device→host direction.
func (l *Link) RxBacklog(now sim.Time) sim.Time {
	if l.rxFree > now {
		return l.rxFree - now
	}
	return 0
}
