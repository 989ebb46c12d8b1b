package cxl

import (
	"testing"

	"skybyte/internal/sim"
)

func TestUnloadedLatency(t *testing.T) {
	var eng sim.Engine
	l := New(&eng, DefaultConfig())
	var at sim.Time
	l.ToDevice(HeaderBytes, func() { at = eng.Now() })
	eng.Run()
	want := l.serialize(HeaderBytes) + 20*sim.Nanosecond
	if at != want {
		t.Fatalf("arrival = %v, want %v", at, want)
	}
}

func TestBandwidthSerialization(t *testing.T) {
	var eng sim.Engine
	l := New(&eng, Config{LatencyEachWay: 0, BytesPerNs: 16})
	// Two 80 B data messages serialise back to back: 5 ns each.
	var first, second sim.Time
	l.ToHost(DataBytes, func() { first = eng.Now() })
	l.ToHost(DataBytes, func() { second = eng.Now() })
	eng.Run()
	if first != 5*sim.Nanosecond || second != 10*sim.Nanosecond {
		t.Fatalf("completions = %v, %v; want 5ns, 10ns", first, second)
	}
}

func TestDirectionsIndependent(t *testing.T) {
	var eng sim.Engine
	l := New(&eng, Config{LatencyEachWay: 0, BytesPerNs: 16})
	var tx, rx sim.Time
	l.ToDevice(DataBytes, func() { tx = eng.Now() })
	l.ToHost(DataBytes, func() { rx = eng.Now() })
	eng.Run()
	if tx != rx {
		t.Fatalf("full duplex broken: tx=%v rx=%v", tx, rx)
	}
}

func TestStatsAndUtilization(t *testing.T) {
	var eng sim.Engine
	l := New(&eng, DefaultConfig())
	l.ToDevice(HeaderBytes, func() {})
	l.ToHost(DataBytes, func() {})
	eng.Run()
	s := l.Stats()
	if s.ToDeviceMsgs != 1 || s.ToHostMsgs != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if s.ToDeviceBytes != HeaderBytes || s.ToHostBytes != DataBytes {
		t.Fatalf("bytes = %+v", s)
	}
	// Each direction was busy for part of the run, never longer than it.
	if el := eng.Now(); s.BusyTx <= 0 || s.BusyRx <= 0 || s.BusyTx > el || s.BusyRx > el {
		t.Fatalf("busy tx=%v rx=%v over %v", s.BusyTx, s.BusyRx, el)
	}
}
