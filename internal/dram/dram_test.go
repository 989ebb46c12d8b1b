package dram

import (
	"testing"

	"skybyte/internal/mem"
	"skybyte/internal/sim"
)

func TestUnloadedLatency(t *testing.T) {
	var eng sim.Engine
	d := New(&eng, HostDDR5())
	got := d.UnloadedLatency()
	if got < 65*sim.Nanosecond || got > 80*sim.Nanosecond {
		t.Fatalf("host DDR5 unloaded latency = %v, want ~70ns", got)
	}
	d2 := New(&eng, SSDLPDDR4())
	got2 := d2.UnloadedLatency()
	if got2 < 45*sim.Nanosecond || got2 > 60*sim.Nanosecond {
		t.Fatalf("LPDDR4 unloaded latency = %v, want ~50ns", got2)
	}
}

func TestChannelQueueing(t *testing.T) {
	var eng sim.Engine
	cfg := Config{Channels: 2, FixedLatency: 10 * sim.Nanosecond, ServicePer64: 5 * sim.Nanosecond}
	d := New(&eng, cfg)
	var c0a, c0b, c1 sim.Time
	// Lines 0 and 2 hit channel 0; line 1 hits channel 1.
	d.Access(mem.Addr(0), false, func() { c0a = eng.Now() })
	d.Access(mem.Addr(128), false, func() { c0b = eng.Now() })
	d.Access(mem.Addr(64), false, func() { c1 = eng.Now() })
	eng.Run()
	if c0a != 15*sim.Nanosecond {
		t.Fatalf("first ch0 access = %v", c0a)
	}
	if c0b != 20*sim.Nanosecond {
		t.Fatalf("queued ch0 access = %v, want 20ns", c0b)
	}
	if c1 != 15*sim.Nanosecond {
		t.Fatalf("ch1 access should not queue: %v", c1)
	}
}

func TestAccessBytesBulk(t *testing.T) {
	var eng sim.Engine
	cfg := Config{Channels: 1, FixedLatency: 0, ServicePer64: sim.Nanosecond}
	d := New(&eng, cfg)
	var at sim.Time
	d.AccessBytes(0, mem.PageBytes, true, func() { at = eng.Now() })
	eng.Run()
	if at != 64*sim.Nanosecond {
		t.Fatalf("4KB transfer = %v, want 64ns", at)
	}
	if d.Stats().Bytes != mem.PageBytes {
		t.Fatalf("bytes = %d", d.Stats().Bytes)
	}
	if d.Stats().Writes != 1 || d.Stats().Reads != 0 {
		t.Fatalf("stats = %+v", d.Stats())
	}
}

func TestReturnedCompletionMatchesCallback(t *testing.T) {
	var eng sim.Engine
	d := New(&eng, SSDLPDDR4())
	var cb sim.Time
	ret := d.Access(64, false, func() { cb = eng.Now() })
	eng.Run()
	if ret != cb {
		t.Fatalf("returned %v, callback at %v", ret, cb)
	}
}

func TestUtilizationBounds(t *testing.T) {
	var eng sim.Engine
	d := New(&eng, SSDLPDDR4())
	for i := 0; i < 100; i++ {
		d.Access(mem.Addr(i*64), i%2 == 0, func() {})
	}
	eng.Run()
	// Busy time across both channels stays within their elapsed capacity.
	busy, capacity := d.Stats().BusyTime, 2*eng.Now()
	if busy <= 0 || busy > capacity {
		t.Fatalf("busy %v over a %v channel capacity", busy, capacity)
	}
}

func TestZeroChannelsPanics(t *testing.T) {
	var eng sim.Engine
	defer func() {
		if recover() == nil {
			t.Fatal("zero channels should panic")
		}
	}()
	New(&eng, Config{})
}
