package runner

import (
	"bytes"
	"context"
	"testing"

	"skybyte/internal/sim"
	"skybyte/internal/store"
	"skybyte/internal/system"
	"skybyte/internal/telemetry"
)

// telemetrySpec is an open-loop design point with sampling and the
// request-lifecycle timeline enabled — the fullest telemetry shape
// (component probes, per-class tracks, gate spans, read spans).
func telemetrySpec() Spec {
	return Spec{
		Arrival:      "open-steady",
		ArrivalScale: 1,
		Variant:      system.SkyByteFull,
		TotalInstr:   36_000,
		Mutate: func(c *system.Config) {
			c.TelemetryCadence = 2 * sim.Microsecond
			c.TelemetryTimeline = true
		},
	}
}

// TestTelemetryParallelByteIdentity pins the tentpole determinism
// claim: the telemetry section — series and spans — and the rendered
// Chrome timeline are byte-identical whether the run executed on a
// 1-worker or an 8-worker pool.
func TestTelemetryParallelByteIdentity(t *testing.T) {
	spec := telemetrySpec()
	seq, err := testRunner(1).Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	par, err := testRunner(8).Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range []*system.Result{seq, par} {
		tel := res.Telemetry
		if tel == nil {
			t.Fatal("telemetry-enabled run produced no Telemetry section")
		}
		if tel.Samples == 0 || len(tel.Series) == 0 {
			t.Fatalf("empty telemetry: %d samples, %d series", tel.Samples, len(tel.Series))
		}
		if len(tel.Spans) == 0 {
			t.Fatal("timeline run recorded no spans")
		}
	}
	a, err := system.EncodeResult(seq)
	if err != nil {
		t.Fatal(err)
	}
	b, err := system.EncodeResult(par)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("telemetry run diverged between parallelism 1 and 8")
	}
	var ta, tb bytes.Buffer
	if err := telemetry.WriteChromeTrace(&ta, seq.Telemetry); err != nil {
		t.Fatal(err)
	}
	if err := telemetry.WriteChromeTrace(&tb, par.Telemetry); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ta.Bytes(), tb.Bytes()) {
		t.Fatal("rendered timeline diverged between parallelism 1 and 8")
	}
	if _, _, err := telemetry.ValidateChromeTrace(ta.Bytes()); err != nil {
		t.Fatalf("rendered timeline violates the trace-event invariants: %v", err)
	}
}

// TestTelemetryStoreRoundTrip runs a telemetry spec into a persistent
// store, recalls it with a fresh runner, and checks the recalled
// Result — telemetry section included — is byte-identical to the live
// one.
func TestTelemetryStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	open := func() *store.Disk {
		s, err := store.Open(dir, store.Fingerprint(system.ScaledConfig(), 7))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	spec := telemetrySpec()

	r1 := testRunner(1)
	r1.Store = open()
	live, err := r1.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}

	r2 := testRunner(1)
	r2.Store = open()
	r2.CacheOnly = true // a miss would be an error: this run must recall
	recalled, err := r2.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if recalled.Telemetry == nil || len(recalled.Telemetry.Spans) == 0 {
		t.Fatal("telemetry section did not survive the store round trip")
	}
	a, err := system.EncodeResult(live)
	if err != nil {
		t.Fatal(err)
	}
	b, err := system.EncodeResult(recalled)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("store round trip changed the encoded Result")
	}
}
