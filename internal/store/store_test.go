package store

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"

	"skybyte/internal/sim"
	"skybyte/internal/system"
)

// sampleResult builds a representative Result without running a
// simulation (the codec itself is exercised against real simulations
// in internal/system; here the subject is the envelope integrity).
func sampleResult(key string) *system.Result {
	r := &system.Result{
		Variant:      "SkyByte-Full",
		CacheKey:     key,
		ExecTime:     123 * sim.Microsecond,
		Instructions: 96_000,
		LLCMisses:    4_321,
		MPKI:         45.01,
	}
	r.ReadLat.Observe(180 * sim.Nanosecond)
	r.ReadLat.Observe(3 * sim.Microsecond)
	r.FlashLat.Observe(5 * sim.Microsecond)
	r.Breakdown.Inc(0)
	r.Traffic.HostPrograms = 7
	return r
}

func openTestStore(t *testing.T, dir, fp string) *Disk {
	t.Helper()
	d, err := Open(dir, fp)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestPutGetRoundTrip(t *testing.T) {
	d := openTestStore(t, t.TempDir(), "fp-a")
	want := sampleResult("k1")
	d.Put("k1", want)
	got, ok := d.Get("k1")
	if !ok {
		t.Fatal("fresh Put missed on Get")
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("result did not round-trip through the disk store")
	}
	if _, ok := d.Get("k2"); ok {
		t.Fatal("unknown key hit")
	}
	hits, misses, puts := d.Stats()
	if hits != 1 || misses != 1 || puts != 1 {
		t.Fatalf("stats = %d/%d/%d, want 1/1/1", hits, misses, puts)
	}
}

// mutateEntry rewrites the stored entry for key through f, bypassing
// Put's integrity stamping — the test stand-in for on-disk damage.
func mutateEntry(t *testing.T, d *Disk, key string, f func(*entry)) {
	t.Helper()
	data, err := os.ReadFile(d.path(key))
	if err != nil {
		t.Fatal(err)
	}
	var e entry
	if err := json.Unmarshal(data, &e); err != nil {
		t.Fatal(err)
	}
	f(&e)
	out, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(d.path(key), out, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCorruptPayloadMisses(t *testing.T) {
	d := openTestStore(t, t.TempDir(), "fp-a")
	d.Put("k1", sampleResult("k1"))
	mutateEntry(t, d, "k1", func(e *entry) {
		e.Result = []byte(`{"Variant":"SkyByte-Full","Instructions":999999}`)
	})
	if _, ok := d.Get("k1"); ok {
		t.Fatal("tampered payload served (digest check failed to catch it)")
	}
}

func TestTruncatedFileMisses(t *testing.T) {
	d := openTestStore(t, t.TempDir(), "fp-a")
	d.Put("k1", sampleResult("k1"))
	data, err := os.ReadFile(d.path("k1"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(d.path("k1"), data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := d.Get("k1"); ok {
		t.Fatal("truncated entry served")
	}
}

func TestGarbageFileMisses(t *testing.T) {
	d := openTestStore(t, t.TempDir(), "fp-a")
	d.Put("k1", sampleResult("k1"))
	if err := os.WriteFile(d.path("k1"), []byte("not json at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := d.Get("k1"); ok {
		t.Fatal("garbage entry served")
	}
}

// TestFingerprintMismatchMisses covers the foreign-cache case both
// ways: a store with another fingerprint addresses different files
// entirely, and even a file placed at the right address with the wrong
// embedded fingerprint is rejected by the envelope check.
func TestFingerprintMismatchMisses(t *testing.T) {
	dir := t.TempDir()
	a := openTestStore(t, dir, "fp-a")
	a.Put("k1", sampleResult("k1"))
	b := openTestStore(t, dir, "fp-b")
	if _, ok := b.Get("k1"); ok {
		t.Fatal("foreign fingerprint hit via addressing")
	}
	// Force the address collision: copy a's entry to b's path for k1.
	data, err := os.ReadFile(a.path("k1"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(b.path("k1"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := b.Get("k1"); ok {
		t.Fatal("entry with mismatched embedded fingerprint served")
	}
}

// TestCodecVersionBumpMisses plants an entry claiming a different codec
// version at the current address: it must miss, modelling a store
// written by a build with a bumped ResultVersion.
func TestCodecVersionBumpMisses(t *testing.T) {
	d := openTestStore(t, t.TempDir(), "fp-a")
	d.Put("k1", sampleResult("k1"))
	mutateEntry(t, d, "k1", func(e *entry) { e.Version = system.ResultVersion + 1 })
	if _, ok := d.Get("k1"); ok {
		t.Fatal("entry with foreign codec version served")
	}
}

// TestKeyMismatchMisses plants one key's entry at another key's
// address (a relocated or renamed file): the embedded key check must
// reject it.
func TestKeyMismatchMisses(t *testing.T) {
	d := openTestStore(t, t.TempDir(), "fp-a")
	d.Put("k1", sampleResult("k1"))
	data, err := os.ReadFile(d.path("k1"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(d.path("k2"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := d.Get("k2"); ok {
		t.Fatal("relocated entry served under the wrong key")
	}
}

func TestFingerprintIdentity(t *testing.T) {
	cfg := system.ScaledConfig()
	if Fingerprint(cfg, 1) != Fingerprint(system.ScaledConfig(), 1) {
		t.Fatal("identical campaigns fingerprint differently")
	}
	if Fingerprint(cfg, 1) == Fingerprint(cfg, 2) {
		t.Fatal("seed not folded into the campaign fingerprint")
	}
	if Fingerprint(cfg, 1) == Fingerprint(system.PaperConfig(), 1) {
		t.Fatal("config not folded into the campaign fingerprint")
	}
}

func TestPutLeavesNoTempFiles(t *testing.T) {
	dir := t.TempDir()
	d := openTestStore(t, dir, "fp-a")
	d.Put("k1", sampleResult("k1"))
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Fatalf("temp file %s left behind after Put", e.Name())
		}
	}
	if n := d.Len(); n != 1 {
		t.Fatalf("store holds %d entries, want 1", n)
	}
}
