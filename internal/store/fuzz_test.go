package store

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

	"skybyte/internal/runner"
	"skybyte/internal/system"
	"skybyte/internal/workloads"
)

// FuzzStoreGet writes arbitrary bytes as an entry file and reads them
// back through Get, seeded with the entry of one TestResultGolden design
// point (bfs-dense on SkyByte-Full, 16000 instructions per thread, seed
// 1). With wrapped set, the bytes are a Result payload sealed in an
// otherwise valid envelope, so mutations reach the Result decoder. Get
// must never panic, and a hit only comes from a valid envelope: this
// store's version, fingerprint and key, a matching payload digest, and
// a payload that decodes to the Result served.
func FuzzStoreGet(f *testing.F) {
	w, err := workloads.ByName("bfs-dense")
	if err != nil {
		f.Fatal(err)
	}
	cfg := system.ScaledConfig().WithVariant(system.SkyByteFull)
	sys := system.New(cfg)
	for i := 0; i < runner.ThreadsFor(cfg); i++ {
		sys.AddThread(w.Stream(i, 1), 16000)
	}
	const fp, key = "fp-fuzz", "k"
	d, err := Open(f.TempDir(), fp)
	if err != nil {
		f.Fatal(err)
	}
	d.Put(key, sys.Run())
	entryFile, err := os.ReadFile(d.path(key))
	if err != nil {
		f.Fatal(err)
	}
	var seed entry
	if err := json.Unmarshal(entryFile, &seed); err != nil {
		f.Fatal(err)
	}
	f.Add(entryFile, false)
	f.Add([]byte(seed.Result), true)
	f.Add([]byte(`{}`), false)

	f.Fuzz(func(t *testing.T, data []byte, wrapped bool) {
		if wrapped {
			sealed, err := json.Marshal(entry{Version: system.ResultVersion, Fingerprint: fp, Key: key, SHA256: payloadDigest(data), Result: data})
			if err != nil {
				return // not a JSON value: no envelope can carry it
			}
			data = sealed
		}
		if err := os.WriteFile(d.path(key), data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, ok := d.Get(key)
		if !ok {
			return
		}
		var e entry
		if err := json.Unmarshal(data, &e); err != nil {
			t.Fatalf("hit from an entry that is not an envelope: %v", err)
		}
		if e.Version != system.ResultVersion || e.Fingerprint != fp || e.Key != key || e.SHA256 != payloadDigest(e.Result) {
			t.Fatalf("hit from an envelope that does not match: version %d, fingerprint %q, key %q", e.Version, e.Fingerprint, e.Key)
		}
		want, err := system.DecodeResult(e.Result)
		if err != nil {
			t.Fatalf("hit from a payload that does not decode: %v", err)
		}
		a, err1 := system.EncodeResult(got)
		b, err2 := system.EncodeResult(want)
		if err1 != nil || err2 != nil || !bytes.Equal(a, b) {
			t.Fatalf("the hit is not the payload's Result (%v, %v)", err1, err2)
		}
	})
}
