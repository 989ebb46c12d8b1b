package system

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// collectedResult runs a small full-system simulation so the codec is
// exercised against a Result with every field family populated the way
// real campaigns populate them (histograms, traffic, locality CDFs).
func collectedResult(t *testing.T, v Variant) *Result {
	t.Helper()
	cfg := ScaledConfig().WithVariant(v)
	cfg.TrackLocality = true
	sys := New(cfg)
	for i := 0; i < 4; i++ {
		sys.AddThread(synthStream(uint64(i+1), 2048, 0.3, 8), 6000)
	}
	res := sys.Run()
	res.CacheKey = "codec-test|" + string(v)
	return res
}

func TestResultCodecRoundTrip(t *testing.T) {
	for _, v := range []Variant{BaseCSSD, SkyByteFull} {
		res := collectedResult(t, v)
		data, err := EncodeResult(res)
		if err != nil {
			t.Fatalf("%s: encode: %v", v, err)
		}
		got, err := DecodeResult(data)
		if err != nil {
			t.Fatalf("%s: decode: %v", v, err)
		}
		if !reflect.DeepEqual(res, got) {
			t.Errorf("%s: result did not round-trip", v)
		}
		if got.ReadLat.Percentile(99) != res.ReadLat.Percentile(99) ||
			got.ReadLat.Mean() != res.ReadLat.Mean() {
			t.Errorf("%s: latency histogram queries diverge after round-trip", v)
		}
	}
}

// TestResultCodecCanonical pins the property the content-addressed
// store hashes rely on: encoding is a pure function of the
// measurements, so encode(decode(encode(r))) == encode(r).
func TestResultCodecCanonical(t *testing.T) {
	res := collectedResult(t, SkyByteFull)
	a, err := EncodeResult(res)
	if err != nil {
		t.Fatal(err)
	}
	b, err := EncodeResult(res)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("two encodings of one result differ")
	}
	dec, err := DecodeResult(a)
	if err != nil {
		t.Fatal(err)
	}
	c, err := EncodeResult(dec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, c) {
		t.Fatal("re-encoding a decoded result changed the bytes")
	}
}

// TestFleetResultCodecRoundTrip exercises codec v5's per-device
// section: a fleet run's Devices rows, Placement, and FleetMigrations
// survive encode/decode exactly, and re-encoding keeps the bytes (the
// property the store's content addressing hashes rely on).
func TestFleetResultCodecRoundTrip(t *testing.T) {
	cfg := ScaledConfig().WithVariant(SkyByteFull)
	cfg.Devices = 4
	cfg.Placement = "hotcold"
	sys := New(cfg)
	for i := 0; i < 4; i++ {
		sys.AddThread(scatterStream(uint64(i+1), 8192, 0.3, 8), 6000)
	}
	res := sys.Run()
	if len(res.Devices) != 4 {
		t.Fatalf("fleet run carries %d device rows", len(res.Devices))
	}
	data, err := EncodeResult(res)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeResult(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, got) {
		t.Error("fleet result did not round-trip")
	}
	again, err := EncodeResult(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Error("re-encoding a decoded fleet result changed the bytes")
	}
}

func TestDecodeResultRejectsGarbage(t *testing.T) {
	for _, bad := range []string{"", "{", `{"Variant":1}`, `{"NoSuchField":true}`} {
		if _, err := DecodeResult([]byte(bad)); err == nil {
			t.Errorf("DecodeResult(%q) accepted garbage", bad)
		}
	}
}

func TestConfigFingerprint(t *testing.T) {
	base := ScaledConfig()
	if base.Fingerprint() != ScaledConfig().Fingerprint() {
		t.Fatal("identical configs fingerprint differently")
	}
	seen := map[string]Variant{}
	for _, v := range KnownVariants {
		fp := base.WithVariant(v).Fingerprint()
		if prev, dup := seen[fp]; dup {
			t.Errorf("variants %s and %s share a fingerprint", prev, v)
		}
		seen[fp] = v
	}
	tweaked := base
	tweaked.WriteLogBytes *= 2
	if tweaked.Fingerprint() == base.Fingerprint() {
		t.Error("changing WriteLogBytes did not change the fingerprint")
	}
	if ConfigAt(1).Fingerprint() == base.Fingerprint() {
		t.Error("ConfigAt(1) and ScaledConfig share a fingerprint")
	}
}

// TestFingerprintCoversEveryField: Config.Fingerprint is the machine
// half of the runner's design-point key, so every field of Config and
// of the configs it nests must reach it. A field the encoding cannot see
// (unexported, or tagged json:"-") would let two different machines
// share one key; so would a nested type whose encoding drops a field,
// which the per-leaf perturbation catches.
func TestFingerprintCoversEveryField(t *testing.T) {
	cfg := ScaledConfig().WithVariant(SkyByteFull)
	fp := cfg.Fingerprint()
	leaves := 0
	var walk func(v reflect.Value, path string)
	walk = func(v reflect.Value, path string) {
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			name := path + "." + f.Name
			if !f.IsExported() {
				t.Errorf("%s is unexported: the fingerprint cannot see it", name)
				continue
			}
			if tag, _, _ := strings.Cut(f.Tag.Get("json"), ","); tag == "-" {
				t.Errorf("%s is tagged json:\"-\": the fingerprint cannot see it", name)
				continue
			}
			fv := v.Field(i)
			if fv.Kind() == reflect.Struct {
				walk(fv, name)
				continue
			}
			saved := reflect.New(fv.Type()).Elem()
			saved.Set(fv)
			switch fv.Kind() {
			case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
				fv.SetInt(fv.Int() + 1)
			case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
				fv.SetUint(fv.Uint() + 1)
			case reflect.Float32, reflect.Float64:
				fv.SetFloat(fv.Float() + 0.5)
			case reflect.Bool:
				fv.SetBool(!fv.Bool())
			case reflect.String:
				fv.SetString(fv.String() + "x")
			default:
				t.Errorf("%s has kind %s: not a plain value the fingerprint can compare", name, fv.Kind())
				continue
			}
			leaves++
			if cfg.Fingerprint() == fp {
				t.Errorf("perturbing %s left the fingerprint unchanged", name)
			}
			fv.Set(saved)
		}
	}
	walk(reflect.ValueOf(&cfg).Elem(), "Config")
	if cfg.Fingerprint() != fp {
		t.Fatal("walk did not restore the config")
	}
	if leaves != 48 {
		t.Fatalf("walked %d leaf fields, want 48", leaves)
	}
}

func TestParseVariant(t *testing.T) {
	v, err := ParseVariant("SkyByte-Full")
	if err != nil || v != SkyByteFull {
		t.Fatalf("ParseVariant(SkyByte-Full) = %v, %v", v, err)
	}
	if _, err := ParseVariant("SkyByte-Bogus"); err == nil {
		t.Fatal("unknown variant accepted")
	}
	for _, v := range KnownVariants {
		ScaledConfig().WithVariant(v) // must not panic: parse set == accept set
	}
}
