package registry_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"skybyte/internal/arrival"
	"skybyte/internal/registry"
	"skybyte/internal/tenant"
	"skybyte/internal/workloads"
)

type item struct {
	Name string `json:"name"`
	V    int    `json:"v"`
}

func newTestRegistry(replaced *[]item) *registry.Registry[item] {
	return registry.New(registry.Kind[item]{
		Pkg:      "test",
		Noun:     "item",
		File:     "item file",
		Tag:      "test|",
		Builtins: func() []item { return []item{{"b1", 1}, {"b2", 2}} },
		Name:     func(it item) string { return it.Name },
		SourceID: func(it item) string { return fmt.Sprint(it.V) },
		Validate: func(it item) error {
			if it.V < 0 {
				return errors.New("test: negative v")
			}
			return nil
		},
		Normalize: func(it item) item { return it },
		Replaced:  func(old, _ item) { *replaced = append(*replaced, old) },
	})
}

// TestRegistryContract checks the contract every definition kind
// (workloads, mixes, arrival specs) inherits from Registry.
func TestRegistryContract(t *testing.T) {
	var replaced []item
	r := newTestRegistry(&replaced)
	base := r.Fingerprint()
	if base != r.Fingerprint() {
		t.Fatal("fingerprint not stable")
	}

	for _, it := range []item{{"x", 10}, {"y", 20}} {
		if err := r.Register(it); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := r.Names(), []string{"b1", "b2", "x", "y"}; !slices.Equal(got, want) {
		t.Fatalf("Names() = %v, want built-ins then registrations in order %v", got, want)
	}
	registered := r.Fingerprint()
	if registered == base {
		t.Fatal("registering did not move the fingerprint")
	}

	// Built-in names are reserved.
	err := r.Register(item{"b1", 5})
	if err == nil || err.Error() != `test: "b1" is a built-in item and cannot be replaced` {
		t.Fatalf("built-in shadowing: err = %v", err)
	}
	// Validate gates registration.
	if err := r.Register(item{"z", -1}); err == nil || !slices.Equal(r.Names(), []string{"b1", "b2", "x", "y"}) {
		t.Fatalf("an input Validate rejects was registered (err = %v)", err)
	}

	// An identical re-register leaves the fingerprint where it was.
	if err := r.Register(item{"x", 10}); err != nil {
		t.Fatal(err)
	}
	if r.Fingerprint() != registered {
		t.Fatal("identical re-registration moved the fingerprint")
	}
	// A replacement keeps its position, releases the old value, and
	// moves the fingerprint.
	replaced = nil
	if err := r.Register(item{"x", 11}); err != nil {
		t.Fatal(err)
	}
	if got := r.Names(); !slices.Equal(got, []string{"b1", "b2", "x", "y"}) {
		t.Fatalf("replacement moved position: %v", got)
	}
	if got, err := r.ByName("x"); err != nil || got.V != 11 {
		t.Fatalf("ByName after replace = %+v, %v", got, err)
	}
	if !slices.Equal(replaced, []item{{"x", 10}}) {
		t.Fatalf("Replaced saw %v", replaced)
	}
	if r.Fingerprint() == registered {
		t.Fatal("replacing a registration did not move the fingerprint")
	}

	// An unknown name lists the valid set.
	_, err = r.ByName("nope")
	if err == nil || err.Error() != `test: unknown item "nope" (valid: b1, b2, x, y)` {
		t.Fatalf("unknown name: err = %v", err)
	}

	// Reset clears registrations, and only those.
	r.Reset()
	if got := r.Names(); !slices.Equal(got, []string{"b1", "b2"}) {
		t.Fatalf("Names() after Reset = %v", got)
	}
	if _, err := r.ByName("y"); err == nil {
		t.Fatal("registration survived Reset")
	}
	if r.Fingerprint() != base {
		t.Fatal("Reset did not restore the built-in fingerprint")
	}
}

// TestRegistryConcurrentUse resolves names while others register, as
// parallel simulations do while a caller registers; run under -race.
func TestRegistryConcurrentUse(t *testing.T) {
	var mu sync.Mutex
	var replaced []item
	r := registry.New(registry.Kind[item]{
		Builtins:  func() []item { return []item{{"b1", 1}} },
		Name:      func(it item) string { return it.Name },
		SourceID:  func(it item) string { return fmt.Sprint(it.V) },
		Validate:  func(item) error { return nil },
		Normalize: func(it item) item { return it },
		Replaced: func(old, _ item) {
			mu.Lock()
			replaced = append(replaced, old)
			mu.Unlock()
		},
	})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if err := r.Register(item{fmt.Sprint("r", i%10), g}); err != nil {
					t.Error(err)
				}
				if _, err := r.ByName("b1"); err != nil {
					t.Error(err)
				}
				r.ByName(fmt.Sprint("r", i%10))
				r.Names()
				r.Fingerprint()
			}
		}()
	}
	wg.Wait()
	if got := len(r.Names()); got != 11 {
		t.Fatalf("%d names after concurrent registration, want 11", got)
	}
	if len(replaced) != 4*100-10 {
		t.Fatalf("Replaced ran %d times, want %d", len(replaced), 4*100-10)
	}
}

func TestFileLoading(t *testing.T) {
	var replaced []item
	r := newTestRegistry(&replaced)
	dir := t.TempDir()
	write := func(name, body string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	good := write("good.json", "{\"name\": \"f\", \"v\": 3}\n\t ")
	it, err := r.RegisterFile(good, r.FromFile)
	if err != nil || it != (item{"f", 3}) {
		t.Fatalf("RegisterFile = %+v, %v", it, err)
	}
	if _, err := r.ByName("f"); err != nil {
		t.Fatal("RegisterFile did not register")
	}
	for _, tc := range []struct{ body, want string }{
		{`{"name": "g", "w": 1}`, `unknown field "w"`},
		{`{"name": "g"} {"name": "h"}`, "trailing data"},
		{`{"name": "g"} junk`, "trailing data"},
		{`{"name": "g"}]`, "trailing data"},
		{`{"name": "g", "v": -1}`, "negative v"},
	} {
		path := write("bad.json", tc.body)
		_, err := r.FromFile(path)
		if err == nil || !strings.HasPrefix(err.Error(), "test: "+path+": ") || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("FromFile(%s): err = %v, want %q", tc.body, err, tc.want)
		}
	}
	if _, err := r.FromFile(filepath.Join(dir, "absent.json")); err == nil {
		t.Fatal("missing file loaded")
	}
}

// TestDigestsPinned pins the content identity of one built-in of each
// kind: Digest must reproduce the values every store key was built on.
func TestDigestsPinned(t *testing.T) {
	mix, err := tenant.ByName("graph-vs-log")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := arrival.ByName("open-steady")
	if err != nil {
		t.Fatal(err)
	}
	w, err := workloads.ByName("scan-heavy")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ name, got, want string }{
		{"graph-vs-log", mix.Fingerprint(), "fmt1:06f71d418df98028479d0d0940800bcfa7c12908add81a91722c599caa9977bf"},
		{"open-steady", spec.Fingerprint(), "fmt1:8ec9148c484a3f55f260d8cf44784d9811021394524c97cb2e89af1ce3995fa4"},
		{"scan-heavy", w.Def.Fingerprint(), "fmt1:71128ef58304d853c032088e81b7ac1078192c45dd2cddc3086295aa42f7fb46"},
	} {
		if tc.got != tc.want {
			t.Errorf("%s: Fingerprint() = %s, want %s", tc.name, tc.got, tc.want)
		}
	}
}
