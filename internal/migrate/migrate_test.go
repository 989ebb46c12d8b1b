package migrate

import (
	"testing"
	"testing/quick"

	"skybyte/internal/trace"
)

func TestPLBBounds(t *testing.T) {
	p := NewPLB(2)
	if !p.TryBegin(1) || !p.TryBegin(2) {
		t.Fatal("reservations under capacity failed")
	}
	if p.TryBegin(3) {
		t.Fatal("reservation above capacity succeeded")
	}
	if p.Rejected != 1 {
		t.Fatal("rejection not counted")
	}
	if p.TryBegin(1) {
		t.Fatal("duplicate reservation succeeded")
	}
	p.Complete(1)
	if !p.TryBegin(3) {
		t.Fatal("slot not freed")
	}
	if p.InFlight() != 2 || !p.Migrating(2) || p.Migrating(1) {
		t.Fatal("inflight tracking wrong")
	}
}

func TestPoolLRUOrder(t *testing.T) {
	p := NewPool(3)
	p.Add(10)
	p.Add(20)
	p.Add(30)
	if !p.Full() {
		t.Fatal("pool should be full")
	}
	// Touch 10: 20 becomes coldest.
	if !p.Touch(10) || p.Touch(40) || p.Contains(40) {
		t.Fatal("Touch must report residency and leave an absent page absent")
	}
	lpa, ok := p.Coldest()
	if !ok || lpa != 20 {
		t.Fatalf("coldest = %d, want 20", lpa)
	}
	p.Remove(20)
	if p.Contains(20) || p.Len() != 2 {
		t.Fatal("remove failed")
	}
	lpa, _ = p.Coldest()
	if lpa != 30 {
		t.Fatalf("coldest after removal = %d, want 30", lpa)
	}
}

func TestPoolAddWhenFullPanics(t *testing.T) {
	p := NewPool(1)
	p.Add(1)
	defer func() {
		if recover() == nil {
			t.Fatal("Add on full pool should panic")
		}
	}()
	p.Add(2)
}

func TestPoolEmptyColdest(t *testing.T) {
	p := NewPool(4)
	if _, ok := p.Coldest(); ok {
		t.Fatal("empty pool has no coldest")
	}
	p.Remove(99) // no-op must not crash
}

// Property: the pool behaves like an LRU against a reference slice model.
func TestPoolAgainstModel(t *testing.T) {
	f := func(seed uint64) bool {
		rng := trace.NewRNG(seed)
		p := NewPool(8)
		var model []uint64 // MRU at front
		for op := 0; op < 2000; op++ {
			lpa := rng.Uint64n(16)
			switch rng.Intn(3) {
			case 0: // add (demoting if full)
				if idx := indexOf(model, lpa); idx >= 0 {
					p.Touch(lpa)
					model = append(model[:idx], model[idx+1:]...)
					model = append([]uint64{lpa}, model...)
					continue
				}
				if p.Full() {
					cold, _ := p.Coldest()
					if cold != model[len(model)-1] {
						return false
					}
					p.Remove(cold)
					model = model[:len(model)-1]
				}
				p.Add(lpa)
				model = append([]uint64{lpa}, model...)
			case 1: // touch
				idx := indexOf(model, lpa)
				if p.Touch(lpa) != (idx >= 0) {
					return false
				}
				if idx >= 0 {
					model = append(model[:idx], model[idx+1:]...)
					model = append([]uint64{lpa}, model...)
				}
			default: // remove
				p.Remove(lpa)
				if idx := indexOf(model, lpa); idx >= 0 {
					model = append(model[:idx], model[idx+1:]...)
				}
			}
			if p.Len() != len(model) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func indexOf(s []uint64, v uint64) int {
	for i, x := range s {
		if x == v {
			return i
		}
	}
	return -1
}

func TestTPPSamplerThresholdAndReset(t *testing.T) {
	s := NewTPPSampler(3)
	s.Note(5)
	s.Note(5)
	s.Note(5)
	s.Note(7)
	got := s.Scan()
	if len(got) != 1 || got[0] != 5 {
		t.Fatalf("candidates = %v, want [5]", got)
	}
	// Window reset: old counts must not carry over.
	s.Note(5)
	if got := s.Scan(); len(got) != 0 {
		t.Fatalf("stale counts leaked: %v", got)
	}
}

func TestTPPSamplerDeterministicOrder(t *testing.T) {
	s := NewTPPSampler(1)
	for _, lpa := range []uint64{9, 3, 7, 1} {
		s.Note(lpa)
	}
	got := s.Scan()
	want := []uint64{1, 3, 7, 9}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestConstructorValidation(t *testing.T) {
	for _, f := range []func(){
		func() { NewPLB(0) },
		func() { NewPool(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("constructor accepted invalid capacity")
				}
			}()
			f()
		}()
	}
}

// TestPoolRecyclesNodes: once a pool is full, demoting the coldest page
// and promoting a new one reuses the demoted page's node — the
// steady state of adaptive promotion allocates nothing.
func TestPoolRecyclesNodes(t *testing.T) {
	const capacity = 256
	p := NewPool(capacity)
	next := uint64(0)
	for ; next < capacity; next++ {
		p.Add(next)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		lpa, _ := p.Coldest()
		p.Remove(lpa)
		p.Add(next)
		next++
	})
	if allocs != 0 {
		t.Fatalf("demote-then-promote on a full pool allocated %.2f times per cycle, want 0", allocs)
	}
	if p.Len() != capacity {
		t.Fatalf("pool holds %d pages, want %d", p.Len(), capacity)
	}
}

// TestTPPScanReusesItsResult: a scan's candidate slice and the cleared
// sampling window are reused by the next scan.
func TestTPPScanReusesItsResult(t *testing.T) {
	s := NewTPPSampler(2)
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 8; i++ {
			s.Note(uint64(i % 4))
		}
		if got := s.Scan(); len(got) != 4 {
			t.Fatalf("scan returned %v, want 4 candidates", got)
		}
	})
	if allocs != 0 {
		t.Fatalf("a scan cycle allocated %.2f times, want 0", allocs)
	}
}
