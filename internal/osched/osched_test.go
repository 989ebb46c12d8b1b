package osched

import (
	"strings"
	"testing"

	"skybyte/internal/sim"
)

func mkThreads(n int) []*Thread {
	ts := make([]*Thread, n)
	for i := range ts {
		ts[i] = &Thread{ID: i}
	}
	return ts
}

func TestRRIsFIFO(t *testing.T) {
	p := NewPolicy(PolicyRR, 0)
	ts := mkThreads(3)
	for _, th := range ts {
		p.Enqueue(th)
	}
	for i := 0; i < 3; i++ {
		if got := p.Pick(); got != ts[i] {
			t.Fatalf("pick %d = thread %d", i, got.ID)
		}
	}
	if p.Pick() != nil {
		t.Fatal("empty queue should return nil")
	}
}

func TestRandomPicksAllDeterministically(t *testing.T) {
	pick := func() []int {
		p := NewPolicy(PolicyRandom, 42)
		for _, th := range mkThreads(5) {
			p.Enqueue(th)
		}
		var order []int
		for {
			th := p.Pick()
			if th == nil {
				break
			}
			order = append(order, th.ID)
		}
		return order
	}
	a, b := pick(), pick()
	if len(a) != 5 {
		t.Fatalf("picked %d threads", len(a))
	}
	seen := map[int]bool{}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("random policy not deterministic for fixed seed")
		}
		seen[a[i]] = true
	}
	if len(seen) != 5 {
		t.Fatal("random policy lost threads")
	}
}

func TestCFSPicksMinVruntime(t *testing.T) {
	p := NewPolicy(PolicyCFS, 0)
	ts := mkThreads(3)
	ts[0].VRuntime = 30 * sim.Microsecond
	ts[1].VRuntime = 10 * sim.Microsecond
	ts[2].VRuntime = 20 * sim.Microsecond
	for _, th := range ts {
		p.Enqueue(th)
	}
	want := []int{1, 2, 0}
	for i, id := range want {
		if got := p.Pick(); got.ID != id {
			t.Fatalf("pick %d = thread %d, want %d", i, got.ID, id)
		}
	}
}

func TestCFSTieBreakByID(t *testing.T) {
	p := NewPolicy(PolicyCFS, 0)
	ts := mkThreads(4)
	// Enqueue out of order with equal vruntime.
	for _, i := range []int{2, 0, 3, 1} {
		p.Enqueue(ts[i])
	}
	for want := 0; want < 4; want++ {
		if got := p.Pick(); got.ID != want {
			t.Fatalf("tie-break pick = %d, want %d", got.ID, want)
		}
	}
}

func TestCFSFairnessOverTime(t *testing.T) {
	// Simulate quanta: the policy should rotate so received time stays
	// balanced.
	p := NewPolicy(PolicyCFS, 0)
	ts := mkThreads(3)
	for _, th := range ts {
		p.Enqueue(th)
	}
	for round := 0; round < 300; round++ {
		th := p.Pick()
		th.VRuntime += sim.Microsecond
		p.Enqueue(th)
	}
	min, max := ts[0].VRuntime, ts[0].VRuntime
	for _, th := range ts[1:] {
		if th.VRuntime < min {
			min = th.VRuntime
		}
		if th.VRuntime > max {
			max = th.VRuntime
		}
	}
	if max-min > 2*sim.Microsecond {
		t.Fatalf("CFS imbalance: min=%v max=%v", min, max)
	}
}

func TestSchedulerSwitchRequeues(t *testing.T) {
	var eng sim.Engine
	s := New(&eng, NewPolicy(PolicyRR, 0), 2*sim.Microsecond)
	a, b := &Thread{ID: 0}, &Thread{ID: 1}
	s.Enqueue(b)
	next := s.Switch(a)
	if next != b {
		t.Fatalf("switch picked %d, want 1", next.ID)
	}
	if s.Runnable() != 1 {
		t.Fatal("yielding thread not re-enqueued")
	}
	if a.Enqueues != 1 {
		t.Fatal("re-enqueue not counted on the yielding thread")
	}
}

func TestSchedulerSwitchToSelfWhenAlone(t *testing.T) {
	var eng sim.Engine
	s := New(&eng, NewPolicy(PolicyRR, 0), 2*sim.Microsecond)
	a := &Thread{ID: 0}
	if got := s.Switch(a); got != a {
		t.Fatal("lone thread should be handed back")
	}
}

func TestWaitReadyWakesOnEnqueue(t *testing.T) {
	var eng sim.Engine
	s := New(&eng, NewPolicy(PolicyRR, 0), 0)
	woken := false
	s.WaitReady(func() { woken = true })
	s.Enqueue(&Thread{ID: 0})
	eng.Run()
	if !woken {
		t.Fatal("idle waiter not woken by enqueue")
	}
}

func TestThreadWarmupAndProgress(t *testing.T) {
	th := &Thread{Warmup: 100}
	if th.PastWarmup() {
		t.Fatal("fresh thread should be in warmup")
	}
	th.Advance(150)
	if !th.PastWarmup() || th.Progress != 150 {
		t.Fatal("advance past warmup")
	}
	th.Advance(120) // regression must not lower progress
	if th.Progress != 150 {
		t.Fatal("progress regressed")
	}
}

func TestParsePolicy(t *testing.T) {
	for _, k := range policyKinds {
		if got, err := ParsePolicy(string(k)); err != nil || got != k {
			t.Fatalf("ParsePolicy(%q) = %q, %v", k, got, err)
		}
	}
	for _, bad := range []string{"FOO", "fairness", ""} {
		_, err := ParsePolicy(bad)
		if err == nil || !strings.Contains(err.Error(), "RR, RANDOM, FAIRNESS") {
			t.Fatalf("ParsePolicy(%q) error %v does not list the valid set", bad, err)
		}
	}
}

func TestUnknownPolicyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown policy should panic")
		}
	}()
	NewPolicy("bogus", 0)
}
