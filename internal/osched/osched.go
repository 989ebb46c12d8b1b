// Package osched implements the host OS side of SkyByte's co-design: the
// thread abstraction replayed by the CPU model, the run queue, and the
// three CXL-aware scheduling policies the paper evaluates in Fig. 10 —
// Round-Robin, Random, and CFS (Linux's Completely Fair Scheduler, the
// default: "Since CFS has become a standard scheduling policy in modern
// OSes like Linux, we employ it by default in SkyByte").
package osched

import (
	"container/heap"
	"fmt"
	"strings"

	"skybyte/internal/sim"
	"skybyte/internal/stats"
	"skybyte/internal/trace"
)

// Thread is one software thread: an instruction stream plus scheduling
// state. The Replayer allows the CPU to rewind to a faulting load after a
// SkyByte Long Delay Exception.
type Thread struct {
	ID     int
	Name   string
	Replay *trace.Replayer

	// Tenant indexes the thread's tenant group in a multi-tenant run
	// (system.DeclareTenants); 0 — the only group — in a solo run.
	// Per-thread measurements below aggregate by this index into the
	// per-tenant Result slice.
	Tenant int

	// Warmup is the instruction count below which the thread's accesses
	// are excluded from latency/AMAT statistics (state still warms).
	Warmup uint64
	// Progress is the highest instruction index retired; re-executed
	// instructions after a rewind do not regress it.
	Progress uint64
	// VRuntime accumulates received execution time for the CFS policy.
	VRuntime sim.Time
	// Bound accumulates where this thread's core time went while it was
	// scheduled (the Figs. 4/10 accounting). The CPU books core time
	// only here, so the system Boundedness is Bound summed over all
	// threads; Switches, HintSwitches and LLCMisses are likewise the
	// only record of their counts.
	Bound stats.Boundedness
	// Switches counts context switches this thread experienced — both
	// SkyByte-Delay exceptions and the switch paid when the thread
	// retires and a successor is swapped in.
	Switches uint64
	// HintSwitches counts the subset of Switches triggered by a
	// SkyByte-Delay long-flash-miss exception.
	HintSwitches uint64
	// Enqueues counts run-queue insertions of this thread.
	Enqueues uint64
	// LLCMisses counts demand LLC misses this thread issued.
	LLCMisses uint64
	// Finished is set when the trace is fully retired.
	Finished bool

	// Gate, when non-nil, paces the thread as an open-loop client:
	// instructions replay in fixed-size requests, each admitted only
	// once its arrival instant has passed (internal/arrival attaches
	// gates; nil preserves the closed-loop behavior exactly).
	Gate *Gate
}

// PastWarmup reports whether statistics should be recorded for the thread.
func (t *Thread) PastWarmup() bool { return t.Progress >= t.Warmup }

// Advance raises Progress to idx if it is higher.
func (t *Thread) Advance(idx uint64) {
	if idx > t.Progress {
		t.Progress = idx
	}
}

// PolicyKind selects a scheduling policy (artifact knob "t_policy").
type PolicyKind string

// Scheduling policies of Fig. 10.
const (
	PolicyRR     PolicyKind = "RR"
	PolicyRandom PolicyKind = "RANDOM"
	PolicyCFS    PolicyKind = "FAIRNESS"
)

// policyKinds lists every policy NewPolicy builds.
var policyKinds = []PolicyKind{PolicyRR, PolicyRandom, PolicyCFS}

// ParsePolicy resolves a policy name, rejecting unknown names with an
// error that lists the valid set — use it to validate CLI input before
// NewPolicy, which panics on unknown policies.
func ParsePolicy(name string) (PolicyKind, error) {
	valid := make([]string, len(policyKinds))
	for i, k := range policyKinds {
		if string(k) == name {
			return k, nil
		}
		valid[i] = string(k)
	}
	return "", fmt.Errorf("osched: unknown policy %q (valid: %s)", name, strings.Join(valid, ", "))
}

// Policy is a run-queue ordering discipline.
type Policy interface {
	Enqueue(t *Thread)
	// Pick removes and returns the next runnable thread, or nil.
	Pick() *Thread
	Len() int
}

// NewPolicy builds the named policy. Random is seeded deterministically.
func NewPolicy(kind PolicyKind, seed uint64) Policy {
	switch kind {
	case PolicyRR:
		return &rrPolicy{}
	case PolicyRandom:
		return &randomPolicy{rng: trace.NewRNG(seed)}
	case PolicyCFS:
		return &cfsPolicy{}
	}
	panic("osched: unknown policy " + string(kind))
}

type rrPolicy struct{ q []*Thread }

func (p *rrPolicy) Enqueue(t *Thread) { p.q = append(p.q, t) }
func (p *rrPolicy) Len() int          { return len(p.q) }
func (p *rrPolicy) Pick() (t *Thread) {
	if len(p.q) == 0 {
		return nil
	}
	t = p.q[0]
	copy(p.q, p.q[1:])
	p.q = p.q[:len(p.q)-1]
	return t
}

type randomPolicy struct {
	q   []*Thread
	rng *trace.RNG
}

func (p *randomPolicy) Enqueue(t *Thread) { p.q = append(p.q, t) }
func (p *randomPolicy) Len() int          { return len(p.q) }
func (p *randomPolicy) Pick() *Thread {
	if len(p.q) == 0 {
		return nil
	}
	i := p.rng.Intn(len(p.q))
	t := p.q[i]
	p.q[i] = p.q[len(p.q)-1]
	p.q = p.q[:len(p.q)-1]
	return t
}

// cfsPolicy picks the thread with the minimum received execution time
// (VRuntime), ties broken by thread ID for determinism.
type cfsPolicy struct{ h cfsHeap }

func (p *cfsPolicy) Enqueue(t *Thread) { heap.Push(&p.h, t) }
func (p *cfsPolicy) Len() int          { return len(p.h) }
func (p *cfsPolicy) Pick() *Thread {
	if len(p.h) == 0 {
		return nil
	}
	return heap.Pop(&p.h).(*Thread)
}

type cfsHeap []*Thread

func (h cfsHeap) Len() int { return len(h) }
func (h cfsHeap) Less(i, j int) bool {
	if h[i].VRuntime != h[j].VRuntime {
		return h[i].VRuntime < h[j].VRuntime
	}
	return h[i].ID < h[j].ID
}
func (h cfsHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *cfsHeap) Push(x interface{}) { *h = append(*h, x.(*Thread)) }
func (h *cfsHeap) Pop() interface{} {
	old := *h
	n := len(old)
	t := old[n-1]
	*h = old[:n-1]
	return t
}

// Scheduler owns the run queue shared by all cores. A core that goes idle
// registers a waiter and is woken when a thread becomes runnable.
type Scheduler struct {
	eng        *sim.Engine
	policy     Policy
	SwitchCost sim.Time // Table II: 2 µs
	waiters    []func()
}

// New builds a scheduler with the given policy.
func New(eng *sim.Engine, policy Policy, switchCost sim.Time) *Scheduler {
	return &Scheduler{eng: eng, policy: policy, SwitchCost: switchCost}
}

// Runnable returns the run-queue length.
func (s *Scheduler) Runnable() int { return s.policy.Len() }

// Waiting returns how many cores are parked on the empty run queue —
// the idle-core count a telemetry probe samples.
func (s *Scheduler) Waiting() int { return len(s.waiters) }

// Enqueue makes t runnable ("the yield thread is re-enqueued back to the
// run queue in OS, allowing it to be scheduled again later"). Idle cores
// are woken.
func (s *Scheduler) Enqueue(t *Thread) {
	t.Enqueues++
	s.policy.Enqueue(t)
	if len(s.waiters) > 0 {
		w := s.waiters[0]
		copy(s.waiters, s.waiters[1:])
		s.waiters = s.waiters[:len(s.waiters)-1]
		s.eng.After(0, w)
	}
}

// Pick removes and returns the next thread per policy, nil if none.
func (s *Scheduler) Pick() *Thread { return s.policy.Pick() }

// Switch implements one coordinated context switch decision: the current
// thread (may be nil if it finished) yields, and the policy picks the next.
// If the queue is empty the current thread is handed back (a switch to
// yourself — the cost is still paid, as the exception already fired).
func (s *Scheduler) Switch(current *Thread) *Thread {
	if current != nil {
		s.Enqueue(current)
	}
	return s.Pick()
}

// WaitReady registers a callback to fire when a thread becomes runnable
// (idle-core wakeup).
func (s *Scheduler) WaitReady(wake func()) { s.waiters = append(s.waiters, wake) }
