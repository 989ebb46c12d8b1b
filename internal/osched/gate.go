package osched

import (
	"skybyte/internal/sim"
	"skybyte/internal/stats"
	"skybyte/internal/telemetry"
)

// ArrivalSource yields successive absolute arrival instants of an
// open-loop request process. Implementations must be deterministic:
// the n-th call returns the same instant in every run of the same
// seed. internal/arrival provides the samplers.
type ArrivalSource interface {
	Next() sim.Time
}

// Gate paces one thread as an open-loop client. The thread's replay is
// sliced into requests of ReqInstr instructions; the CPU admits the
// next request only when its arrival instant (drawn from Src) has
// passed, parking the thread off-core until then. Completed requests
// record sojourn latency (completion − arrival, so queueing behind the
// client's own backlog counts) into the SLO class's accumulator, the
// only place they are booked (the all-classes total merges the classes).
//
// All mutation happens on the owning System's event loop; a Gate needs
// no locking.
type Gate struct {
	Src      ArrivalSource
	ReqInstr uint64
	Class    int              // SLO-class index (system.DeclareSLOClasses order)
	Stats    *stats.OpenStats // the SLO class's accumulator (may be nil)

	// NextArrival is the arrival instant of the next not-yet-admitted
	// request. AdmittedUntil is the instruction-index boundary of the
	// admitted prefix: once the replay cursor reaches it (with the
	// pipeline drained), the in-service request is complete and the next
	// needs admission.
	NextArrival   sim.Time
	AdmittedUntil uint64

	// Telemetry hooks, all nil when telemetry is off (the request path
	// then costs one nil check per hook — the zero-cost-off contract).
	// Track is the SLO class's shared in-flight/windowed-latency state;
	// Spans records the queued/service lifecycle spans of a timeline
	// run, with SpanTID naming the owning thread's track.
	Track   *telemetry.ClassTrack
	Spans   *telemetry.SpanRecorder
	SpanTID int32

	curArrival   sim.Time // arrival instant of the in-service request
	curDelay     sim.Time // its queue delay (admission − arrival)
	curRecord    bool     // was the thread past warmup at admission?
	inService    bool
	lastComplete sim.Time // prior request's completion (span clamping)
}

// NewGate builds a gate over src and draws the first arrival instant.
func NewGate(src ArrivalSource, reqInstr uint64, class int, cls *stats.OpenStats) *Gate {
	if reqInstr == 0 {
		panic("osched: gate with zero request size")
	}
	return &Gate{
		Src:         src,
		ReqInstr:    reqInstr,
		Class:       class,
		Stats:       cls,
		NextArrival: src.Next(),
	}
}

// Boundary reports whether the replay cursor (trace.Replayer.CursorIdx)
// has consumed every admitted instruction, i.e. the thread sits between
// requests. The cursor — not Thread.Progress or the high-water NextIdx —
// is the right yardstick: it regresses on a context-switch rewind, so a
// squashed request re-executes fully before it can complete.
func (g *Gate) Boundary(cursor uint64) bool { return cursor >= g.AdmittedUntil }

// Admit starts the next request at instant now (>= its arrival —
// requests queue behind the client thread's own backlog, never run
// early). record captures the warmup state once so a request straddling
// the warmup boundary is counted consistently at completion.
func (g *Gate) Admit(now sim.Time, record bool) {
	delay := now - g.NextArrival
	if delay < 0 {
		delay = 0
	}
	g.curArrival = g.NextArrival
	g.curDelay = delay
	g.curRecord = record
	g.inService = true
	if g.Track != nil {
		g.Track.Inflight++
	}
	if record && g.Stats != nil {
		g.Stats.Admitted++
	}
	g.AdmittedUntil += g.ReqInstr
	g.NextArrival = g.Src.Next()
}

// Complete finishes the in-service request at instant now. A no-op when
// nothing is in service, so thread-retirement paths may call it
// unconditionally.
func (g *Gate) Complete(now sim.Time) {
	if !g.inService {
		return
	}
	g.inService = false
	if g.Track != nil && g.Track.Inflight > 0 {
		g.Track.Inflight--
	}
	if g.Spans != nil {
		// The queued span's natural start is the arrival instant, but an
		// arrival that lands while the previous request is still in
		// service would partially overlap its service span on this
		// track; clamp to the prior completion so spans nest or stay
		// disjoint (the timeline validator's invariant).
		admit := g.curArrival + g.curDelay
		qStart := g.curArrival
		if qStart < g.lastComplete {
			qStart = g.lastComplete
		}
		if admit > qStart {
			g.Spans.Add("queued", "request", telemetry.RequestPID, g.SpanTID, qStart, admit)
		}
		g.Spans.Add("service", "request", telemetry.RequestPID, g.SpanTID, admit, now)
		g.lastComplete = now
	}
	if !g.curRecord {
		return
	}
	lat := now - g.curArrival
	if lat < 0 {
		lat = 0
	}
	if g.Track != nil {
		g.Track.Window.Observe(lat)
	}
	if g.Stats != nil {
		g.Stats.Observe(now, lat, g.curDelay)
	}
}

// hGateRelease re-enqueues a parked open-loop thread at its arrival
// instant (p1 = *Scheduler, p2 = *Thread).
var hGateRelease = sim.RegisterHandler(func(_ uint64, p1, p2 any) {
	p1.(*Scheduler).Enqueue(p2.(*Thread))
})

// ScheduleRelease enqueues t at instant at (clamped to the engine's
// now, which may have advanced past a core-local clock). Cores parked
// on an empty run queue wake through the usual WaitReady path.
func (s *Scheduler) ScheduleRelease(t *Thread, at sim.Time) {
	if now := s.eng.Now(); at < now {
		at = now
	}
	s.eng.AtH(at, hGateRelease, 0, s, t)
}
