package sim

// Engine is a deterministic discrete-event simulator.
//
// Events scheduled for the same instant fire in the order they were
// scheduled (FIFO tie-break on a global sequence number). The zero value is
// ready to use.
//
// The engine is allocation-free on the hot path: event records are pooled
// on an intrusive free-list, grown a slab at a time and recycled as they
// fire, so steady-state scheduling performs no heap allocation. Two
// scheduling forms exist:
//
//   - At/After take a plain func() — the closure itself is whatever the
//     caller built, but the event record carrying it is pooled;
//   - AtH/AfterH take a HandlerID plus inlined payload words (one uint64
//     and two pointer-shaped any slots), so hot callers can pre-register a
//     typed handler and schedule with zero allocation end to end (storing
//     pointers and funcs in an any does not allocate).
//
// Internally the queue is two-level: a bucketed calendar ring absorbs the
// near future (the common "a few ns/µs ahead" case) with O(1) same- or
// ascending-timestamp appends, and a binary heap holds everything beyond
// the ring's horizon. The pop path compares the two fronts by (time, seq),
// so ordering semantics are identical to a single heap.
type Engine struct {
	now   Time
	seq   uint64
	fired uint64

	// free is the intrusive free-list of recycled event records.
	free *Event

	// Calendar ring: buckets cover [base, base+horizon) in bucketWidth
	// slices; every live calendar event satisfies base <= at < base+horizon
	// (no lap ambiguity). base advances as empty buckets are skipped and
	// re-anchors to now whenever the calendar drains.
	base     Time
	calCount int
	buckets  [numBuckets]bucket

	// heap holds events at or beyond the calendar horizon, ordered by
	// (at, seq).
	heap []*Event
}

// Calendar-queue geometry: 2048 buckets of 2^12 ps (~4.1 ns) cover a
// horizon of ~8.4 µs — wide enough that cycle-, DRAM-, link-, and
// ULL-flash-read-scale schedules all take the O(1) path; only genuinely
// far-future events (tProg/tBERS, scan timers) fall through to the heap.
const (
	bucketShift = 12
	bucketWidth = Time(1) << bucketShift
	numBuckets  = 2048
	bucketMask  = numBuckets - 1
	horizon     = bucketWidth * numBuckets
)

// bucket is one calendar slot: an intrusively linked list sorted by
// (at, seq), with a tail pointer so in-order arrivals append in O(1).
type bucket struct {
	head, tail *Event
}

// Event is one pooled event record. Payload words A0/P1/P2 are interpreted
// by the event's handler; records are recycled after dispatch, so handlers
// must not retain the *Event.
type Event struct {
	next *Event // bucket chain or free-list link
	at   Time
	seq  uint64
	h    HandlerID
	fn   func() // closure form (At/After); nil for typed events

	// A0 is an inlined integer payload word.
	A0 uint64
	// P1, P2 are pointer-shaped payload slots (pointers, funcs); storing
	// such values in an any does not allocate.
	P1, P2 any
}

// HandlerID names a typed-event handler registered with RegisterHandler.
type HandlerID uint32

// handlerTab is the global dispatch table. It is append-only and written
// exclusively from package init functions (RegisterHandler's contract), so
// concurrent engines on different goroutines read it without synchronization.
var handlerTab []func(a0 uint64, p1, p2 any)

// RegisterHandler registers a typed-event handler and returns its ID for
// AtH/AfterH. It must only be called during package initialization (from
// package-level var initializers or init functions): the table is read
// lock-free by every engine once simulations start.
func RegisterHandler(fn func(a0 uint64, p1, p2 any)) HandlerID {
	handlerTab = append(handlerTab, fn)
	return HandlerID(len(handlerTab) - 1)
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Fired returns the number of events executed so far (a determinism probe
// and a cheap progress metric).
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of events not yet executed.
func (e *Engine) Pending() int { return e.calCount + len(e.heap) }

// slabEvents is how many records the pool grows by when it runs dry: one
// allocation per slab rather than one per record during warm-up.
const slabEvents = 64

// alloc pops a pooled record, growing the pool by one slab when it is
// empty.
func (e *Engine) alloc() *Event {
	ev := e.free
	if ev == nil {
		slab := make([]Event, slabEvents)
		for i := 1; i < slabEvents-1; i++ {
			slab[i].next = &slab[i+1]
		}
		e.free = &slab[1]
		return &slab[0]
	}
	e.free = ev.next
	ev.next = nil
	return ev
}

// recycle clears payload references and returns the record to the pool.
func (e *Engine) recycle(ev *Event) {
	ev.fn = nil
	ev.P1 = nil
	ev.P2 = nil
	ev.next = e.free
	e.free = ev
}

// At schedules fn to run at absolute time t. Scheduling in the past is a
// programming error and panics: it would silently corrupt causality.
func (e *Engine) At(t Time, fn func()) {
	if t < e.now {
		panic("sim: event scheduled in the past")
	}
	ev := e.alloc()
	ev.at = t
	e.seq++
	ev.seq = e.seq
	ev.fn = fn
	e.schedule(ev)
}

// After schedules fn to run d after the current time.
func (e *Engine) After(d Time, fn func()) { e.At(e.now+d, fn) }

// AtH schedules a typed event: at time t, handler h runs with the inlined
// payload (a0, p1, p2). This is the zero-allocation form — the record is
// pooled and pointer-shaped payloads do not box.
func (e *Engine) AtH(t Time, h HandlerID, a0 uint64, p1, p2 any) {
	if t < e.now {
		panic("sim: event scheduled in the past")
	}
	ev := e.alloc()
	ev.at = t
	e.seq++
	ev.seq = e.seq
	ev.h = h
	ev.A0 = a0
	ev.P1 = p1
	ev.P2 = p2
	e.schedule(ev)
}

// AfterH is AtH relative to the current time.
func (e *Engine) AfterH(d Time, h HandlerID, a0 uint64, p1, p2 any) {
	e.AtH(e.now+d, h, a0, p1, p2)
}

// schedule routes a ready record into the calendar ring or the far heap.
func (e *Engine) schedule(ev *Event) {
	if e.calCount == 0 {
		// Empty calendar: re-anchor the ring at the current time so the
		// horizon always covers the near future relative to now.
		e.base = e.now &^ (bucketWidth - 1)
	}
	t := ev.at
	if t-e.base >= horizon {
		e.heapPush(ev)
		return
	}
	b := &e.buckets[(t>>bucketShift)&bucketMask]
	e.calCount++
	if b.tail == nil {
		b.head, b.tail = ev, ev
		return
	}
	if b.tail.at <= t {
		// Same-timestamp / ascending fast path: FIFO order is the append
		// order because seq is globally increasing.
		b.tail.next = ev
		b.tail = ev
		return
	}
	// Rare out-of-order arrival within a bucket: insert before the first
	// record scheduled strictly later. Equal timestamps keep FIFO order
	// because existing records hold smaller sequence numbers.
	if b.head.at > t {
		ev.next = b.head
		b.head = ev
		return
	}
	prev := b.head
	for prev.next != nil && prev.next.at <= t {
		prev = prev.next
	}
	ev.next = prev.next
	prev.next = ev
	if ev.next == nil {
		b.tail = ev
	}
}

// popNext removes and returns the earliest pending record by (at, seq),
// or nil when the engine is idle.
func (e *Engine) popNext() *Event {
	if e.calCount == 0 {
		return e.heapPop()
	}
	idx := int(e.base>>bucketShift) & bucketMask
	for e.buckets[idx].head == nil {
		// Skipping an empty bucket permanently advances the ring anchor,
		// so subsequent scans start where this one left off.
		idx = (idx + 1) & bucketMask
		e.base += bucketWidth
	}
	cal := e.buckets[idx].head
	if len(e.heap) > 0 {
		if top := e.heap[0]; top.at < cal.at || (top.at == cal.at && top.seq < cal.seq) {
			return e.heapPop()
		}
	}
	b := &e.buckets[idx]
	b.head = cal.next
	if b.head == nil {
		b.tail = nil
	}
	cal.next = nil
	e.calCount--
	return cal
}

// Step executes the single earliest pending event and reports whether one
// existed.
func (e *Engine) Step() bool {
	ev := e.popNext()
	if ev == nil {
		return false
	}
	e.now = ev.at
	e.fired++
	if fn := ev.fn; fn != nil {
		e.recycle(ev)
		fn()
		return true
	}
	h, a0, p1, p2 := ev.h, ev.A0, ev.P1, ev.P2
	e.recycle(ev)
	handlerTab[h](a0, p1, p2)
	return true
}

// Run executes events until the queue is empty.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// --- far-future fallback heap ---

func (e *Engine) heapLess(a, b *Event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (e *Engine) heapPush(ev *Event) {
	e.heap = append(e.heap, ev)
	i := len(e.heap) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !e.heapLess(e.heap[i], e.heap[p]) {
			break
		}
		e.heap[i], e.heap[p] = e.heap[p], e.heap[i]
		i = p
	}
}

func (e *Engine) heapPop() *Event {
	if len(e.heap) == 0 {
		return nil
	}
	ev := e.heap[0]
	n := len(e.heap) - 1
	e.heap[0] = e.heap[n]
	e.heap[n] = nil
	e.heap = e.heap[:n]
	if n > 0 {
		e.heapDown(0)
	}
	return ev
}

func (e *Engine) heapDown(i int) {
	n := len(e.heap)
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && e.heapLess(e.heap[l], e.heap[m]) {
			m = l
		}
		if r < n && e.heapLess(e.heap[r], e.heap[m]) {
			m = r
		}
		if m == i {
			return
		}
		e.heap[i], e.heap[m] = e.heap[m], e.heap[i]
		i = m
	}
}
