// Package trace defines the instruction-trace vocabulary the CPU model
// replays: compact records (compute bursts, loads, stores), the Stream
// interface workload generators implement, a Replayer ring that supports
// precise re-execution after a SkyByte context switch, and deterministic
// random-access pattern helpers (zipfian sampling à la YCSB).
//
// The paper replays PIN-captured traces; this package is the synthetic
// stand-in (see DESIGN.md §1): generators are deterministic functions of a
// seed, so every simulator variant replays the identical instruction stream.
package trace

import "skybyte/internal/mem"

// Kind discriminates trace records.
type Kind uint8

// Record kinds. A Compute record batches N back-to-back non-memory
// instructions (amortising trace storage and simulation cost); Load and
// Store are single memory instructions at byte address Addr. LoadDep is a
// load whose address depends on earlier in-flight loads (pointer chasing):
// it cannot issue until every outstanding miss resolves, which limits
// memory-level parallelism exactly the way graph traversals do — the
// access pattern that motivates the paper's coordinated context switch.
const (
	Compute Kind = iota
	Load
	Store
	LoadDep
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case Compute:
		return "compute"
	case Load:
		return "load"
	case Store:
		return "store"
	case LoadDep:
		return "load-dep"
	}
	return "?"
}

// Record is one trace record.
type Record struct {
	Kind Kind
	N    uint32   // instruction count for Compute (>=1); ignored otherwise
	Addr mem.Addr // target address for Load/Store
}

// Instructions returns how many dynamic instructions the record represents.
func (r Record) Instructions() uint64 {
	if r.Kind == Compute {
		return uint64(r.N)
	}
	return 1
}

// Stream is a lazily generated instruction trace. Next returns the next
// record, or ok=false when the trace is exhausted.
type Stream interface {
	Next() (rec Record, ok bool)
}

// Offset shifts every memory record of a stream by a fixed byte delta,
// leaving compute records untouched. Multi-tenant runs use it to give
// each tenant group a disjoint arena within the CXL window while each
// tenant replays exactly the streams its solo run replays.
type Offset struct {
	Src   Stream
	Delta mem.Addr
}

// Next implements Stream.
func (o *Offset) Next() (Record, bool) {
	rec, ok := o.Src.Next()
	if ok && rec.Kind != Compute {
		rec.Addr += o.Delta
	}
	return rec, ok
}

// Limited truncates a stream after a total instruction budget. The final
// compute record is clipped so the budget is hit exactly.
type Limited struct {
	Src    Stream
	Budget uint64 // remaining instructions
}

// Next implements Stream.
func (l *Limited) Next() (Record, bool) {
	if l.Budget == 0 {
		return Record{}, false
	}
	rec, ok := l.Src.Next()
	if !ok {
		l.Budget = 0
		return Record{}, false
	}
	n := rec.Instructions()
	if n > l.Budget {
		rec = Record{Kind: Compute, N: uint32(l.Budget)}
		n = l.Budget
	}
	l.Budget -= n
	return rec, true
}

// FuncStream adapts a closure to the Stream interface.
type FuncStream func() (Record, bool)

// Next implements Stream.
func (f FuncStream) Next() (Record, bool) { return f() }

// SliceStream replays a fixed slice of records (used in tests).
type SliceStream struct {
	Recs []Record
	pos  int
}

// Next implements Stream.
func (s *SliceStream) Next() (Record, bool) {
	if s.pos >= len(s.Recs) {
		return Record{}, false
	}
	r := s.Recs[s.pos]
	s.pos++
	return r, true
}

// BufGen builds a Stream from a Refill function that emits one "unit of
// work" (a transaction, a vertex visit, a stencil row, ...) at a time.
// Generators in the workloads package are Refill closures over their state.
type BufGen struct {
	Refill func(emit func(Record)) bool // false = no more work
	buf    []Record
	pos    int
	done   bool
	emit   func(Record) // appends to buf; bound on the first refill
}

// Next implements Stream.
func (g *BufGen) Next() (Record, bool) {
	for g.pos >= len(g.buf) {
		if g.done {
			return Record{}, false
		}
		g.buf = g.buf[:0]
		g.pos = 0
		if g.emit == nil {
			g.emit = func(r Record) { g.buf = append(g.buf, r) }
		}
		if !g.Refill(g.emit) {
			g.done = true
		}
	}
	r := g.buf[g.pos]
	g.pos++
	return r, true
}
