package trace

import "fmt"

// ReplayCap is the ring capacity of a Replayer in records: 2× Table II's
// 256-entry ROB. A context switch rewinds to the oldest outstanding miss,
// and the CPU fetches no record that starts a ROB's worth of instructions
// past it, so the target is at most ROB records behind the newest (every
// record carries at least one instruction). system.Config.Validate
// rejects a ROB the ring cannot cover.
const ReplayCap = 512

// Replayer wraps a Stream and remembers recently delivered records so the
// CPU model can rewind to the exact faulting load after a SkyByte Long Delay
// Exception and re-execute from there (paper §III-A C3–C4). Instruction
// indices are cumulative dynamic instruction counts, with a compute burst
// occupying a contiguous index range.
type Replayer struct {
	src     Stream
	ring    [ReplayCap]posRecord
	ringLen int    // valid records in ring (<= ReplayCap)
	ringEnd int    // ring slot one past the newest record
	cursor  int    // offset (in records) behind the newest record; 0 = pull from src
	nextIdx uint64 // instruction index of the next record to deliver when cursor==0
	drained bool
}

type posRecord struct {
	startIdx uint64
	rec      Record
}

// NewReplayer wraps src.
func NewReplayer(src Stream) *Replayer { return &Replayer{src: src} }

// Next returns the next record and the instruction index of its first
// instruction. After a RewindTo, previously delivered records are replayed.
func (r *Replayer) Next() (rec Record, startIdx uint64, ok bool) {
	if r.cursor > 0 {
		slot := (r.ringEnd - r.cursor + ReplayCap) % ReplayCap
		pr := r.ring[slot]
		r.cursor--
		return pr.rec, pr.startIdx, true
	}
	if r.drained {
		return Record{}, 0, false
	}
	rec, okSrc := r.src.Next()
	if !okSrc {
		r.drained = true
		return Record{}, 0, false
	}
	pr := posRecord{startIdx: r.nextIdx, rec: rec}
	r.ring[r.ringEnd] = pr
	r.ringEnd = (r.ringEnd + 1) % ReplayCap
	if r.ringLen < ReplayCap {
		r.ringLen++
	}
	r.nextIdx += rec.Instructions()
	return rec, pr.startIdx, true
}

// RewindTo repositions the stream so the next Next call re-delivers the
// record whose startIdx equals idx. It panics if the record has aged out of
// the ring — that would mean the CPU rewound further than its ROB allows.
func (r *Replayer) RewindTo(idx uint64) {
	for off := r.cursor + 1; off <= r.ringLen; off++ {
		slot := (r.ringEnd - off + ReplayCap) % ReplayCap
		if r.ring[slot].startIdx == idx {
			r.cursor = off
			return
		}
		if r.ring[slot].startIdx < idx {
			break
		}
	}
	panic(fmt.Sprintf("trace: RewindTo(%d) target not in replay ring", idx))
}

// Done reports whether the underlying stream is exhausted and no replayable
// records remain in front of the cursor.
func (r *Replayer) Done() bool { return r.drained && r.cursor == 0 }

// NextIdx returns the instruction index the next fresh (non-replayed)
// record will start at — i.e. the total instructions generated so far.
func (r *Replayer) NextIdx() uint64 { return r.nextIdx }

// CursorIdx returns the instruction index of the record the next Next
// call will actually deliver. Unlike NextIdx it regresses after a
// RewindTo and recovers as the replayed records are re-delivered —
// the open-loop request gate uses it so a squashed request must
// re-execute fully before it can complete.
func (r *Replayer) CursorIdx() uint64 {
	if r.cursor > 0 {
		slot := (r.ringEnd - r.cursor + ReplayCap) % ReplayCap
		return r.ring[slot].startIdx
	}
	return r.nextIdx
}
