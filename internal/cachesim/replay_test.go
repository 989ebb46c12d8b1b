package cachesim_test

import (
	"sync"
	"testing"

	"skybyte/internal/cachesim"
	"skybyte/internal/mem"
	"skybyte/internal/trace"
	"skybyte/internal/workloads"
)

const (
	replayThreads   = 3      // streams taken from each Table I generator
	replayPerThread = 50_000 // records taken from each stream
	replaySeed      = 7
)

var (
	replayOnce sync.Once
	replayRecs []trace.Record // memory records of every stream, in order
)

func replayRecords() []trace.Record {
	replayOnce.Do(func() {
		for _, w := range workloads.Table1() {
			for t := 0; t < replayThreads; t++ {
				st := w.Stream(t, replaySeed)
				for i := 0; i < replayPerThread; i++ {
					rec, ok := st.Next()
					if !ok {
						break
					}
					if rec.Kind != trace.Compute {
						rec.Addr = rec.Addr.Line()
						replayRecs = append(replayRecs, rec)
					}
				}
			}
		}
	})
	return replayRecs
}

// hierarchy is one core's L1 and L2 over an LLC, filled the way the CPU
// model fills them: a load that misses everywhere installs LLC, L2 and
// L1 on data arrival, a store miss allocates in L1 only, and dirty
// victims cascade one level down (off the end of the LLC they are
// dropped, where the core would issue a write-back).
type hierarchy struct{ l1, l2, llc *cachesim.Cache }

func newHierarchy() *hierarchy {
	return &hierarchy{
		l1:  cachesim.New(cachesim.Config{Name: "l1", SizeBytes: 16 * mem.KiB, Ways: 8}),
		l2:  cachesim.New(cachesim.Config{Name: "l2", SizeBytes: 64 * mem.KiB, Ways: 16}),
		llc: cachesim.New(cachesim.Config{Name: "llc", SizeBytes: 256 * mem.KiB, Ways: 16}),
	}
}

func (h *hierarchy) access(r trace.Record) {
	write := r.Kind == trace.Store
	switch {
	case h.l1.Access(r.Addr, write):
	case h.l2.Access(r.Addr, write):
		if !write {
			h.installL1(r.Addr, false)
		}
	case h.llc.Access(r.Addr, write):
		if !write {
			h.installL2(r.Addr, false)
			h.installL1(r.Addr, false)
		}
	case write:
		h.installL1(r.Addr, true)
	default:
		h.llc.Fill(r.Addr, false)
		h.installL2(r.Addr, false)
		h.installL1(r.Addr, false)
	}
}

func (h *hierarchy) installL1(a mem.Addr, dirty bool) {
	if v := h.l1.Fill(a, dirty); v.Valid && v.Dirty {
		h.installL2(v.Addr, true)
	}
}

func (h *hierarchy) installL2(a mem.Addr, dirty bool) {
	if v := h.l2.Fill(a, dirty); v.Valid && v.Dirty {
		h.llc.Fill(v.Addr, true)
	}
}

// BenchmarkHierarchyReplay replays the memory records of the seven
// Table I generators (3 threads each, seed 7) through a 16 KiB/8-way L1,
// a 64 KiB/16-way L2 and a 256 KiB/16-way LLC, and reports the host cost
// of one demand access including the fills it triggers.
func BenchmarkHierarchyReplay(b *testing.B) {
	recs := replayRecords()
	h := newHierarchy()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.access(recs[i%len(recs)])
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/access")
}
