package writelog

import (
	"bytes"
	"testing"
	"testing/quick"

	"skybyte/internal/mem"
	"skybyte/internal/trace"
)

func lineOf(page, off uint64) uint64 { return page*mem.LinesPerPage + off }

func TestAppendLookup(t *testing.T) {
	l := New(128, false)
	if l.Contains(lineOf(3, 7)) {
		t.Fatal("empty log should not contain anything")
	}
	l.Append(lineOf(3, 7), nil)
	if _, ok := l.Lookup(lineOf(3, 7)); !ok {
		t.Fatal("appended line not found")
	}
	if _, ok := l.Lookup(lineOf(3, 8)); ok {
		t.Fatal("phantom hit for different offset")
	}
	if _, ok := l.Lookup(lineOf(4, 7)); ok {
		t.Fatal("phantom hit for different page")
	}
	if l.Len() != 1 || l.LiveLines() != 1 || l.PageCount() != 1 {
		t.Fatalf("len=%d live=%d pages=%d", l.Len(), l.LiveLines(), l.PageCount())
	}
}

func TestUpdateSupersedes(t *testing.T) {
	l := New(128, true)
	d1 := bytes.Repeat([]byte{1}, 64)
	d2 := bytes.Repeat([]byte{2}, 64)
	l.Append(lineOf(1, 5), d1)
	l.Append(lineOf(1, 5), d2)
	got, ok := l.Lookup(lineOf(1, 5))
	if !ok || got[0] != 2 {
		t.Fatal("index does not point at newest entry")
	}
	if l.Len() != 2 {
		t.Fatal("superseded entry should still occupy log space")
	}
	if l.LiveLines() != 1 {
		t.Fatal("only one live line expected")
	}
	if l.Stats().Updates != 1 {
		t.Fatal("update not counted")
	}
}

func TestFullAndPanicOnOverflow(t *testing.T) {
	l := New(4, false)
	for i := 0; i < 4; i++ {
		l.Append(lineOf(0, uint64(i)), nil)
	}
	if !l.Full() {
		t.Fatal("log should be full")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("append to full log should panic")
		}
	}()
	l.Append(lineOf(0, 63), nil)
}

func TestPagesAndPageLines(t *testing.T) {
	l := New(256, false)
	l.Append(lineOf(10, 0), nil)
	l.Append(lineOf(10, 5), nil)
	l.Append(lineOf(20, 63), nil)
	pages := l.Pages()
	if len(pages) != 2 {
		t.Fatalf("pages = %v", pages)
	}
	seen := map[uint64]bool{}
	for _, p := range pages {
		seen[p] = true
	}
	if !seen[10] || !seen[20] {
		t.Fatalf("pages = %v", pages)
	}
	lines := l.AppendPageLines(nil, 10)
	if len(lines) != 2 {
		t.Fatalf("lines of page 10 = %+v", lines)
	}
	offs := map[uint]bool{}
	for _, le := range lines {
		offs[le.Offset] = true
	}
	if !offs[0] || !offs[5] {
		t.Fatalf("offsets = %v", offs)
	}
	if len(l.AppendPageLines(nil, 99)) != 0 {
		t.Fatal("lines of absent page should be empty")
	}
}

func TestInvalidatePage(t *testing.T) {
	l := New(256, false)
	l.Append(lineOf(1, 1), nil)
	l.Append(lineOf(2, 2), nil)
	l.InvalidatePage(1)
	if l.Contains(lineOf(1, 1)) {
		t.Fatal("invalidated page still indexed")
	}
	if !l.Contains(lineOf(2, 2)) {
		t.Fatal("other page lost")
	}
	if l.PageCount() != 1 {
		t.Fatalf("PageCount = %d", l.PageCount())
	}
	// Tombstone must not break later inserts of the same page.
	l.Append(lineOf(1, 3), nil)
	if !l.Contains(lineOf(1, 3)) {
		t.Fatal("re-insert after invalidate failed")
	}
}

func TestReset(t *testing.T) {
	l := New(64, false)
	for i := uint64(0); i < 64; i++ {
		l.Append(lineOf(i, i%64), nil)
	}
	l.Reset()
	if l.Len() != 0 || l.PageCount() != 0 || l.Full() {
		t.Fatal("reset did not clear the log")
	}
	if l.Stats().Resets != 1 {
		t.Fatal("reset not counted")
	}
	l.Append(lineOf(7, 7), nil)
	if !l.Contains(lineOf(7, 7)) {
		t.Fatal("log unusable after reset")
	}
}

func TestIndexBytesGrowsAndBounded(t *testing.T) {
	l := New(1024, false)
	base := l.IndexBytes()
	if base <= 0 {
		t.Fatal("index should have nonzero footprint")
	}
	// One dirty line per page: worst case for the index.
	for i := 0; i < 1024; i++ {
		l.Append(lineOf(uint64(i), 0), nil)
	}
	ib := l.IndexBytes()
	if ib <= base {
		t.Fatal("index footprint did not grow")
	}
	// Paper bound: ~16 B/first-level entry + 16 B/second-level table per
	// page, with hash-table headroom (load factor 0.75 plus power-of-two
	// sizing) at most ~4x that.
	if ib > 1024*32*4 {
		t.Fatalf("index footprint %d exceeds worst-case bound", ib)
	}
	if l.Stats().PeakIndex < ib {
		t.Fatal("peak index not tracked")
	}
}

func TestDenseSecondLevelResize(t *testing.T) {
	l := New(256, false)
	for off := uint64(0); off < 64; off++ {
		l.Append(lineOf(5, off), nil)
	}
	lines := l.AppendPageLines(nil, 5)
	if len(lines) != 64 {
		t.Fatalf("dense page lines = %d, want 64", len(lines))
	}
	seen := map[uint]bool{}
	for _, le := range lines {
		if seen[le.Offset] {
			t.Fatalf("duplicate offset %d after resizes", le.Offset)
		}
		seen[le.Offset] = true
	}
}

func TestCapacityValidation(t *testing.T) {
	for _, bad := range []int{0, -1, 1 << 27} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d) should panic", bad)
				}
			}()
			New(bad, false)
		}()
	}
}

// Property: the log agrees with a model map on containment and newest data
// for random append/lookup/invalidate sequences, and LiveLines matches the
// model size.
func TestAgainstModelMap(t *testing.T) {
	f := func(seed uint64) bool {
		rng := trace.NewRNG(seed)
		l := New(4096, true)
		model := map[uint64]byte{}
		for op := 0; op < 3000 && !l.Full(); op++ {
			switch rng.Intn(10) {
			case 0: // invalidate a random page
				page := rng.Uint64n(32)
				l.InvalidatePage(page)
				for k := range model {
					if k>>6 == page {
						delete(model, k)
					}
				}
			default:
				line := lineOf(rng.Uint64n(32), rng.Uint64n(64))
				v := byte(rng.Uint64())
				buf := bytes.Repeat([]byte{v}, 64)
				l.Append(line, buf)
				model[line] = v
			}
			// Random probe.
			probe := lineOf(rng.Uint64n(32), rng.Uint64n(64))
			data, ok := l.Lookup(probe)
			wantV, wantOK := model[probe]
			if ok != wantOK {
				return false
			}
			if ok && data[0] != wantV {
				return false
			}
		}
		return l.LiveLines() == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: AppendPageLines returns exactly the model's lines for each page.
func TestPageLinesMatchModel(t *testing.T) {
	f := func(seed uint64) bool {
		rng := trace.NewRNG(seed)
		l := New(2048, false)
		model := map[uint64]map[uint]bool{}
		for op := 0; op < 1500; op++ {
			page := rng.Uint64n(16)
			off := rng.Uint64n(64)
			l.Append(lineOf(page, off), nil)
			if model[page] == nil {
				model[page] = map[uint]bool{}
			}
			model[page][uint(off)] = true
		}
		for page, want := range model {
			got := l.AppendPageLines(nil, page)
			if len(got) != len(want) {
				return false
			}
			for _, le := range got {
				if !want[le.Offset] {
					return false
				}
			}
		}
		return len(l.Pages()) == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// indexBytesByDefinition recomputes the Fig. 12 index footprint from
// the tables themselves: 16 B per first-level slot plus 4 B per slot of
// every used second-level table.
func indexBytesByDefinition(l *Log) int {
	b := 16 * len(l.first)
	for i := range l.first {
		if l.first[i].state == 1 {
			b += 4 * len(l.table(&l.first[i]))
		}
	}
	return b
}

// Property: the incrementally maintained IndexBytes equals its
// definition after every Append, InvalidatePage and Reset, and PeakIndex
// is the running maximum over appends. The op mix forces first-level
// growth (hundreds of pages), second-level doubling (dense pages), and
// tombstones, so dropping any one update site of the counter fails.
func TestIndexBytesMatchesDefinition(t *testing.T) {
	f := func(seed uint64) bool {
		rng := trace.NewRNG(seed)
		l := New(2048, false)
		peak := 0
		for op := 0; op < 6000; op++ {
			switch r := rng.Intn(100); {
			case r < 3 || l.Full():
				l.Reset()
			case r < 8:
				l.InvalidatePage(rng.Uint64n(300))
			default:
				page := rng.Uint64n(300)
				if r < 40 {
					page = rng.Uint64n(8) // dense pages grow their second level
				}
				l.Append(lineOf(page, rng.Uint64n(64)), nil)
				peak = max(peak, indexBytesByDefinition(l))
			}
			if l.IndexBytes() != indexBytesByDefinition(l) || l.Stats().PeakIndex != peak {
				t.Logf("seed %d op %d: IndexBytes %d, definition %d; PeakIndex %d, running max %d",
					seed, op, l.IndexBytes(), indexBytesByDefinition(l), l.Stats().PeakIndex, peak)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// After one fill-and-reset cycle has sized the recycled index memory, a
// further identical cycle (appends until full, with some pages
// invalidated as migrations would, then Reset) allocates nothing.
func TestSteadyCycleAllocatesNothing(t *testing.T) {
	const capLines = 4096
	rng := trace.NewRNG(5)
	lines := make([]uint64, capLines)
	for i := range lines {
		page := rng.Uint64n(1024)
		if i%3 == 0 {
			page = rng.Uint64n(16)
		}
		lines[i] = lineOf(page, rng.Uint64n(64))
	}
	l := New(capLines, true)
	data := make([]byte, mem.LineBytes)
	cycle := func() {
		for i, line := range lines {
			l.Append(line, data)
			if i%97 == 0 {
				l.InvalidatePage(line >> 6)
			}
		}
		if !l.Full() {
			t.Fatal("cycle did not fill the log")
		}
		l.Reset()
	}
	cycle()
	if allocs := testing.AllocsPerRun(5, cycle); allocs != 0 {
		t.Fatalf("steady-state append/reset cycle made %.0f allocations, want 0", allocs)
	}
}

func BenchmarkAppend(b *testing.B) {
	l := New(1<<20, false)
	rng := trace.NewRNG(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if l.Full() {
			l.Reset()
		}
		l.Append(rng.Uint64n(1<<18), nil)
	}
}

func BenchmarkLookupHit(b *testing.B) {
	l := New(1<<16, false)
	for i := 0; i < 1<<15; i++ {
		l.Append(uint64(i*64%(1<<18)), nil)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Lookup(uint64(i * 64 % (1 << 18)))
	}
}
