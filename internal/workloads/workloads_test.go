package workloads

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"skybyte/internal/mem"
	"skybyte/internal/trace"
)

func sample(t *testing.T, s Spec, thread int, n int) (recs []trace.Record) {
	t.Helper()
	st := s.Stream(thread, 42)
	for len(recs) < n {
		r, ok := st.Next()
		if !ok {
			t.Fatalf("%s: stream ended early", s.Name)
		}
		recs = append(recs, r)
	}
	return recs
}

func TestTable1Complete(t *testing.T) {
	specs := Table1()
	if len(specs) != 7 {
		t.Fatalf("Table I has %d workloads, want 7", len(specs))
	}
	for _, s := range specs {
		if s.FootprintBytes() < 128*mem.MiB {
			t.Errorf("%s footprint %d below the >=8GB/64 floor", s.Name, s.FootprintBytes())
		}
		if s.WriteRatio <= 0 || s.WriteRatio > 0.5 {
			t.Errorf("%s write ratio %v out of Table I range", s.Name, s.WriteRatio)
		}
		if s.PaperMPKI <= 0 {
			t.Errorf("%s missing MPKI", s.Name)
		}
	}
	if _, err := ByName("bc"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown name accepted")
	}
	if len(Table1Names()) != 7 {
		t.Fatal("Table1Names() incomplete")
	}
	if len(Names()) != 7+len(Extras()) {
		t.Fatalf("Names() = %v, want Table I + extras", Names())
	}
}

func TestDeterminism(t *testing.T) {
	for _, s := range Table1() {
		a := sample(t, s, 3, 5000)
		b := sample(t, s, 3, 5000)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: record %d differs between identical streams", s.Name, i)
			}
		}
	}
}

func TestThreadsDiffer(t *testing.T) {
	for _, s := range Table1() {
		a := sample(t, s, 0, 2000)
		b := sample(t, s, 1, 2000)
		same := 0
		for i := range a {
			if a[i] == b[i] {
				same++
			}
		}
		if same == len(a) {
			t.Fatalf("%s: threads 0 and 1 produced identical streams", s.Name)
		}
	}
}

func TestAddressesWithinArena(t *testing.T) {
	for _, s := range Table1() {
		end := mem.CXLBase + mem.Addr(s.FootprintBytes())
		for _, r := range sample(t, s, 2, 20000) {
			if r.Kind == trace.Compute {
				continue
			}
			if r.Addr < mem.CXLBase || r.Addr >= end {
				t.Fatalf("%s: address %#x outside arena [%#x,%#x)", s.Name, r.Addr, mem.CXLBase, end)
			}
		}
	}
}

func TestWriteRatiosApproximateTable1(t *testing.T) {
	for _, s := range Table1() {
		var loads, stores int
		for _, r := range sample(t, s, 1, 60000) {
			switch r.Kind {
			case trace.Load, trace.LoadDep:
				loads++
			case trace.Store:
				stores++
			}
		}
		got := float64(stores) / float64(loads+stores)
		if math.Abs(got-s.WriteRatio) > 0.07 {
			t.Errorf("%s: measured write ratio %.3f, Table I says %.2f", s.Name, got, s.WriteRatio)
		}
	}
}

func TestGraphWorkloadsChase(t *testing.T) {
	for _, name := range []string{"bc", "bfs-dense", "ycsb"} {
		s, _ := ByName(name)
		dep := 0
		for _, r := range sample(t, s, 0, 10000) {
			if r.Kind == trace.LoadDep {
				dep++
			}
		}
		if dep == 0 {
			t.Errorf("%s: no dependent loads; pointer chasing expected", name)
		}
	}
}

func TestMemoryIntensityOrdering(t *testing.T) {
	// bfs-dense (MPKI 122.9) must be far more memory-intense per
	// instruction than tpcc (MPKI 1.0); dlrm and srad sit in between.
	intensity := func(name string) float64 {
		s, _ := ByName(name)
		var memOps, instrs uint64
		for _, r := range sample(t, s, 0, 30000) {
			instrs += r.Instructions()
			if r.Kind != trace.Compute {
				memOps++
			}
		}
		return float64(memOps) / float64(instrs)
	}
	bfs := intensity("bfs-dense")
	tpcc := intensity("tpcc")
	ycsb := intensity("ycsb")
	if bfs < 5*tpcc {
		t.Errorf("bfs-dense intensity %.4f not >> tpcc %.4f", bfs, tpcc)
	}
	if ycsb < 3*tpcc {
		t.Errorf("ycsb intensity %.4f not >> tpcc %.4f", ycsb, tpcc)
	}
}

func TestUnknownWorkloadPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Stream of unknown workload should panic")
		}
	}()
	Spec{Name: "bogus", FootprintPages: 10}.Stream(0, 1)
}

// TestForDevice: the one footprint rule. On the 1/64 device a workload is
// returned as is, without allocating; on a device of k times its flash
// every generated footprint is k times larger and the stream stays in
// the larger arena; a recorded trace runs only on the 1/64 device.
func TestForDevice(t *testing.T) {
	specs := append(Table1(), Extras()...)
	for _, s := range specs {
		same, err := s.ForDevice(RefFlashBytes)
		if err != nil || same.FootprintPages != s.FootprintPages {
			t.Fatalf("%s on the 1/64 device: %d pages, %v", s.Name, same.FootprintPages, err)
		}
		big, err := s.ForDevice(4 * RefFlashBytes)
		if err != nil || big.FootprintPages != 4*s.FootprintPages {
			t.Fatalf("%s on a 4x device: %d pages, %v; want %d", s.Name, big.FootprintPages, err, 4*s.FootprintPages)
		}
		end := mem.CXLBase + mem.Addr(big.FootprintBytes())
		beyond := false
		for _, r := range sample(t, big, 1, 20000) {
			if r.Kind == trace.Compute {
				continue
			}
			if r.Addr < mem.CXLBase || r.Addr >= end {
				t.Fatalf("%s: address %#x outside the 4x arena", s.Name, r.Addr)
			}
			beyond = beyond || r.Addr >= mem.CXLBase+mem.Addr(s.FootprintBytes())
		}
		if !beyond {
			t.Errorf("%s on a 4x device never left the 1/64 arena", s.Name)
		}
	}
	s := Table1()[0]
	if n := testing.AllocsPerRun(100, func() { s, _ = s.ForDevice(RefFlashBytes) }); n != 0 {
		t.Errorf("ForDevice on the 1/64 device allocates %.0f times", n)
	}
	if _, err := s.ForDevice(0); err == nil {
		t.Error("a device without flash accepted")
	}

	tr := &trace.Trace{Meta: trace.Meta{Workload: "bc", FootprintPages: s.FootprintPages}}
	tr.Threads = append(tr.Threads, trace.RecordStream(s.Stream(0, 1), 100))
	data, err := trace.EncodeTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	r, err := trace.NewReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	ts, err := SpecFromTrace(r)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ts.ForDevice(RefFlashBytes); err != nil {
		t.Fatalf("trace on the 1/64 device: %v", err)
	}
	if _, err := ts.ForDevice(4 * RefFlashBytes); err == nil || !strings.Contains(err.Error(), "only on the 1/64 machine") {
		t.Fatalf("trace on a 4x device: err = %v, want it rejected", err)
	}
}
