package system

import (
	"fmt"

	"skybyte/internal/core"
	"skybyte/internal/sim"
	"skybyte/internal/telemetry"
)

// setupTelemetry registers every probe and hook of a telemetry-enabled
// run, then starts the sampler. It runs once, from Run, after the full
// wiring (tenants, SLO classes, gates) is known; registration order is
// fixed — component probes, then tenants in declaration order, then
// SLO classes in declaration order — so the snapshot's series order is
// identical in every run of the same spec.
func (s *System) setupTelemetry() {
	tel := s.tel

	// Write-log occupancy averages across every device's log pair; on
	// one device it is that device's series, value for value.
	if logs := s.devs[0].ctrl.Logs(); logs[0] != nil {
		devs := s.devs
		tel.Register("writelog.occupancy", func() float64 {
			var sum float64
			for _, d := range devs {
				l := d.ctrl.Logs()
				sum += (l[0].Occupancy() + l[1].Occupancy()) / 2
			}
			return sum / float64(len(devs))
		})
	}
	// Hit ratios are windowed: each sample differences the cumulative
	// counters against the previous tick, so the series shows the ratio
	// of that cadence window, not the run-to-date average. The page-cache
	// ratio pools every device's hits and misses.
	var pcHits, pcAcc uint64
	tel.Register("pagecache.hit_ratio", func() float64 {
		var hits, acc uint64
		for _, d := range s.devs {
			st := d.ctrl.Cache().Stats
			hits += st.Hits
			acc += st.Hits + st.Misses
		}
		dh, da := hits-pcHits, acc-pcAcc
		pcHits, pcAcc = hits, acc
		if da == 0 {
			return 0
		}
		return float64(dh) / float64(da)
	})
	var llcHits, llcAcc uint64
	tel.Register("llc.hit_ratio", func() float64 {
		st := s.llc.Stats
		dh, da := st.Hits-llcHits, st.Accesses()-llcAcc
		llcHits, llcAcc = st.Hits, st.Accesses()
		if da == 0 {
			return 0
		}
		return float64(dh) / float64(da)
	})
	tel.Register("cxl.tx_backlog_us", func() float64 {
		return float64(s.link.TxBacklog(s.Eng.Now())) / float64(sim.Microsecond)
	})
	tel.Register("cxl.rx_backlog_us", func() float64 {
		return float64(s.link.RxBacklog(s.Eng.Now())) / float64(sim.Microsecond)
	})
	tel.Register("flash.queued_ops", func() float64 {
		var n int
		for _, d := range s.devs {
			n += d.arr.QueuedOps()
		}
		return float64(n)
	})
	// Per-device fleet probes: each backend's flash queue depth and
	// downstream-port backlog, the series that show the link-vs-flash
	// bottleneck crossover as K grows. Registered only when ports exist
	// (Devices >= 2), so single-device snapshots keep their exact
	// pre-fleet series set.
	if s.placer != nil {
		for i, d := range s.devs {
			d := d
			tel.Register(fmt.Sprintf("device.%d.flash_queued_ops", i), func() float64 {
				return float64(d.arr.QueuedOps())
			})
			tel.Register(fmt.Sprintf("device.%d.port_tx_backlog_us", i), func() float64 {
				return float64(d.port.TxBacklog(s.Eng.Now())) / float64(sim.Microsecond)
			})
			tel.Register(fmt.Sprintf("device.%d.port_rx_backlog_us", i), func() float64 {
				return float64(d.port.RxBacklog(s.Eng.Now())) / float64(sim.Microsecond)
			})
		}
	}
	tel.Register("sched.runnable", func() float64 {
		return float64(s.sched.Runnable())
	})
	tel.Register("sched.idle_cores", func() float64 {
		return float64(s.sched.Waiting())
	})

	// Per-tenant in-flight backend requests (reads and writebacks
	// between backend entry and completion); solo runs count as one
	// tenant group 0.
	n := len(s.parts)
	s.telInflight = make([]int, n)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("tenant.%d.inflight", i)
		if i < len(s.tenantInfo) {
			name = "tenant." + s.tenantInfo[i].Name + ".inflight"
		}
		i := i
		tel.Register(name, func() float64 { return float64(s.telInflight[i]) })
	}

	// Per-SLO-class in-flight requests and windowed p99 sojourn
	// latency (the p99 of requests completed within each cadence
	// window — the probe drains the window histogram as it samples).
	for i, info := range s.sloInfo {
		tr := s.classTracks[i]
		tel.Register("class."+info.Name+".inflight", func() float64 {
			return float64(tr.Inflight)
		})
		tel.Register("class."+info.Name+".p99_us", func() float64 {
			return tr.WindowedPercentileUS(99)
		})
	}

	if s.telSpans != nil {
		s.telCtxEnd = make([]sim.Time, len(s.cores))
		for _, c := range s.cores {
			c.OnCtxSwitch = s.telCtxSwitch
		}
	}
	tel.Start()
}

// telCtxSwitch records one coordinated context switch as a span of
// SwitchCost on the core's timeline track. Back-to-back switches whose
// charged cost has not elapsed yet are serialized so spans on one
// track never partially overlap.
func (s *System) telCtxSwitch(coreID int, at sim.Time) {
	if at < s.telCtxEnd[coreID] {
		at = s.telCtxEnd[coreID]
	}
	end := at + s.sched.SwitchCost
	s.telCtxEnd[coreID] = end
	s.telSpans.Add("ctx-switch", "core", telemetry.CorePID, int32(coreID), at, end)
}

// telReadSpan records one completed off-chip read as a parent span
// with sequential component segments (CXL protocol, log-index lookup,
// SSD-DRAM service, flash service). Concurrent reads are slotted onto
// distinct timeline tids — a slot is reusable once its previous span
// has ended — so spans within a track always nest or stay disjoint.
func (s *System) telReadSpan(t0, lat sim.Time, m *core.ReadMeta) {
	end := t0 + lat
	slot := -1
	for i, busy := range s.telReadSlots {
		if busy <= t0 {
			slot = i
			break
		}
	}
	if slot == -1 {
		slot = len(s.telReadSlots)
		s.telReadSlots = append(s.telReadSlots, 0)
	}
	s.telReadSlots[slot] = end
	tid := int32(slot)
	sp := s.telSpans
	sp.Add("read", "memory", telemetry.MemoryPID, tid, t0, end)
	proto := lat - m.Index - m.SSDDRAM - m.Flash
	if proto < 0 {
		proto = 0
	}
	t := t0
	for _, seg := range [...]struct {
		name string
		d    sim.Time
	}{{"cxl", proto}, {"log-index", m.Index}, {"ssd-dram", m.SSDDRAM}, {"flash", m.Flash}} {
		if seg.d <= 0 {
			continue
		}
		segEnd := t + seg.d
		if segEnd > end {
			segEnd = end
		}
		if segEnd > t {
			sp.Add(seg.name, "memory", telemetry.MemoryPID, tid, t, segEnd)
		}
		t = segEnd
	}
}
