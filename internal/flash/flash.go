// Package flash models the NAND flash array inside the CXL-SSD: the
// channel/chip/die/plane/block/page organisation of Table II, the per-class
// read/program/erase timings of Table IV, and per-channel FIFO service
// queues whose occupancy counters feed the paper's Algorithm 1 latency
// estimator.
//
// The service model matches the paper's: "the requests in the channel queue
// will be served in FIFO order", so the latency of a request is the sum of
// the service times of everything ahead of it. Garbage-collection traffic is
// enqueued on the same queues and therefore blocks demand requests exactly
// as §II-C describes.
package flash

import (
	"fmt"

	"skybyte/internal/mem"
	"skybyte/internal/sim"
)

// Timing holds NAND operation latencies (Table IV).
type Timing struct {
	Read    sim.Time // tR
	Program sim.Time // tProg
	Erase   sim.Time // tBERS
}

// NAND timing classes evaluated in the paper (Table IV).
var (
	TimingULL  = Timing{Read: 3 * sim.Microsecond, Program: 100 * sim.Microsecond, Erase: 1000 * sim.Microsecond}  // Samsung Z-NAND
	TimingULL2 = Timing{Read: 4 * sim.Microsecond, Program: 75 * sim.Microsecond, Erase: 850 * sim.Microsecond}    // Toshiba XL-Flash
	TimingSLC  = Timing{Read: 25 * sim.Microsecond, Program: 200 * sim.Microsecond, Erase: 1500 * sim.Microsecond} //
	TimingMLC  = Timing{Read: 50 * sim.Microsecond, Program: 600 * sim.Microsecond, Erase: 3000 * sim.Microsecond} //
)

// Geometry describes the physical organisation.
type Geometry struct {
	Channels       int
	ChipsPerChan   int
	DiesPerChip    int
	PlanesPerDie   int
	BlocksPerPlane int
	PagesPerBlock  int
}

// TotalBlocks returns the number of erase blocks.
func (g Geometry) TotalBlocks() int {
	return g.Channels * g.ChipsPerChan * g.DiesPerChip * g.PlanesPerDie * g.BlocksPerPlane
}

// TotalPages returns the number of flash pages.
func (g Geometry) TotalPages() uint64 {
	return uint64(g.TotalBlocks()) * uint64(g.PagesPerBlock)
}

// Bytes returns the raw capacity in bytes.
func (g Geometry) Bytes() uint64 { return g.TotalPages() * mem.PageBytes }

// BlockOfPPA returns the erase-block index containing physical page ppa.
func (g Geometry) BlockOfPPA(ppa uint64) uint32 { return uint32(ppa / uint64(g.PagesPerBlock)) }

// ChannelOfBlock returns the channel a block belongs to. Blocks are striped
// round-robin so sequential block allocation exploits channel parallelism.
func (g Geometry) ChannelOfBlock(block uint32) int { return int(block) % g.Channels }

// ChannelOfPPA returns the channel serving physical page ppa.
func (g Geometry) ChannelOfPPA(ppa uint64) int { return g.ChannelOfBlock(g.BlockOfPPA(ppa)) }

// OpKind distinguishes flash operations.
type OpKind uint8

// Flash operation kinds.
const (
	OpRead OpKind = iota
	OpProgram
	OpErase
)

// QueueCounts reports the pending operations on one channel, the inputs to
// the paper's Algorithm 1.
type QueueCounts struct {
	Reads, Programs, Erases int
}

// Stats aggregates array-level activity.
type Stats struct {
	Reads    uint64
	Programs uint64
	Erases   uint64
	BusyTime sim.Time // summed across channels
}

type channel struct {
	busFree sim.Time
	dies    []sim.Time // per-die free time
	counts  QueueCounts
}

// DefaultBusPerPage is the channel-bus occupancy of one 4 KB page
// transfer. Die operations (tR/tProg/tBERS) proceed in parallel across the
// channel's chips/dies/planes; only the transfer serialises on the bus —
// the behaviour that lets programs overlap reads on the same channel, as
// in SimpleSSD's device model (see DESIGN.md §1).
const DefaultBusPerPage = 400 * sim.Nanosecond

// Array is the event-driven flash array.
type Array struct {
	Eng *sim.Engine
	Geo Geometry
	Tim Timing

	chans []channel
	stats Stats

	// TrackData enables a functional data path: programs store page
	// payloads, reads return them, erases drop them. Perf runs leave it off.
	TrackData bool
	data      map[uint64][]byte
}

// Typed completion handlers: A0 carries the channel index, P1 the array,
// P2 the optional caller callback — so steady-state (non-TrackData) flash
// traffic schedules without allocating. Registered at init per the
// sim.RegisterHandler contract.
var (
	hReadDone  sim.HandlerID
	hProgDone  sim.HandlerID
	hEraseDone sim.HandlerID
)

func init() {
	hReadDone = sim.RegisterHandler(func(a0 uint64, p1, p2 any) {
		a := p1.(*Array)
		a.chans[a0].counts.Reads--
		if p2 != nil {
			p2.(func(data []byte))(nil)
		}
	})
	hProgDone = sim.RegisterHandler(func(a0 uint64, p1, p2 any) {
		a := p1.(*Array)
		a.chans[a0].counts.Programs--
		if p2 != nil {
			p2.(func())()
		}
	})
	hEraseDone = sim.RegisterHandler(func(a0 uint64, p1, p2 any) {
		a := p1.(*Array)
		a.chans[a0].counts.Erases--
		if p2 != nil {
			p2.(func())()
		}
	})
}

// New builds an array on the given engine.
func New(eng *sim.Engine, geo Geometry, tim Timing) *Array {
	a := &Array{Eng: eng, Geo: geo, Tim: tim,
		chans: make([]channel, geo.Channels), data: map[uint64][]byte{}}
	dies := geo.ChipsPerChan * geo.DiesPerChip * geo.PlanesPerDie
	if dies < 1 {
		dies = 1
	}
	for i := range a.chans {
		a.chans[i].dies = make([]sim.Time, dies)
	}
	return a
}

// Stats returns a copy of the accumulated statistics.
func (a *Array) Stats() Stats { return a.stats }

// Counts returns the pending-operation counters for a channel.
func (a *Array) Counts(ch int) QueueCounts { return a.chans[ch].counts }

// QueuedOps returns the total operations (reads + programs + erases)
// outstanding across every channel queue — the array-wide queue depth
// a telemetry probe samples.
func (a *Array) QueuedOps() int {
	n := 0
	for ch := range a.chans {
		c := a.chans[ch].counts
		n += c.Reads + c.Programs + c.Erases
	}
	return n
}

// EstimateDelay implements the queue-sum latency estimate of Algorithm 1
// for a new read arriving on channel ch:
//
//	est = tR*(nRead+1) + tProg*nProgram + tBERS*nErase
//
// This is the paper's conservative FIFO model; the actual service model
// overlaps die operations, so controller code that knows the enqueue-time
// completion should prefer that (the paper's controller also "sums the
// latency of all requests in the queue" — with die parallelism, the sum is
// the computed completion time).
func (a *Array) EstimateDelay(ch int) sim.Time {
	c := a.chans[ch].counts
	return a.Tim.Read*sim.Time(c.Reads+1) + a.Tim.Program*sim.Time(c.Programs) + a.Tim.Erase*sim.Time(c.Erases)
}

// QueueBusyUntil returns when the channel fully drains: the latest free
// time across its bus and dies.
func (a *Array) QueueBusyUntil(ch int) sim.Time {
	c := &a.chans[ch]
	t := c.busFree
	for _, d := range c.dies {
		if d > t {
			t = d
		}
	}
	return t
}

// earliestDie returns the index of the die that frees first.
func (c *channel) earliestDie() int {
	best, bt := 0, c.dies[0]
	for i, d := range c.dies {
		if d < bt {
			best, bt = i, d
		}
	}
	return best
}

// Read enqueues a page read on ppa's channel and returns its predicted
// completion time. The die senses for tR (in parallel with other dies),
// then the page crosses the channel bus. done (optional) fires at
// completion with the page payload (nil unless TrackData); the payload is
// snapshotted at enqueue time — enqueue order is service order per die, so
// the snapshot is what the read physically observes.
func (a *Array) Read(ppa uint64, done func(data []byte)) sim.Time {
	ch := a.Geo.ChannelOfPPA(ppa)
	c := &a.chans[ch]
	a.stats.Reads++
	c.counts.Reads++
	snap := a.pageData(ppa)

	die := c.earliestDie()
	dieStart := sim.Max(a.Eng.Now(), c.dies[die])
	dieEnd := dieStart + a.Tim.Read
	c.dies[die] = dieEnd
	busStart := sim.Max(dieEnd, c.busFree)
	end := busStart + DefaultBusPerPage
	c.busFree = end
	a.stats.BusyTime += a.Tim.Read

	if a.TrackData {
		// The payload snapshot must ride in a closure; the typed fast path
		// below only covers the nil-payload perf configuration.
		a.Eng.At(end, func() {
			c.counts.Reads--
			if done != nil {
				done(snap)
			}
		})
		return end
	}
	var cb any
	if done != nil {
		cb = done
	}
	a.Eng.AtH(end, hReadDone, uint64(ch), a, cb)
	return end
}

// Program enqueues a page program and returns its predicted completion:
// the page crosses the bus, then the die programs for tProg in parallel
// with other dies. data is retained only when TrackData.
func (a *Array) Program(ppa uint64, data []byte, done func()) sim.Time {
	ch := a.Geo.ChannelOfPPA(ppa)
	c := &a.chans[ch]
	a.stats.Programs++
	c.counts.Programs++
	if a.TrackData {
		buf := make([]byte, mem.PageBytes)
		copy(buf, data)
		a.data[ppa] = buf
	}
	busStart := sim.Max(a.Eng.Now(), c.busFree)
	busEnd := busStart + DefaultBusPerPage
	c.busFree = busEnd
	die := c.earliestDie()
	dieStart := sim.Max(busEnd, c.dies[die])
	end := dieStart + a.Tim.Program
	c.dies[die] = end
	a.stats.BusyTime += a.Tim.Program

	var cb any
	if done != nil {
		cb = done
	}
	a.Eng.AtH(end, hProgDone, uint64(ch), a, cb)
	return end
}

// Erase enqueues a block erase (die-only; no bus transfer) and returns its
// predicted completion.
func (a *Array) Erase(block uint32, done func()) sim.Time {
	if int(block) >= a.Geo.TotalBlocks() {
		panic(fmt.Sprintf("flash: erase of block %d beyond %d", block, a.Geo.TotalBlocks()))
	}
	ch := a.Geo.ChannelOfBlock(block)
	c := &a.chans[ch]
	a.stats.Erases++
	c.counts.Erases++
	if a.TrackData {
		first := uint64(block) * uint64(a.Geo.PagesPerBlock)
		for p := first; p < first+uint64(a.Geo.PagesPerBlock); p++ {
			delete(a.data, p)
		}
	}
	die := c.earliestDie()
	end := sim.Max(a.Eng.Now(), c.dies[die]) + a.Tim.Erase
	c.dies[die] = end
	a.stats.BusyTime += a.Tim.Erase

	var cb any
	if done != nil {
		cb = done
	}
	a.Eng.AtH(end, hEraseDone, uint64(ch), a, cb)
	return end
}

func (a *Array) pageData(ppa uint64) []byte {
	if !a.TrackData {
		return nil
	}
	return a.data[ppa]
}

// PeekData returns the stored payload of a physical page (tests only).
func (a *Array) PeekData(ppa uint64) []byte { return a.pageData(ppa) }

// Utilization returns the fraction of die-time spent busy since t=0.
func (a *Array) Utilization() float64 {
	el := a.Eng.Now()
	if el == 0 {
		return 0
	}
	dies := a.Geo.Channels * len(a.chans[0].dies)
	return float64(a.stats.BusyTime) / float64(int64(el)*int64(dies))
}
