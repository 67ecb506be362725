package main

import (
	"sort"
	"time"

	"flashsim/internal/cpu"
	"flashsim/internal/isa"
	"flashsim/internal/machine"
	"flashsim/internal/sim"
)

// Sampling periods of the traced run. Timing every call would cost more
// than most of the calls themselves (fft1-hw makes about 5.5 M Next and
// 3.2 M port calls per run), so the wrappers sample whole core Run
// calls at pseudo-random gaps:
//
//   - one Run in runEvery is timed as a whole, with nothing inside it
//     timed. Scaled by calls/timed, this prices all Run time and, by
//     difference from the run's wall, the barrier.
//   - one other Run in splitEvery is cut at every Next and port call
//     into stream, port and core-self intervals. These give only the
//     shares in which Run time divides between the three layers.
//
// The split samples do not price anything themselves because a clock
// read serializes the processor: a call of a few tens of nanoseconds
// timed on its own reads far slower than it runs. Cutting the whole Run
// into intervals charges that distortion to every interval alike, so the
// shares hold even where the absolute times would not. Sampling by whole
// Runs also catches the heavy-tailed stream waits at the Run's rate.
const (
	runEvery     = 4
	splitEvery   = 16
	deliverEvery = 2
)

// timerCost is the calibrated cost of one timed region with an empty
// body (a time.Now/time.Since pair); it is subtracted from every timed
// sample so the timer does not land in the layer it times.
var timerCost = calibrateTimer()

func calibrateTimer() time.Duration {
	const rounds, per = 31, 4096
	costs := make([]time.Duration, rounds)
	for r := range costs {
		var sum time.Duration
		for i := 0; i < per; i++ {
			t0 := time.Now()
			sum += time.Since(t0)
		}
		costs[r] = sum / per
	}
	sort.Slice(costs, func(i, j int) bool { return costs[i] < costs[j] })
	return costs[rounds/2]
}

// span accumulates a sampled estimate of the host time spent in one
// kind of call.
type span struct {
	calls uint64
	timed uint64
	ns    int64 // timed samples, timer cost subtracted

	every uint64
	left  uint64
	rng   uint64
}

func newSpan(every uint64, seed uint64) span {
	return span{every: every, left: 1, rng: seed | 1}
}

// sample counts a call and reports whether this one is timed. Gaps are
// drawn uniformly from [1, 2·every-1], so the mean period is every and
// no periodic call pattern can alias with it.
func (s *span) sample() bool {
	s.calls++
	s.left--
	if s.left != 0 {
		return false
	}
	s.rng ^= s.rng << 13
	s.rng ^= s.rng >> 7
	s.rng ^= s.rng << 17
	s.left = 1 + s.rng%(2*s.every-1)
	return true
}

func (s *span) record(d time.Duration) {
	s.timed++
	s.ns += int64(d - timerCost)
}

// seconds is the estimated total host time over all calls.
func (s *span) seconds() float64 {
	if s.timed == 0 {
		return 0
	}
	return float64(s.ns) / 1e9 * float64(s.calls) / float64(s.timed)
}

func (s *span) add(o span) {
	s.calls += o.calls
	s.timed += o.timed
	s.ns += o.ns
}

// nodeTrace is one simulated node's accumulators. Each node's stream,
// port and core are driven by one goroutine at a time, so the fields
// need no locking; totals are summed after the run. The cores call
// their stream and port only from Run (Deliver finishes a suspended
// instruction from the MemInfo it is handed).
type nodeTrace struct {
	run, split, deliver span
	// splitting is set while a split-sampled Run executes; mark is the
	// end of its last interval.
	splitting              bool
	mark                   time.Time
	nextNS, portNS, selfNS int64
	nextCalls, portCalls   uint64
	deferred               uint64
}

// cut closes the core-self interval that ends now and returns now, the
// start of a nested call's interval.
func (n *nodeTrace) cut() time.Time {
	now := time.Now()
	n.selfNS += int64(now.Sub(n.mark) - timerCost)
	return now
}

// resume closes a nested call's interval that began at t0 into acc.
func (n *nodeTrace) resume(t0 time.Time, acc *int64) {
	n.mark = time.Now()
	*acc += int64(n.mark.Sub(t0) - timerCost)
}

// tracedDriver wraps a machine.Driver so that every node's instruction
// stream, memory port and core are timed from outside the simulator.
// It is transparent only for unsampled, execution-driven runs: the
// sampling engine and trace replay type-assert the concrete port and
// stream types that these wrappers hide.
type tracedDriver struct {
	machine.Driver
	nodes []nodeTrace
}

func newTracedDriver(d machine.Driver, seed uint64) *tracedDriver {
	t := &tracedDriver{Driver: d, nodes: make([]nodeTrace, d.Threads())}
	for i := range t.nodes {
		s := seed*0x9E3779B97F4A7C15 + uint64(i)*0xBF58476D1CE4E5B9
		t.nodes[i] = nodeTrace{
			run:     newSpan(runEvery, s+1),
			split:   newSpan(splitEvery, s+2),
			deliver: newSpan(deliverEvery, s+3),
		}
	}
	return t
}

func (d *tracedDriver) Stream(i int) cpu.Stream {
	return &tracedStream{inner: d.Driver.Stream(i), n: &d.nodes[i]}
}

func (d *tracedDriver) NewCore(i int, clock sim.Clock, src cpu.Stream, port cpu.Port) cpu.CPU {
	n := &d.nodes[i]
	inner := d.Driver.NewCore(i, clock, src, &tracedPort{inner: port, n: n})
	return &tracedCPU{inner: inner, blocking: inner.(cpu.Blocking), n: n}
}

type tracedStream struct {
	inner cpu.Stream
	n     *nodeTrace
}

func (s *tracedStream) Next() (isa.Instr, bool) {
	s.n.nextCalls++
	if !s.n.splitting {
		return s.inner.Next()
	}
	t0 := s.n.cut()
	in, ok := s.inner.Next()
	s.n.resume(t0, &s.n.nextNS)
	return in, ok
}

type tracedPort struct {
	inner cpu.Port
	n     *nodeTrace
}

// count tallies one port call and whether the port deferred it to the
// barrier.
func (p *tracedPort) count(mi cpu.MemInfo) cpu.MemInfo {
	p.n.portCalls++
	if mi.Pending {
		p.n.deferred++
	}
	return mi
}

func (p *tracedPort) Load(t sim.Ticks, addr uint64, size uint32) cpu.MemInfo {
	if !p.n.splitting {
		return p.count(p.inner.Load(t, addr, size))
	}
	t0 := p.n.cut()
	mi := p.inner.Load(t, addr, size)
	p.n.resume(t0, &p.n.portNS)
	return p.count(mi)
}

func (p *tracedPort) Store(t sim.Ticks, addr uint64, size uint32) cpu.MemInfo {
	if !p.n.splitting {
		return p.count(p.inner.Store(t, addr, size))
	}
	t0 := p.n.cut()
	mi := p.inner.Store(t, addr, size)
	p.n.resume(t0, &p.n.portNS)
	return p.count(mi)
}

func (p *tracedPort) CacheOp(t sim.Ticks, addr uint64, aux uint32) cpu.MemInfo {
	if !p.n.splitting {
		return p.count(p.inner.CacheOp(t, addr, aux))
	}
	t0 := p.n.cut()
	mi := p.inner.CacheOp(t, addr, aux)
	p.n.resume(t0, &p.n.portNS)
	return p.count(mi)
}

func (p *tracedPort) Prefetch(t sim.Ticks, addr uint64) {
	if !p.n.splitting {
		p.inner.Prefetch(t, addr)
	} else {
		t0 := p.n.cut()
		p.inner.Prefetch(t, addr)
		p.n.resume(t0, &p.n.portNS)
	}
	p.count(cpu.MemInfo{})
}

func (p *tracedPort) SyscallCost(aux uint32) uint32 { return p.inner.SyscallCost(aux) }

// tracedCPU times Run and Deliver, keeping the core's cpu.Blocking
// half, which the engine type-asserts on every deferred access.
type tracedCPU struct {
	inner    cpu.CPU
	blocking cpu.Blocking
	n        *nodeTrace
}

func (c *tracedCPU) Run(t sim.Ticks) cpu.Outcome {
	if c.n.run.sample() {
		t0 := time.Now()
		o := c.inner.Run(t)
		c.n.run.record(time.Since(t0))
		return o
	}
	if !c.n.split.sample() {
		return c.inner.Run(t)
	}
	c.n.splitting = true
	c.n.mark = time.Now()
	o := c.inner.Run(t)
	c.n.cut()
	c.n.splitting = false
	return o
}

func (c *tracedCPU) Deliver(mi cpu.MemInfo) sim.Ticks {
	if !c.n.deliver.sample() {
		return c.blocking.Deliver(mi)
	}
	t0 := time.Now()
	t := c.blocking.Deliver(mi)
	c.n.deliver.record(time.Since(t0))
	return t
}

func (c *tracedCPU) Stats() cpu.Stats { return c.inner.Stats() }

// simLayers is the per-layer split of traced simulated runs. Times are
// host seconds summed over the runs folded in; Runs counts them.
type simLayers struct {
	Runs                                  int
	Wall                                  float64
	Next, CPUSelf, Deliver, Port, Barrier float64
	Remainder                             float64
	Instrs, RunCalls, PortCalls, Deferred uint64
}

// fold adds one traced run: its RunWith wall time and its driver's
// accumulators. Run time is divided between stream, port and core self
// time in the shares the split samples measured. The barrier is clamped
// at zero; whatever the estimates cannot place in a layer shows up as
// Remainder.
func (l *simLayers) fold(wall float64, d *tracedDriver) {
	var run, del span
	var nextNS, portNS, selfNS int64
	for i := range d.nodes {
		n := &d.nodes[i]
		run.add(n.run)
		del.add(n.deliver)
		nextNS += n.nextNS
		portNS += n.portNS
		selfNS += n.selfNS
		l.Instrs += n.nextCalls
		l.PortCalls += n.portCalls
		l.Deferred += n.deferred
	}
	runS := run.seconds()
	if split := float64(nextNS + portNS + selfNS); split > 0 {
		l.Next += runS * float64(nextNS) / split
		l.Port += runS * float64(portNS) / split
		l.CPUSelf += runS * float64(selfNS) / split
	}
	barrier := clamp(wall - runS - del.seconds())
	l.Runs++
	l.Wall += wall
	l.RunCalls += run.calls
	l.Deliver += del.seconds()
	l.Barrier += barrier
	l.Remainder += wall - (runS + del.seconds() + barrier)
}

func clamp(x float64) float64 {
	if x < 0 {
		return 0
	}
	return x
}
