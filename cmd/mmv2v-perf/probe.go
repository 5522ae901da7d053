package main

import (
	"runtime"
	"syscall"
	"time"
	"unsafe"

	"mmv2v/internal/obs"
	"mmv2v/internal/sim"
	"mmv2v/internal/traffic"
)

// stamp is one host-side observation at a layer boundary: monotonic
// nanoseconds since the probe started and, on traced runs, the process's
// cumulative heap allocation count.
type stamp struct {
	ns   int64
	objs uint64
}

// span accumulates the host time and allocations spent inside one kind of
// interval, and how many intervals there were.
type span struct {
	ns   int64
	objs uint64
	n    int
}

func (s *span) add(from, to stamp) {
	s.ns += to.ns - from.ns
	s.objs += to.objs - from.objs
	s.n++
}

func (s *span) merge(o span) {
	s.ns += o.ns
	s.objs += o.objs
	s.n += o.n
}

// layerSpans are the per-layer intervals one trial spent host time in.
// Frames tile the measured phase of every window; step, refresh, hook and
// runFrame intervals all lie inside frames, so whatever a frame holds beyond
// them is event dispatch.
type layerSpans struct {
	step, refresh, hook, runFrame, frame, window span
}

func (l *layerSpans) merge(o layerSpans) {
	l.step.merge(o.step)
	l.refresh.merge(o.refresh)
	l.hook.merge(o.hook)
	l.runFrame.merge(o.runFrame)
	l.frame.merge(o.frame)
	l.window.merge(o.window)
}

// dispatch is the frame time not spent in any timed layer call: the DES
// event loop and the protocol/medium handlers it runs.
func (l *layerSpans) dispatch() span {
	d := l.frame
	for _, s := range []span{l.step, l.refresh, l.hook, l.runFrame} {
		d.ns -= s.ns
		d.objs -= s.objs
	}
	return d
}

// probe times one trial from outside the program: it is called from the
// wrapped fleet, the two bracketing refresh hooks, the wrapped protocol and
// the window monitor, and never touches simulation state.
type probe struct {
	base   time.Duration
	traced bool
	mem    runtime.MemStats
	// hidden is the host time spent reading allocation counts; stamps
	// leave it out, so spans measure the program and not the probe.
	hidden int64

	tickStart   stamp // start of the current 5 ms tick
	stepEnd     stamp
	hookStart   stamp
	stepped     bool // the current tick stepped the fleet
	frameStarts []stamp
	windowStart stamp

	frameMs []float64
	spans   layerSpans
	// cal and calTime (their total host time) are the untraced trial's
	// calibration loops; frameNs holds its frames' intervals on the probe's
	// clock, for rescaling.
	cal     calSamples
	calTime int64
	frameNs [][2]int64
}

func newProbe(traced bool) *probe {
	return &probe{base: threadTime(), traced: traced}
}

// threadTime returns the CPU time the calling OS thread has used
// (CLOCK_THREAD_CPUTIME_ID). runTrial locks the simulation's goroutine to
// its thread, so this is the simulation's own host time: it equals wall
// time on an idle machine and leaves out time the machine gives to other
// processes, which on a shared host would otherwise swamp the measurement.
func threadTime() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic("mmv2v-perf: clock_gettime(CLOCK_THREAD_CPUTIME_ID): " + errno.Error())
	}
	return time.Duration(ts.Nano())
}

// clock is the probe's clock: thread time since the probe started, less
// the time the probe spent on itself.
func (p *probe) clock() int64 { return int64(threadTime()-p.base) - p.hidden }

// calibrate runs the calibration loop on an untraced trial and hides its
// time from the probe's clock. Traced trials skip it, so it never shows in
// their CPU profile.
func (p *probe) calibrate() {
	if p.traced {
		return
	}
	at := p.clock()
	d := int64(calLoop(&p.cal.sink))
	p.cal.at = append(p.cal.at, at)
	p.cal.d = append(p.cal.d, d)
	spent := p.clock() - at
	p.hidden += spent
	p.calTime += spent
}

// stamp reads the clock and, on traced runs, the exact allocation count.
// runtime/metrics publishes allocation counts only when a span is refilled
// or a GC flushes the per-P caches, which charges them to whichever layer
// happens to run then; ReadMemStats flushes first, so each span gets its
// own allocations.
func (p *probe) stamp() stamp {
	t := int64(threadTime() - p.base)
	s := stamp{ns: t - p.hidden}
	if p.traced {
		runtime.ReadMemStats(&p.mem)
		s.objs = p.mem.Mallocs
		p.hidden += int64(threadTime()-p.base) - t
	}
	return s
}

// start marks the beginning of the measured phase (the first window).
func (p *probe) start() {
	p.windowStart = p.stamp()
	p.calibrate()
}

func (p *probe) stepStart() {
	p.tickStart = p.stamp()
	p.stepped = true
	p.calibrate()
}

func (p *probe) stepDone() {
	p.stepEnd = p.stamp()
	p.spans.step.add(p.tickStart, p.stepEnd)
}

// beforeHook runs first among the refresh hooks. On a tick that stepped the
// fleet, the gap since the step is World.Refresh; the window's first tick
// neither steps nor refreshes, so the hook marks where that tick starts.
func (p *probe) beforeHook() {
	now := p.stamp()
	if p.stepped {
		p.spans.refresh.add(p.stepEnd, now)
		p.stepped = false
	} else {
		p.tickStart = now
		p.calibrate()
	}
	p.hookStart = now
}

// afterHook runs last among the refresh hooks: the protocol's own hooks
// (UDT rate adaptation) ran in between.
func (p *probe) afterHook() { p.spans.hook.add(p.hookStart, p.stamp()) }

// frameStart records that a frame begins with the current tick.
func (p *probe) frameStart() { p.frameStarts = append(p.frameStarts, p.tickStart) }

// windowDone closes the window's frames. Each frame runs from the start of
// its first tick to the start of the next frame; the window's last frame
// ends at the window boundary, so it also carries the window's result
// reduction, which no public call separates from the frame's last events.
func (p *probe) windowDone() {
	end := p.stamp()
	for i, s := range p.frameStarts {
		next := end
		if i+1 < len(p.frameStarts) {
			next = p.frameStarts[i+1]
		}
		p.spans.frame.add(s, next)
		p.frameMs = append(p.frameMs, float64(next.ns-s.ns)/1e6)
		p.frameNs = append(p.frameNs, [2]int64{s.ns, next.ns})
	}
	p.calibrate()
	p.spans.window.add(p.windowStart, end)
	p.windowStart = end
	p.frameStarts = p.frameStarts[:0]
}

// timedFleet is the mobility substrate with Step timed.
type timedFleet struct {
	traffic.Fleet
	p *probe
}

func (f *timedFleet) Step(dt float64) {
	f.p.stepStart()
	f.Fleet.Step(dt)
	f.p.stepDone()
}

// timedProtocol is the protocol under test with RunFrame timed.
type timedProtocol struct {
	sim.Protocol
	p *probe
}

func (t *timedProtocol) RunFrame(frame int) {
	t.p.frameStart()
	s := t.p.stamp()
	t.Protocol.RunFrame(frame)
	t.p.spans.runFrame.add(s, t.p.stamp())
}

// instrument wraps a protocol factory: one refresh hook registered before
// the protocol's own and one after bracket its rate adaptation, and the
// protocol it builds has RunFrame timed.
func (p *probe) instrument(factory sim.Factory) sim.Factory {
	return func(env *sim.Env) sim.Protocol {
		env.OnRefresh(p.beforeHook)
		proto := factory(env)
		env.OnRefresh(p.afterHook)
		return &timedProtocol{Protocol: proto, p: p}
	}
}

// windowMonitor takes window boundaries from sim.Monitor.
type windowMonitor struct{ p *probe }

func (m windowMonitor) WindowDone(_, _, _ int, _ []obs.Row, _ []obs.SeriesPoint) {
	m.p.windowDone()
}

func (m windowMonitor) TrialDone(int) {}
