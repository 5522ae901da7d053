// Package des implements the discrete-event simulation kernel the rest of
// the system runs on: a virtual clock, a binary-heap event queue with
// deterministic tie-breaking, and helpers for periodic processes.
//
// The paper evaluates mmV2V on VENUS, a closed-source vehicular network
// simulator; this package is the event-scheduling substrate of our
// replacement. Determinism matters: events scheduled for the same instant
// fire in scheduling order (FIFO by sequence number), so a simulation is a
// pure function of its configuration and seed.
package des

import (
	"fmt"
	"math"
	"time"
)

// Time is a simulation timestamp in nanoseconds since the start of the run.
type Time int64

// Infinity is a sentinel timestamp later than any schedulable event.
const Infinity Time = math.MaxInt64

// At constructs a Time from a time.Duration offset from the simulation start.
func At(d time.Duration) Time { return Time(d.Nanoseconds()) }

// Add returns t shifted by d.
func (t Time) Add(d time.Duration) Time { return t + Time(d.Nanoseconds()) }

// Sub returns the duration between t and earlier time u.
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

// Seconds returns t expressed in seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(time.Second) }

// String formats the timestamp as a duration from the simulation start.
func (t Time) String() string {
	if t == Infinity {
		return "+inf"
	}
	return time.Duration(t).String()
}

// event is a scheduled callback, held by value in the queue. seq breaks
// ties between events at the same timestamp so execution order is
// deterministic and FIFO.
type event struct {
	at  Time
	seq uint64
	fn  func()
}

// before reports whether e runs before f. (at, seq) is a total order, so
// any correct heap pops the same sequence.
func (e *event) before(f *event) bool {
	return e.at < f.at || (e.at == f.at && e.seq < f.seq)
}

// Simulator is the discrete-event engine. The zero value is ready to use.
// Simulator is not safe for concurrent use; the simulation is single-threaded
// by design (determinism over parallelism).
type Simulator struct {
	// queue is a binary min-heap on (at, seq).
	queue    []event
	now      Time
	seq      uint64
	executed uint64
	running  bool
}

// New returns an empty simulator at time zero.
func New() *Simulator { return &Simulator{} }

// Now returns the current simulation time.
func (s *Simulator) Now() Time { return s.now }

// Executed returns the number of events run so far (for diagnostics).
func (s *Simulator) Executed() uint64 { return s.executed }

// ScheduleAt runs fn at the given absolute time. Scheduling in the past
// (before Now) is a programming error and panics. The name is used only for
// diagnostics.
func (s *Simulator) ScheduleAt(at Time, name string, fn func()) {
	if at < s.now {
		panic(fmt.Sprintf("des: schedule %q at %v before now %v", name, at, s.now))
	}
	ev := event{at: at, seq: s.seq, fn: fn}
	s.seq++
	q := append(s.queue, ev)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !ev.before(&q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = ev
	s.queue = q
}

// pop removes and returns the earliest event. It zeroes the slot it
// vacates, so the collector can free closures that have already run.
func (s *Simulator) pop() event {
	q := s.queue
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = event{}
	q = q[:n]
	if n > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if c+1 < n && q[c+1].before(&q[c]) {
				c++
			}
			if !q[c].before(&last) {
				break
			}
			q[i] = q[c]
			i = c
		}
		q[i] = last
	}
	s.queue = q
	return top
}

// Every schedules fn to run at start, start+period, start+2·period, …
// until (and excluding) end, or forever if end is Infinity. fn receives the
// tick index starting at 0. One closure serves every tick: it schedules the
// next tick after fn returns.
func (s *Simulator) Every(start Time, period time.Duration, end Time, name string, fn func(tick int)) {
	if period <= 0 {
		panic(fmt.Sprintf("des: non-positive period %v for %q", period, name))
	}
	at, tick := start, 0
	var next func()
	next = func() {
		fn(tick)
		at, tick = at.Add(period), tick+1
		if at < end {
			s.ScheduleAt(at, name, next)
		}
	}
	if start < end {
		s.ScheduleAt(start, name, next)
	}
}

// Run executes events in timestamp order until the queue is empty or the
// next event is at or after until. The clock is left at the time of the last
// executed event, or advanced to until if given a finite bound.
func (s *Simulator) Run(until Time) {
	if s.running {
		panic("des: reentrant Run")
	}
	s.running = true
	defer func() { s.running = false }()
	for len(s.queue) > 0 && s.queue[0].at < until {
		ev := s.pop()
		s.now = ev.at
		ev.fn()
		s.executed++
	}
	if until != Infinity && until > s.now {
		s.now = until
	}
}

// RunAll executes every scheduled event.
func (s *Simulator) RunAll() { s.Run(Infinity) }
