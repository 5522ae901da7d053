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
	"container/heap"
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

// event is a scheduled callback. seq breaks ties between events at the same
// timestamp so execution order is deterministic and FIFO.
type event struct {
	at   Time
	seq  uint64
	fn   func()
	name string
	// canceled marks an event removed via its Handle; it is skipped when
	// popped rather than being deleted from the heap eagerly.
	canceled bool
	index    int
}

// eventQueue is a min-heap ordered by (at, seq).
type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }

func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}

func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}

func (q *eventQueue) Push(x any) {
	ev, ok := x.(*event)
	if !ok {
		panic(fmt.Sprintf("des: pushed non-event %T", x))
	}
	ev.index = len(*q)
	*q = append(*q, ev)
}

func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*q = old[:n-1]
	return ev
}

// Handle identifies a scheduled event and allows canceling it.
type Handle struct {
	ev *event
}

// Cancel prevents the event from running. Canceling an already-executed or
// already-canceled event is a no-op.
func (h Handle) Cancel() {
	if h.ev != nil {
		h.ev.canceled = true
	}
}

// Simulator is the discrete-event engine. The zero value is ready to use.
// Simulator is not safe for concurrent use; the simulation is single-threaded
// by design (determinism over parallelism).
type Simulator struct {
	queue    eventQueue
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

// Pending returns the number of events currently scheduled (including
// canceled events not yet reaped).
func (s *Simulator) Pending() int { return len(s.queue) }

// ScheduleAt runs fn at the given absolute time. Scheduling in the past
// (before Now) is a programming error and panics. The name is used only for
// diagnostics.
func (s *Simulator) ScheduleAt(at Time, name string, fn func()) Handle {
	if at < s.now {
		panic(fmt.Sprintf("des: schedule %q at %v before now %v", name, at, s.now))
	}
	ev := &event{at: at, seq: s.seq, fn: fn, name: name}
	s.seq++
	heap.Push(&s.queue, ev)
	return Handle{ev: ev}
}

// ScheduleAfter runs fn d after the current time.
func (s *Simulator) ScheduleAfter(d time.Duration, name string, fn func()) Handle {
	return s.ScheduleAt(s.now.Add(d), name, fn)
}

// Every schedules fn to run at start, start+period, start+2·period, …
// until (and excluding) end, or forever if end is Infinity. fn receives the
// tick index starting at 0. The returned Handle cancels the *next* pending
// occurrence and all subsequent ones.
func (s *Simulator) Every(start Time, period time.Duration, end Time, name string, fn func(tick int)) Handle {
	if period <= 0 {
		panic(fmt.Sprintf("des: non-positive period %v for %q", period, name))
	}
	// controller owns the live handle so cancellation survives rescheduling.
	ctl := &event{}
	var schedule func(at Time, tick int)
	schedule = func(at Time, tick int) {
		if at >= end {
			return
		}
		h := s.ScheduleAt(at, name, func() {
			if ctl.canceled {
				return
			}
			fn(tick)
			schedule(at.Add(period), tick+1)
		})
		// Propagate cancellation to the pending occurrence.
		if ctl.canceled {
			h.Cancel()
		}
	}
	schedule(start, 0)
	return Handle{ev: ctl}
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
	for len(s.queue) > 0 {
		next := s.queue[0]
		if next.at >= until {
			break
		}
		popped, ok := heap.Pop(&s.queue).(*event)
		if !ok {
			panic("des: heap corrupted")
		}
		if popped.canceled {
			continue
		}
		s.now = popped.at
		popped.fn()
		s.executed++
	}
	if until != Infinity && until > s.now {
		s.now = until
	}
}

// RunAll executes every scheduled event.
func (s *Simulator) RunAll() { s.Run(Infinity) }

// Step executes exactly one event if any is pending and returns whether an
// event ran.
func (s *Simulator) Step() bool {
	for len(s.queue) > 0 {
		popped, ok := heap.Pop(&s.queue).(*event)
		if !ok {
			panic("des: heap corrupted")
		}
		if popped.canceled {
			continue
		}
		s.now = popped.at
		popped.fn()
		s.executed++
		return true
	}
	return false
}
