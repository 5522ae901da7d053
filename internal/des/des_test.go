package des

import (
	"container/heap"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestTimeConversions(t *testing.T) {
	tm := At(20 * time.Millisecond)
	if tm != Time(20_000_000) {
		t.Errorf("At(20ms) = %d", tm)
	}
	if got := tm.Add(5 * time.Millisecond); got != Time(25_000_000) {
		t.Errorf("Add = %d", got)
	}
	if got := tm.Sub(At(15 * time.Millisecond)); got != 5*time.Millisecond {
		t.Errorf("Sub = %v", got)
	}
	if got := At(time.Second).Seconds(); got != 1.0 {
		t.Errorf("Seconds = %v", got)
	}
	if Infinity.String() != "+inf" {
		t.Errorf("Infinity.String = %q", Infinity.String())
	}
}

func TestScheduleOrdering(t *testing.T) {
	s := New()
	var order []int
	s.ScheduleAt(At(30*time.Microsecond), "c", func() { order = append(order, 3) })
	s.ScheduleAt(At(10*time.Microsecond), "a", func() { order = append(order, 1) })
	s.ScheduleAt(At(20*time.Microsecond), "b", func() { order = append(order, 2) })
	s.RunAll()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v", order)
	}
	if s.Now() != At(30*time.Microsecond) {
		t.Errorf("Now = %v", s.Now())
	}
	if s.Executed() != 3 {
		t.Errorf("Executed = %d", s.Executed())
	}
}

func TestSameTimeFIFO(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.ScheduleAt(At(time.Millisecond), "tie", func() { order = append(order, i) })
	}
	s.RunAll()
	for i, v := range order {
		if v != i {
			t.Fatalf("tie-break not FIFO: %v", order)
		}
	}
}

func TestScheduleAfterNesting(t *testing.T) {
	s := New()
	var times []Time
	s.ScheduleAt(s.Now().Add(time.Millisecond), "outer", func() {
		times = append(times, s.Now())
		s.ScheduleAt(s.Now().Add(time.Millisecond), "inner", func() {
			times = append(times, s.Now())
		})
	})
	s.RunAll()
	if len(times) != 2 || times[0] != At(time.Millisecond) || times[1] != At(2*time.Millisecond) {
		t.Errorf("times = %v", times)
	}
}

func TestRunUntilStopsAndAdvancesClock(t *testing.T) {
	s := New()
	ran := 0
	s.ScheduleAt(At(time.Millisecond), "early", func() { ran++ })
	s.ScheduleAt(At(3*time.Millisecond), "late", func() { ran++ })
	s.Run(At(2 * time.Millisecond))
	if ran != 1 {
		t.Errorf("ran = %d, want 1", ran)
	}
	if s.Now() != At(2*time.Millisecond) {
		t.Errorf("Now = %v, want 2ms", s.Now())
	}
	s.RunAll()
	if ran != 2 {
		t.Errorf("ran = %d, want 2", ran)
	}
}

func TestEventAtBoundaryNotRun(t *testing.T) {
	s := New()
	ran := false
	s.ScheduleAt(At(time.Millisecond), "boundary", func() { ran = true })
	s.Run(At(time.Millisecond))
	if ran {
		t.Error("event at until-boundary should not run")
	}
}

func TestSchedulePastPanics(t *testing.T) {
	s := New()
	s.ScheduleAt(At(time.Millisecond), "x", func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past should panic")
			}
		}()
		s.ScheduleAt(0, "past", func() {})
	})
	s.RunAll()
}

func TestEvery(t *testing.T) {
	s := New()
	var ticks []int
	var at []Time
	s.Every(At(time.Millisecond), 5*time.Millisecond, At(20*time.Millisecond), "tick", func(tick int) {
		ticks = append(ticks, tick)
		at = append(at, s.Now())
	})
	s.RunAll()
	if len(ticks) != 4 {
		t.Fatalf("ticks = %v, want 4 entries", ticks)
	}
	for i, tk := range ticks {
		if tk != i {
			t.Errorf("tick %d = %d", i, tk)
		}
	}
	if at[3] != At(16*time.Millisecond) {
		t.Errorf("last tick at %v, want 16ms", at[3])
	}
}

func TestEveryZeroPeriodPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Every with zero period should panic")
		}
	}()
	New().Every(0, 0, Infinity, "bad", func(int) {})
}

func TestHeapPropertyRandomized(t *testing.T) {
	// Events scheduled in arbitrary order always execute in time order.
	f := func(offsets []uint32) bool {
		s := New()
		var fired []Time
		for _, off := range offsets {
			at := Time(off % 1_000_000)
			s.ScheduleAt(at, "r", func() { fired = append(fired, s.Now()) })
		}
		s.RunAll()
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(fired) == len(offsets)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestReentrantRunPanics(t *testing.T) {
	s := New()
	s.ScheduleAt(At(time.Millisecond), "x", func() {
		defer func() {
			if recover() == nil {
				t.Error("reentrant Run should panic")
			}
		}()
		s.RunAll()
	})
	s.RunAll()
}

// refEvent, refQueue and refSim are the container/heap queue the simulator
// used before events were held by value: one *refEvent per event, ordered
// by (at, seq), with Every built from one closure per tick. They are the
// reference the value heap is checked against.
type refEvent struct {
	at  Time
	seq uint64
	fn  func()
}

type refQueue []*refEvent

func (q refQueue) Len() int { return len(q) }

func (q refQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}

func (q refQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }

func (q *refQueue) Push(x any) { *q = append(*q, x.(*refEvent)) }

func (q *refQueue) Pop() any {
	old := *q
	ev := old[len(old)-1]
	*q = old[:len(old)-1]
	return ev
}

type refSim struct {
	queue refQueue
	now   Time
	seq   uint64
}

func (r *refSim) Now() Time { return r.now }

func (r *refSim) ScheduleAt(at Time, _ string, fn func()) {
	if at < r.now {
		panic("ref: schedule in the past")
	}
	heap.Push(&r.queue, &refEvent{at: at, seq: r.seq, fn: fn})
	r.seq++
}

func (r *refSim) Every(start Time, period time.Duration, end Time, name string, fn func(tick int)) {
	var schedule func(at Time, tick int)
	schedule = func(at Time, tick int) {
		if at >= end {
			return
		}
		r.ScheduleAt(at, name, func() {
			fn(tick)
			schedule(at.Add(period), tick+1)
		})
	}
	schedule(start, 0)
}

func (r *refSim) Run(until Time) {
	for len(r.queue) > 0 && r.queue[0].at < until {
		ev := heap.Pop(&r.queue).(*refEvent)
		r.now = ev.at
		ev.fn()
	}
	if until != Infinity && until > r.now {
		r.now = until
	}
}

// scheduler is the surface the differential test drives on both queues.
type scheduler interface {
	Now() Time
	ScheduleAt(at Time, name string, fn func())
	Every(start Time, period time.Duration, end Time, name string, fn func(tick int))
	Run(until Time)
}

// fired records one executed event: the event's identity and Now when it ran.
type fired struct {
	id, tick int
	at       Time
}

// randomSchedule drives sc through a schedule drawn from seed and returns
// the execution log. Timestamps sit on a coarse 1 µs grid so many events
// tie; running events schedule children at offsets including zero (at
// Now), Every ticks run alongside and spawn events of their own, and the
// run is split at a bound that more events are scheduled after.
func randomSchedule(seed int64, sc scheduler) []fired {
	rng := rand.New(rand.NewSource(seed))
	var log []fired
	ids := 0
	var spawn func(at Time, depth int)
	spawn = func(at Time, depth int) {
		id := ids
		ids++
		sc.ScheduleAt(at, "r", func() {
			log = append(log, fired{id: id, at: sc.Now()})
			if depth < 4 {
				for k := rng.Intn(3); k > 0; k-- {
					spawn(sc.Now().Add(time.Duration(rng.Intn(4))*time.Microsecond), depth+1)
				}
			}
		})
	}
	every := func() {
		id := ids
		ids++
		start := sc.Now().Add(time.Duration(rng.Intn(10)) * time.Microsecond)
		period := time.Duration(1+rng.Intn(4)) * time.Microsecond
		end := start.Add(time.Duration(rng.Intn(40)) * time.Microsecond)
		sc.Every(start, period, end, "tick", func(tick int) {
			log = append(log, fired{id: id, tick: tick, at: sc.Now()})
			if rng.Intn(3) == 0 {
				spawn(sc.Now(), 3)
			}
		})
	}
	for k := 0; k < 40; k++ {
		spawn(Time(rng.Intn(20))*Time(time.Microsecond), 0)
	}
	every()
	every()
	sc.Run(At(time.Duration(5+rng.Intn(20)) * time.Microsecond))
	for k := 0; k < 20; k++ {
		spawn(sc.Now().Add(time.Duration(rng.Intn(10))*time.Microsecond), 1)
	}
	every()
	sc.Run(Infinity)
	return log
}

// TestValueHeapMatchesReference pins the value heap against the
// container/heap queue it replaced: same execution order, same Now at
// every event, on random schedules with ties, nested scheduling (at Now
// too), Every ticks and a split run.
func TestValueHeapMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		s := New()
		got := randomSchedule(seed, s)
		want := randomSchedule(seed, &refSim{})
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d events ran, reference ran %d", seed, len(got), len(want))
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("seed %d: event %d is %+v, reference %+v", seed, k, got[k], want[k])
			}
		}
		if s.Executed() != uint64(len(got)) {
			t.Fatalf("seed %d: Executed = %d, log has %d", seed, s.Executed(), len(got))
		}
	}
}

// TestScheduleAndRunAllocFree pins the value queue: once the queue has
// grown to its working size, scheduling and running a prebuilt func()
// allocates nothing.
func TestScheduleAndRunAllocFree(t *testing.T) {
	s := New()
	fn := func() {}
	batch := func() {
		for k := 0; k < 64; k++ {
			s.ScheduleAt(s.Now().Add(time.Duration(k%8)*time.Microsecond), "e", fn)
		}
		s.RunAll()
	}
	batch()
	if allocs := testing.AllocsPerRun(100, batch); allocs != 0 {
		t.Errorf("ScheduleAt + Run allocates %v times per batch, want 0", allocs)
	}
}

// TestEveryAllocsIndependentOfTicks pins Every's single self-rescheduling
// closure: 1,000 ticks allocate exactly as often as 10.
func TestEveryAllocsIndependentOfTicks(t *testing.T) {
	allocs := func(ticks int) float64 {
		return testing.AllocsPerRun(20, func() {
			s := New()
			s.Every(0, time.Millisecond, At(time.Duration(ticks)*time.Millisecond), "tick", func(int) {})
			s.RunAll()
		})
	}
	if few, many := allocs(10), allocs(1000); few != many {
		t.Errorf("Every allocates %v times for 10 ticks but %v for 1000", few, many)
	}
}
