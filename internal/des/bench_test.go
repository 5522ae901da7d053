package des

import (
	"testing"
	"time"
)

func BenchmarkScheduleAndRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := New()
		for k := 0; k < 1000; k++ {
			s.ScheduleAt(At(time.Duration(k)*time.Microsecond), "e", func() {})
		}
		s.RunAll()
	}
}

func BenchmarkNestedScheduling(b *testing.B) {
	// The simulator's hot pattern: each event schedules the next.
	for i := 0; i < b.N; i++ {
		s := New()
		n := 0
		var next func()
		next = func() {
			n++
			if n < 1000 {
				s.ScheduleAt(s.Now().Add(time.Microsecond), "chain", next)
			}
		}
		s.ScheduleAt(s.Now().Add(time.Microsecond), "chain", next)
		s.RunAll()
	}
}

func BenchmarkEvery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := New()
		s.Every(0, time.Millisecond, At(time.Second), "tick", func(int) {})
		s.RunAll()
	}
}
