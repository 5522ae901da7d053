package trace

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"
)

func ev(frame int, k Kind, a, b int) Event {
	return Event{Frame: frame, Kind: k, A: a, B: b}
}

func TestNilRecorderIsNoop(t *testing.T) {
	var r *Recorder
	r.Emit(ev(0, KindMatch, 1, 2)) // must not panic
}

func TestRecorderFansOut(t *testing.T) {
	a := NewRing(10)
	b := NewRing(10)
	r := New(a, b)
	r.Emit(ev(0, KindDiscovery, 1, 2))
	if a.Len() != 1 || b.Len() != 1 {
		t.Errorf("fan-out failed: %d, %d", a.Len(), b.Len())
	}
}

func TestRingKeepsMostRecent(t *testing.T) {
	r := NewRing(3)
	for i := 0; i < 5; i++ {
		r.Record(ev(i, KindRate, i, -1))
	}
	if r.Len() != 3 {
		t.Fatalf("Len = %d", r.Len())
	}
	got := r.Events()
	for i, e := range got {
		if e.Frame != i+2 {
			t.Errorf("event %d frame = %d, want %d", i, e.Frame, i+2)
		}
	}
}

func TestRingPartialFill(t *testing.T) {
	r := NewRing(10)
	r.Record(ev(0, KindMatch, 1, 2))
	r.Record(ev(1, KindBreakup, 1, 2))
	got := r.Events()
	if len(got) != 2 || got[0].Kind != KindMatch || got[1].Kind != KindBreakup {
		t.Errorf("events = %v", got)
	}
}

func TestRingCountByKind(t *testing.T) {
	r := NewRing(10)
	r.Record(ev(0, KindMatch, 1, 2))
	r.Record(ev(0, KindMatch, 3, 4))
	r.Record(ev(0, KindBreakup, 1, 2))
	c := r.CountByKind()
	if c[KindMatch] != 2 || c[KindBreakup] != 1 {
		t.Errorf("counts = %v", c)
	}
}

func TestRingZeroCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic")
		}
	}()
	NewRing(0)
}

func TestJSONLOutput(t *testing.T) {
	var buf bytes.Buffer
	j := NewJSONL(&buf)
	j.Record(Event{At: 1000, Frame: 2, Kind: KindDiscovery, A: 3, B: 4, Value: 21.5})
	if err := j.Err(); err != nil {
		t.Fatal(err)
	}
	line := strings.TrimSpace(buf.String())
	var decoded map[string]any
	if err := json.Unmarshal([]byte(line), &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded["kind"] != "discovery" {
		t.Errorf("kind = %v", decoded["kind"])
	}
	if decoded["a"] != float64(3) || decoded["value"] != 21.5 {
		t.Errorf("decoded = %v", decoded)
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

func TestJSONLStickyError(t *testing.T) {
	j := NewJSONL(failWriter{})
	j.Record(ev(0, KindMatch, 1, 2))
	if j.Err() == nil {
		t.Fatal("want error")
	}
	j.Record(ev(1, KindMatch, 1, 2)) // must not panic, stays failed
	if j.Err() == nil {
		t.Error("error not sticky")
	}
}

func TestKindString(t *testing.T) {
	if KindStreamStart.String() != "stream_start" {
		t.Errorf("String = %q", KindStreamStart)
	}
	if !strings.Contains(Kind(99).String(), "99") {
		t.Errorf("unknown kind = %q", Kind(99))
	}
}
