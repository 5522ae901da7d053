package trace

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

func ev(frame int, k Kind, a, b int) Event {
	return Event{Frame: frame, Kind: k, A: a, B: b}
}

func TestNilLogIsNoop(t *testing.T) {
	var l *Log
	l.Emit(ev(0, KindMatch, 1, 2)) // must not panic
}

func TestLogKeepsEmissionOrder(t *testing.T) {
	var l Log
	l.Emit(ev(0, KindMatch, 1, 2))
	l.Emit(ev(1, KindBreakup, 1, 2))
	if len(l) != 2 || l[0].Kind != KindMatch || l[1].Kind != KindBreakup {
		t.Errorf("events = %v", l)
	}
}

// TestJSONLOutput pins the encoding every -trace file uses: kinds by name,
// the fixed field order, and value omitted when zero.
func TestJSONLOutput(t *testing.T) {
	var buf bytes.Buffer
	events := []Event{
		{Trial: 1, At: 1000, Frame: 2, Kind: KindDiscovery, A: 3, B: 4, Value: 21.5},
		{At: 2000, Kind: KindAssociation, A: 5, B: -1},
	}
	if err := WriteJSONL(&buf, events); err != nil {
		t.Fatal(err)
	}
	want := `{"trial":1,"at_ns":1000,"frame":2,"kind":"discovery","a":3,"b":4,"value":21.5}` + "\n" +
		`{"trial":0,"at_ns":2000,"frame":0,"kind":"association","a":5,"b":-1}` + "\n"
	if buf.String() != want {
		t.Errorf("got:\n%swant:\n%s", buf.String(), want)
	}
}

// failWriter fails every write and counts the attempts.
type failWriter struct{ writes int }

func (w *failWriter) Write([]byte) (int, error) {
	w.writes++
	return 0, errors.New("disk full")
}

// TestJSONLStickyError checks that the first write error stops the output
// and is returned.
func TestJSONLStickyError(t *testing.T) {
	w := &failWriter{}
	if err := WriteJSONL(w, []Event{ev(0, KindMatch, 1, 2), ev(1, KindMatch, 1, 2)}); err == nil {
		t.Fatal("want error")
	}
	if w.writes != 1 {
		t.Errorf("WriteJSONL made %d writes, want 1: the first error must stop it", w.writes)
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
