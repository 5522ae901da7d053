// Package trace records structured protocol events — discoveries, matches,
// break-ups, stream starts and rate changes — so simulation runs can be
// debugged and analyzed offline. Protocols emit events through a Recorder;
// sinks keep them in memory (ring buffer, for tests and summaries) or write
// them as JSON Lines (for external tooling).
//
// Tracing is optional and zero-cost when disabled: a nil *Recorder is a
// valid no-op receiver for every Emit call.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"mmv2v/internal/des"
)

// Kind classifies an event.
type Kind int

// Event kinds. Start at 1 so the zero value is invalid.
const (
	KindDiscovery Kind = iota + 1
	KindNegotiation
	KindMatch
	KindBreakup
	KindStreamStart
	KindStreamStop
	KindRate
	KindCompletion
	KindAssociation
)

var kindNames = map[Kind]string{
	KindDiscovery:   "discovery",
	KindNegotiation: "negotiation",
	KindMatch:       "match",
	KindBreakup:     "breakup",
	KindStreamStart: "stream_start",
	KindStreamStop:  "stream_stop",
	KindRate:        "rate",
	KindCompletion:  "completion",
	KindAssociation: "association",
}

func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// MarshalJSON encodes the kind as its name.
func (k Kind) MarshalJSON() ([]byte, error) { return json.Marshal(k.String()) }

// Event is one protocol occurrence.
type Event struct {
	// Trial is the pooled-run trial index the event belongs to. Emitters
	// leave it 0; the trial runner stamps it while replaying per-trial
	// captures into the caller's recorder (single runs are trial 0).
	Trial int `json:"trial"`
	// At is the simulation timestamp.
	At des.Time `json:"at_ns"`
	// Frame is the protocol frame index.
	Frame int `json:"frame"`
	// Kind classifies the event.
	Kind Kind `json:"kind"`
	// A and B are the vehicles involved (B may be -1 for solo events).
	A int `json:"a"`
	B int `json:"b"`
	// Value carries a kind-specific quantity (SNR dB for discoveries,
	// bits/s for rates, bits for completions).
	Value float64 `json:"value,omitempty"`
}

// Sink consumes events.
type Sink interface {
	Record(Event)
}

// Recorder fans events out to sinks. The zero value and the nil pointer
// are both valid no-op recorders. The sink list is fixed at New, so Emit
// needs no lock of its own; each sink guards its own state.
type Recorder struct {
	sinks []Sink
}

// New builds a recorder over the given sinks.
func New(sinks ...Sink) *Recorder { return &Recorder{sinks: sinks} }

// Emit records an event; nil recorders drop it.
func (r *Recorder) Emit(e Event) {
	if r == nil {
		return
	}
	for _, s := range r.sinks {
		s.Record(e)
	}
}

// Ring is a fixed-capacity in-memory sink keeping the most recent events.
type Ring struct {
	mu    sync.Mutex
	buf   []Event
	next  int
	count int
}

// NewRing builds a ring buffer sink; capacity must be positive.
func NewRing(capacity int) *Ring {
	if capacity <= 0 {
		panic(fmt.Sprintf("trace: non-positive ring capacity %d", capacity))
	}
	return &Ring{buf: make([]Event, capacity)}
}

// Record implements Sink.
func (r *Ring) Record(e Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.buf[r.next] = e
	r.next = (r.next + 1) % len(r.buf)
	if r.count < len(r.buf) {
		r.count++
	}
}

// Len returns the number of retained events.
func (r *Ring) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.count
}

// Events returns the retained events oldest-first.
func (r *Ring) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, 0, r.count)
	start := r.next - r.count
	if start < 0 {
		start += len(r.buf)
	}
	for i := 0; i < r.count; i++ {
		out = append(out, r.buf[(start+i)%len(r.buf)])
	}
	return out
}

// CountByKind tallies retained events per kind.
func (r *Ring) CountByKind() map[Kind]int {
	out := make(map[Kind]int)
	for _, e := range r.Events() {
		out[e.Kind]++
	}
	return out
}

// Capture is an unbounded in-memory sink retaining every event in emission
// order. The trial runner attaches one private Capture per trial and replays
// them in trial order after the pool drains, which is what lets traced runs
// use every worker without reordering the merged stream.
type Capture struct {
	mu     sync.Mutex
	events []Event
}

// NewCapture builds an empty capture sink.
func NewCapture() *Capture { return &Capture{} }

// Record implements Sink.
func (c *Capture) Record(e Event) {
	c.mu.Lock()
	c.events = append(c.events, e)
	c.mu.Unlock()
}

// Len returns the number of captured events.
func (c *Capture) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.events)
}

// Events returns a copy of the captured events in emission order.
func (c *Capture) Events() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Event(nil), c.events...)
}

// JSONL streams events as JSON Lines to a writer. Errors are sticky: the
// first write error stops output and is reported by Err.
type JSONL struct {
	mu  sync.Mutex
	enc *json.Encoder
	err error
}

// NewJSONL builds a JSON Lines sink.
func NewJSONL(w io.Writer) *JSONL { return &JSONL{enc: json.NewEncoder(w)} }

// Record implements Sink.
func (j *JSONL) Record(e Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return
	}
	j.err = j.enc.Encode(e)
}

// Err returns the first write error, if any.
func (j *JSONL) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}
