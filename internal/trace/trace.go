// Package trace records structured protocol events — discoveries, matches,
// break-ups, stream starts and rate changes — so simulation runs can be
// debugged and analyzed offline. Each trial emits into its own Log; the
// trial merge pools the logs in trial order like every other per-trial
// result, and WriteJSONL renders the pooled events for external tooling.
//
// Tracing is optional and zero-cost when disabled: a nil *Log is a valid
// no-op receiver for every Emit call.
package trace

import (
	"encoding/json"
	"fmt"
	"io"

	"mmv2v/internal/des"
)

// Kind classifies an event.
type Kind int

// Event kinds. Start at 1 so the zero value is invalid.
const (
	KindDiscovery Kind = iota + 1
	KindMatch
	KindBreakup
	KindStreamStart
	KindRate
	KindCompletion
	KindAssociation
)

var kindNames = map[Kind]string{
	KindDiscovery:   "discovery",
	KindMatch:       "match",
	KindBreakup:     "breakup",
	KindStreamStart: "stream_start",
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
	// leave it 0; the trial merge stamps it (single runs are trial 0).
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

// Log is one trial's events in emission order. It belongs to the trial's
// goroutine, so it needs no lock.
type Log []Event

// Emit appends an event; a nil log drops it.
func (l *Log) Emit(e Event) {
	if l == nil {
		return
	}
	*l = append(*l, e)
}

// WriteJSONL writes events as JSON Lines in slice order and returns the
// first write error.
func WriteJSONL(w io.Writer, events []Event) error {
	enc := json.NewEncoder(w)
	for _, e := range events {
		if err := enc.Encode(e); err != nil {
			return err
		}
	}
	return nil
}
