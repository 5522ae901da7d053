package mmv2v

import (
	"io"

	"mmv2v/internal/trace"
)

// Tracing: set ScenarioConfig.Trace to record structured protocol events
// (discoveries, matches, break-ups, stream starts, rate changes,
// completions, PBSS associations) into Result.Trace. Off (the default)
// costs nothing.

// TraceEvent is one recorded protocol occurrence.
type TraceEvent = trace.Event

// TraceKind classifies trace events.
type TraceKind = trace.Kind

// Trace event kinds.
const (
	TraceDiscovery   = trace.KindDiscovery
	TraceMatch       = trace.KindMatch
	TraceBreakup     = trace.KindBreakup
	TraceStreamStart = trace.KindStreamStart
	TraceRate        = trace.KindRate
	TraceCompletion  = trace.KindCompletion
	TraceAssociation = trace.KindAssociation
)

// WriteTraceJSONL writes events as JSON Lines, one object per event, and
// returns the first write error.
func WriteTraceJSONL(w io.Writer, events []TraceEvent) error { return trace.WriteJSONL(w, events) }
