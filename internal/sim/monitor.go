package sim

import "mmv2v/internal/obs"

// Monitor observes a run live. The window loop invokes it synchronously at
// deterministic points — after each completed measurement window and after
// each finished trial — handing over freshly-copied snapshots the monitor
// owns outright. A monitor therefore cannot perturb the simulation: it
// never sees mutable state, draws from no random stream, and its presence
// is excluded from the scenario fingerprint (Config.Monitor documents the
// concurrency contract under RunTrials).
//
// internal/obs/live.Server implements Monitor; the interface lives here so
// sim depends only on obs, never on the network layer.
type Monitor interface {
	// WindowDone fires after window `window` of `windows` completes in
	// trial `trial`. rows is the trial's cumulative statistics snapshot
	// and points are the trial's series windows so far (both nil when
	// Config.Stats is off).
	WindowDone(trial, window, windows int, rows []obs.Row, points []obs.SeriesPoint)
	// TrialDone fires after trial `trial` finishes all its windows.
	TrialDone(trial int)
}
