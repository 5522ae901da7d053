// Package live is the HTTP introspection surface of a running simulation
// (DESIGN.md §9): /healthz, /metrics (current pooled Row snapshot, JSONL),
// /series (windowed deltas so far, JSONL), /progress (structured
// obs.ProgressState + ETA) and net/http/pprof.
//
// It is the repository's only sanctioned network boundary, and it keeps the
// determinism contract by construction: the simulation side publishes
// immutable snapshots via an atomic pointer swap, and network goroutines
// only ever read the latest published snapshot — they never touch live
// simulation state, never feed anything back, and never block the window
// loop (the "network threads only enqueue/dequeue" discipline). Publishing
// draws from no random stream and the server's presence changes no
// simulation output; wall-clock time is read only here, for ETA, where it
// can never reach simulation state. Two GETs of /metrics or /series between
// publishes return identical bytes, because both render purely from the
// same snapshot.
package live

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"sync/atomic"
	"time"

	"mmv2v/internal/obs"
)

// Snapshot is one published view of the run: pooled cumulative rows, pooled
// series windows and progress. Snapshots are immutable after publication —
// handlers share them freely.
type Snapshot struct {
	Rows     []obs.Row
	Series   []obs.SeriesPoint
	Progress obs.ProgressState
}

// Server aggregates per-trial telemetry into published snapshots and serves
// them. It implements sim.Monitor, so wiring is one field assignment:
// cfg.Monitor = srv. All methods are safe for concurrent use — monitor
// callbacks arrive from worker goroutines.
type Server struct {
	start time.Time
	snap  atomic.Pointer[Snapshot]

	// mu guards the publisher side: per-trial accumulators and progress.
	// Handlers never take it — they load the atomic snapshot. The
	// accumulators are indexed by trial: trial indices are dense from 0
	// within a run.
	mu          sync.Mutex
	prog        obs.ProgressState
	trialRows   [][]obs.Row
	trialPoints [][]obs.SeriesPoint

	ln  net.Listener
	srv *http.Server
}

// NewServer returns a server with an empty published snapshot. Start brings
// up the listener; until then the server is a plain Monitor sink.
func NewServer() *Server {
	s := &Server{start: time.Now()}
	s.snap.Store(&Snapshot{})
	return s
}

// Start listens on addr (":0" picks a free port) and serves in the
// background. It returns the bound address, e.g. "127.0.0.1:38217".
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("live: listen %s: %w", addr, err)
	}
	s.ln = ln
	s.srv = &http.Server{Handler: s.Handler()}
	go func() {
		// Serve returns ErrServerClosed on Close; anything else means the
		// listener died, which only kills observation, never the run.
		_ = s.srv.Serve(ln)
	}()
	return ln.Addr().String(), nil
}

// Addr returns the bound address, or "" before Start.
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close shuts the listener down. Safe to call before Start (no-op).
func (s *Server) Close() error {
	if s.srv == nil {
		return nil
	}
	return s.srv.Close()
}

// SetTotals declares the run's full extent for progress fractions and ETA.
// Levels left 0 render as unknown.
func (s *Server) SetTotals(cells, trials, windows int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.prog.CellsTotal = cells
	s.prog.TrialsTotal = trials
	s.prog.WindowsTotal = windows
	s.publishLocked()
}

// StartRun labels the next unit of work and drops per-trial accumulators —
// required between protocol runs of one process, whose trial indices start
// over at 0.
func (s *Server) StartRun(label string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.prog.Label = label
	s.trialRows, s.trialPoints = nil, nil
	s.publishLocked()
}

// WindowDone implements sim.Monitor: it folds the trial's freshly-copied
// snapshots into the accumulators and republishes.
func (s *Server) WindowDone(trial, window, windows int, rows []obs.Row, points []obs.SeriesPoint) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.trialRows) <= trial {
		s.trialRows = append(s.trialRows, nil)
		s.trialPoints = append(s.trialPoints, nil)
	}
	s.trialRows[trial] = rows
	s.trialPoints[trial] = points
	s.prog.WindowsDone++
	s.publishLocked()
}

// TrialDone implements sim.Monitor.
func (s *Server) TrialDone(trial int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.prog.TrialsDone++
	s.publishLocked()
}

// CellDone advances the cell counter — experiment harnesses call it from
// their Progress hooks with the finished cell's label.
func (s *Server) CellDone(label string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.prog.CellsDone++
	s.prog.Label = label
	s.publishLocked()
}

// Publish replaces the published snapshot wholesale — the entry point for
// runs that are not trial-structured (the -drive loop). The caller hands
// over ownership of rows and points.
func (s *Server) Publish(rows []obs.Row, points []obs.SeriesPoint, prog obs.ProgressState) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.prog = prog
	s.snap.Store(&Snapshot{Rows: rows, Series: points, Progress: prog})
}

// publishLocked merges the per-trial accumulators slot-per-trial — ascending
// trial order, exactly like the end-of-run merge; trials with no window yet
// are nil and merge as nothing — and swaps in a fresh snapshot. Callers
// hold mu.
func (s *Server) publishLocked() {
	s.snap.Store(&Snapshot{
		Rows:     obs.MergeRows(s.trialRows),
		Series:   obs.MergePoints(s.trialPoints),
		Progress: s.prog,
	})
}

// Snapshot returns the latest published snapshot (never nil).
func (s *Server) Snapshot() *Snapshot { return s.snap.Load() }

// Handler returns the introspection mux — exposed so tests can drive it
// without a listener.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/series", s.handleSeries)
	mux.HandleFunc("/progress", s.handleProgress)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintln(w, `{"status":"ok"}`)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	// Write errors mean the client hung up; there is nowhere to report them.
	_ = obs.WriteJSONL(w, s.snap.Load().Rows)
}

func (s *Server) handleSeries(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	_ = obs.WriteSeriesJSONL(w, obs.SeriesRows(s.snap.Load().Series, ""))
}

// progressBody is the /progress response: the structured state plus wall
// clock derived estimates. ETA is omitted until some fraction is known.
type progressBody struct {
	obs.ProgressState
	Fraction   float64  `json:"fraction"`
	ElapsedSec float64  `json:"elapsed_sec"`
	EtaSec     *float64 `json:"eta_sec,omitempty"`
}

func (s *Server) handleProgress(w http.ResponseWriter, _ *http.Request) {
	prog := s.snap.Load().Progress
	body := progressBody{
		ProgressState: prog,
		Fraction:      prog.Fraction(),
		ElapsedSec:    time.Since(s.start).Seconds(),
	}
	if body.Fraction > 0 {
		eta := body.ElapsedSec * (1 - body.Fraction) / body.Fraction
		body.EtaSec = &eta
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(body)
}
