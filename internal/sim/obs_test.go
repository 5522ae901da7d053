package sim_test

import (
	"bytes"
	"reflect"
	"testing"

	"mmv2v/internal/baseline"
	"mmv2v/internal/core"
	"mmv2v/internal/obs"
	"mmv2v/internal/sim"
	"mmv2v/internal/trace"
)

// TestRunTrialsTraceIdenticalAcrossWorkers pins the parallel-trace contract:
// traced pooled runs use every worker, and the merged event stream —
// trial-stamped, trial-major — is identical for any worker count.
func TestRunTrialsTraceIdenticalAcrossWorkers(t *testing.T) {
	const trials = 4
	run := func(workers int) []trace.Event {
		cfg := sim.DefaultConfig(10, 21)
		cfg.WindowSec = 0.1
		cfg.Workers = workers
		cfg.Trace = true
		res, err := sim.RunTrials(cfg, greedyFactory(), trials)
		if err != nil {
			t.Fatal(err)
		}
		return res.Trace
	}
	one := run(1)
	eight := run(8)
	if len(one) == 0 {
		t.Fatal("traced run recorded no events")
	}
	if !reflect.DeepEqual(one, eight) {
		t.Fatalf("trace streams differ: %d events with 1 worker, %d with 8", len(one), len(eight))
	}
	// The merge stamps trial indices and orders trial-major.
	seenLast := -1
	for _, e := range one {
		if e.Trial < seenLast {
			t.Fatalf("trial order regressed: %d after %d", e.Trial, seenLast)
		}
		seenLast = e.Trial
	}
	if seenLast == 0 {
		t.Fatal("all events stamped trial 0; expected events from later trials")
	}
}

// TestMergeTrialsStampsTraceBySlot checks that the merge concatenates the
// trials' events in slot order, stamps each with its slot, and takes none
// from a failed (nil) slot.
func TestMergeTrialsStampsTraceBySlot(t *testing.T) {
	ev := func(trial, frame int) trace.Event {
		return trace.Event{Trial: trial, Frame: frame, Kind: trace.KindMatch}
	}
	pooled := sim.MergeTrials([]*sim.Result{
		{Trace: []trace.Event{ev(0, 0), ev(0, 1)}},
		nil,
		{Trace: []trace.Event{ev(0, 2)}},
	})
	if want := []trace.Event{ev(0, 0), ev(0, 1), ev(2, 2)}; !reflect.DeepEqual(pooled.Trace, want) {
		t.Errorf("pooled trace = %+v, want %+v", pooled.Trace, want)
	}
}

// TestRunTrialsStatsIdenticalAcrossWorkers pins the stats-merge contract:
// the pooled registry's export is byte-identical for any worker count.
func TestRunTrialsStatsIdenticalAcrossWorkers(t *testing.T) {
	const trials = 4
	run := func(workers int) []byte {
		cfg := sim.DefaultConfig(10, 22)
		cfg.WindowSec = 0.1
		cfg.Workers = workers
		cfg.Stats = true
		res, err := sim.RunTrials(cfg, greedyFactory(), trials)
		if err != nil {
			t.Fatal(err)
		}
		if res.Obs == nil {
			t.Fatal("Stats run returned nil Obs")
		}
		var buf bytes.Buffer
		if err := obs.WriteJSONL(&buf, res.Obs.Rows("test")); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	one := run(1)
	eight := run(8)
	if len(one) == 0 {
		t.Fatal("stats run exported no rows")
	}
	if !bytes.Equal(one, eight) {
		t.Fatalf("stats exports differ:\nworkers=1:\n%s\nworkers=8:\n%s", one, eight)
	}
}

// TestStatsOffKeepsObsNil pins the zero-cost default: without Config.Stats
// the result carries no registry and layers hold nil handles.
func TestStatsOffKeepsObsNil(t *testing.T) {
	cfg := sim.DefaultConfig(5, 23)
	cfg.WindowSec = 0.1
	res, err := sim.Run(cfg, greedyFactory())
	if err != nil {
		t.Fatal(err)
	}
	if res.Obs != nil {
		t.Fatal("Obs should be nil when Stats is off")
	}
}

// TestStatsOnOffSameWindows pins the world's two completion schedules
// against each other end to end. With statistics on, every refresh
// completes the whole link table; with them off, entries are completed as
// the protocols read them. mmV2V, ROP and 802.11ad must measure identical
// windows either way.
func TestStatsOnOffSameWindows(t *testing.T) {
	factories := []sim.Factory{
		core.Factory(core.DefaultParams()),
		baseline.ROPFactory(baseline.DefaultROPParams()),
		baseline.ADFactory(baseline.DefaultADParams()),
	}
	for _, factory := range factories {
		cfg := sim.DefaultConfig(15, 31)
		cfg.WindowSec = 0.1
		cfg.Windows = 2
		off, err := sim.Run(cfg, factory)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Stats = true
		on, err := sim.Run(cfg, factory)
		if err != nil {
			t.Fatal(err)
		}
		if on.Obs == nil {
			t.Fatalf("%s: statistics on recorded no registry", on.Protocol)
		}
		if !reflect.DeepEqual(off.Windows, on.Windows) {
			t.Errorf("%s: windows differ with statistics on:\noff %+v\non  %+v",
				off.Protocol, off.Windows, on.Windows)
		}
	}
}

// TestStatsRecordLayerActivity checks a Stats run actually populates the
// world- and data-plane metrics the greedy test protocol exercises.
func TestStatsRecordLayerActivity(t *testing.T) {
	cfg := sim.DefaultConfig(10, 24)
	cfg.WindowSec = 0.1
	cfg.Stats = true
	res, err := sim.Run(cfg, greedyFactory())
	if err != nil {
		t.Fatal(err)
	}
	if res.Obs == nil {
		t.Fatal("Stats run returned nil Obs")
	}
	if n := res.Obs.Counter("world.refreshes").Value(); n == 0 {
		t.Error("world.refreshes = 0, want > 0")
	}
	if n := res.Obs.Counter("medium.stream_starts").Value(); n == 0 {
		t.Error("medium.stream_starts = 0, want > 0")
	}
}
