package sim_test

import (
	"math"
	"reflect"
	"testing"

	"mmv2v/internal/baseline"
	"mmv2v/internal/core"
	"mmv2v/internal/faults"
	"mmv2v/internal/sim"
)

// TestFaultsDisabledIsExactNoOp pins the acceptance criterion that a
// zero-intensity fault config changes nothing: the simulator skips injector
// construction entirely, so the Result is deeply identical to a run with no
// fault config at all.
func TestFaultsDisabledIsExactNoOp(t *testing.T) {
	cfg := sim.DefaultConfig(10, 5)
	cfg.WindowSec = 0.1
	clean, err := sim.Run(cfg, greedyFactory())
	if err != nil {
		t.Fatal(err)
	}
	zero := faults.Config{}
	cfg.Faults = &zero
	withZero, err := sim.Run(cfg, greedyFactory())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(clean, withZero) {
		t.Error("zero fault config changed the result; must be an exact no-op")
	}
	scaled := faults.DefaultConfig().Scale(0)
	cfg.Faults = &scaled
	withScaled, err := sim.Run(cfg, greedyFactory())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(clean, withScaled) {
		t.Error("Scale(0) fault config changed the result; must be an exact no-op")
	}
}

// TestFaultedRunTrialsDeterministicAcrossWorkers extends the parallel-engine
// determinism contract to fault injection: every fault decision is a pure
// function of (seed, entity, time), so fault-injected pooled results are
// bit-identical for any worker count.
func TestFaultedRunTrialsDeterministicAcrossWorkers(t *testing.T) {
	cfg := sim.DefaultConfig(10, 5)
	cfg.WindowSec = 0.1
	profile := faults.DefaultConfig()
	cfg.Faults = &profile
	const trials = 4
	var results []*sim.Result
	for _, workers := range []int{1, 4, 8} {
		c := cfg
		c.Workers = workers
		res, err := sim.RunTrials(c, greedyFactory(), trials)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
	}
	for i := 1; i < len(results); i++ {
		if !reflect.DeepEqual(results[0], results[i]) {
			t.Errorf("faulted Workers=1 and Workers=%d results differ", []int{1, 4, 8}[i])
		}
	}
}

// TestFaultsDegradeCompletion is the graceful-degradation sanity check: the
// full-intensity profile must hurt (or at least never help) the completion
// metrics relative to a clean channel, and the injector must actually fire.
func TestFaultsDegradeCompletion(t *testing.T) {
	cfg := sim.DefaultConfig(15, 3)
	cfg.WindowSec = 0.2
	clean, err := sim.Run(cfg, greedyFactory())
	if err != nil {
		t.Fatal(err)
	}
	profile := faults.DefaultConfig()
	cfg.Faults = &profile
	faulted, err := sim.Run(cfg, greedyFactory())
	if err != nil {
		t.Fatal(err)
	}
	if faulted.Summary.MeanATP > clean.Summary.MeanATP {
		t.Errorf("faults improved ATP: clean %v, faulted %v",
			clean.Summary.MeanATP, faulted.Summary.MeanATP)
	}
	if lat := clean.MeanLatencySec(); !math.IsNaN(lat) && lat < 0 {
		t.Errorf("negative mean latency %v", lat)
	}
}

// TestFaultedWindowsPinned pins by their digests the windows of
// `mmv2v-sim -density 12 -seed 3 -seconds 0.3 -windows 3 -faults 1` for
// mmV2V, ROP and 802.11ad. Every window after the first opens on the table
// of the refresh before its boundary, so a link fault keyed on the clock at
// a link's first read, or on a count of refreshes, instead of on the tick
// of the link's refresh, keeps every first window: the clock moves
// 802.11ad's second window, and the count the later windows of mmV2V and
// 802.11ad.
func TestFaultedWindowsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("three 0.9 s faulted runs run without -short")
	}
	want := map[string][]uint64{
		"mmV2V":    {0xc6f877438dde8f83, 0x220534408b8ae317, 0xcb62105427056f83},
		"ROP":      {0xd72972e184141166, 0x1198fed094bb8983, 0x65d8bf40eb518eae},
		"802.11ad": {0xd5b3e036035ad12c, 0x5d6752e888dbde2a, 0x9b5a195e93977b7f},
	}
	factories := []sim.Factory{
		core.Factory(core.DefaultParams()),
		baseline.ROPFactory(baseline.DefaultROPParams()),
		baseline.ADFactory(baseline.DefaultADParams()),
	}
	for _, factory := range factories {
		cfg := sim.DefaultConfig(12, 3)
		cfg.WindowSec = 0.3
		cfg.Windows = 3
		profile := faults.DefaultConfig().Scale(1)
		cfg.Faults = &profile
		res, err := sim.RunTrials(cfg, factory, 1)
		if err != nil {
			t.Fatal(err)
		}
		var got []uint64
		for _, w := range res.Windows {
			got = append(got, sim.WindowDigest(0, w))
		}
		if !reflect.DeepEqual(got, want[res.Protocol]) {
			t.Errorf("%s: window digests %#x, pinned %#x", res.Protocol, got, want[res.Protocol])
		}
	}
}
