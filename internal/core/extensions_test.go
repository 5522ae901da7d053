package core

import (
	"testing"
	"time"

	"mmv2v/internal/sim"
	"mmv2v/internal/units"
)

// Tests for the documented extensions beyond the paper: fairness-biased
// matching and UDT beam tracking.

func TestFairnessBiasImprovesFairness(t *testing.T) {
	// A dense-ish generated scenario where the pure-SNR objective starves
	// weaker links: the biased objective must reduce DTP (fairness) without
	// collapsing ATP.
	run := func(bias units.DB) (atp, dtp float64) {
		cfg := sim.DefaultConfig(20, 5)
		cfg.WindowSec = 0.6
		params := DefaultParams()
		params.FairnessBiasDB = bias
		res, err := sim.Run(cfg, Factory(params))
		if err != nil {
			t.Fatal(err)
		}
		return res.Summary.MeanATP, res.Summary.MeanDTP
	}
	atp0, dtp0 := run(0)
	atp10, dtp10 := run(10)
	if dtp10 >= dtp0 {
		t.Errorf("fairness bias did not reduce DTP: %.3f → %.3f", dtp0, dtp10)
	}
	if atp10 < atp0*0.6 {
		t.Errorf("fairness bias collapsed ATP: %.3f → %.3f", atp0, atp10)
	}
}

func TestFairnessBiasQuality(t *testing.T) {
	env := buildEnv(t, 100e6, []int{1, 1}, []float64{0, 30})
	params := DefaultParams()
	params.FairnessBiasDB = 10
	p := New(env, params)
	// No progress yet: quality = SNR + full bias.
	if got, want := p.pairQuality(0, 1, 20, 25), units.DB(30); got != want {
		t.Errorf("quality = %v, want %v", got, want)
	}
	// Half done: half the bias.
	env.Ledger.Add(0, 1, 50e6)
	if got, want := p.pairQuality(0, 1, 20, 25), units.DB(25); got != want {
		t.Errorf("quality = %v, want %v", got, want)
	}
	// Zero bias reduces to the paper's min-SNR rule.
	p2 := New(env, DefaultParams())
	if got := p2.pairQuality(0, 1, 20, 25); got != 20 {
		t.Errorf("unbiased quality = %v, want 20", got)
	}
}

func TestBeamTrackingRunsAndKeepsThroughput(t *testing.T) {
	run := func(tracking bool) float64 {
		cfg := sim.DefaultConfig(12, 8)
		cfg.WindowSec = 0.4
		params := DefaultParams()
		params.BeamTracking = tracking
		res, err := sim.Run(cfg, Factory(params))
		if err != nil {
			t.Fatal(err)
		}
		return res.Summary.MeanATP
	}
	fixed := run(false)
	tracked := run(true)
	if tracked <= 0 {
		t.Fatal("tracking run made no progress")
	}
	// Tracking can only help or match within noise: it must not lose more
	// than a small margin (the beams it re-derives are at least as good as
	// the frame-start beams).
	if tracked < fixed*0.9 {
		t.Errorf("tracking hurt throughput: %.3f vs %.3f", tracked, fixed)
	}
}

func TestSyncJitterDegradesDiscovery(t *testing.T) {
	// Perfect sync vs a clock error comparable to the SSW duration: the
	// jittered run must identify fewer neighbors (sweep/sense windows no
	// longer line up), which is why the paper leans on GPS sync.
	discovered := func(jitterUS int) int {
		env := buildEnv(t, 1e12, []int{0, 1, 2, 1}, []float64{0, 20, 40, 70})
		params := DefaultParams()
		params.SyncJitter = time.Duration(jitterUS) * time.Microsecond
		p := New(env, params)
		env.DriveFrames(p, 0, 2)
		total := 0
		for i := 0; i < env.N(); i++ {
			total += len(p.Discovered(i))
		}
		return total
	}
	clean := discovered(0)
	dirty := discovered(12) // ±12 µs ≈ most of a 16 µs sector slot
	if clean == 0 {
		t.Fatal("no discoveries without jitter")
	}
	if dirty >= clean {
		t.Errorf("jitter did not hurt discovery: %d vs %d", dirty, clean)
	}
}

func TestSmallJitterHarmless(t *testing.T) {
	// The paper's point: 100 ns GPS error is negligible against the 1 µs
	// beam switch. Sub-microsecond jitter must not change throughput much.
	run := func(jitter time.Duration) float64 {
		env := buildEnv(t, 1e12, []int{0, 1, 2, 1}, []float64{0, 20, 40, 70})
		params := DefaultParams()
		params.SyncJitter = jitter
		p := New(env, params)
		env.DriveFrames(p, 0, 2)
		return env.Ledger.TotalBits()
	}
	clean := run(0)
	tiny := run(100 * time.Nanosecond)
	if clean == 0 {
		t.Fatal("no data without jitter")
	}
	if tiny < clean*0.8 {
		t.Errorf("100 ns jitter collapsed throughput: %v vs %v", tiny, clean)
	}
}

func TestExplicitRefinementProducesComparableThroughput(t *testing.T) {
	// The on-air cross search should converge to (nearly) the closed-form
	// beams when it succeeds, so end-to-end throughput must be in the same
	// ballpark — somewhat lower is fine (failures idle pairs), zero is not.
	run := func(explicit bool) float64 {
		env := buildEnv(t, 1e12, []int{0, 1, 2, 1}, []float64{0, 20, 40, 70})
		params := DefaultParams()
		params.ExplicitRefinement = explicit
		p := New(env, params)
		env.DriveFrames(p, 0, 3)
		return env.Ledger.TotalBits()
	}
	closed := run(false)
	explicit := run(true)
	if closed == 0 {
		t.Fatal("closed-form run moved no data")
	}
	if explicit < closed*0.5 {
		t.Errorf("explicit refinement collapsed throughput: %v vs %v", explicit, closed)
	}
	if explicit > closed*1.1 {
		t.Errorf("explicit refinement impossibly above closed form: %v vs %v", explicit, closed)
	}
}

func TestExplicitRefinementDenseScenario(t *testing.T) {
	// At scale with concurrent pairs probing simultaneously, the search
	// must still succeed for most pairs.
	cfg := sim.DefaultConfig(12, 8)
	cfg.WindowSec = 0.2
	params := DefaultParams()
	params.ExplicitRefinement = true
	res, err := sim.Run(cfg, Factory(params))
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.MeanATP <= 0.05 {
		t.Errorf("explicit refinement at scale: ATP = %v", res.Summary.MeanATP)
	}
}
