package core

import (
	"testing"

	"mmv2v/internal/obs"
)

// Targeted DCM behavior tests on hand-built scenarios.

func TestDCMBreakupFreesPreviousCandidate(t *testing.T) {
	// Chain: v0 –20m– v1 –25m– v2 –20m– v3 across lanes (all LOS).
	// SNR(0,1) and SNR(2,3) are the strong links; (1,2) weaker. Optimal
	// matching pairs (0,1) and (2,3). If v1 first matched v2 (their slot
	// comes up), the later (0,1) or (2,3) negotiations must break it up and
	// re-pair, so by frame end both strong pairs stream.
	env := buildEnv(t, 1e12, []int{0, 1, 2, 1}, []float64{0, 15, 30, 45})
	p := New(env, DefaultParams())
	env.DriveFrames(p, 0, 3)
	d01 := env.Ledger.Exchanged(0, 1)
	d23 := env.Ledger.Exchanged(2, 3)
	d12 := env.Ledger.Exchanged(1, 2)
	if d01 == 0 || d23 == 0 {
		t.Errorf("strong pairs starved: d01=%v d23=%v d12=%v", d01, d23, d12)
	}
	if d12 > d01 || d12 > d23 {
		t.Errorf("weak middle link dominated: d01=%v d23=%v d12=%v", d01, d23, d12)
	}
}

func TestDCMHashCollisionStillMatches(t *testing.T) {
	// Force C=1: every neighbor lands in the same bucket, so vehicles pick
	// random peers each cycle. With M=40 slots the pair must still match
	// eventually within the frame.
	env := buildEnv(t, 1e12, []int{1, 1}, []float64{0, 30})
	params := DefaultParams()
	params.C = 1
	p := New(env, params)
	env.DriveFrames(p, 0, 2)
	if got := env.Ledger.Exchanged(0, 1); got == 0 {
		t.Error("C=1 prevented any matching")
	}
}

func TestDiscoveredExpiresWhenStale(t *testing.T) {
	env := buildEnv(t, 1e12, []int{1, 1}, []float64{0, 30})
	params := DefaultParams()
	params.StalenessFrames = 2
	p := New(env, params)
	env.DriveFrames(p, 0, 2)
	if len(p.Discovered(0)) == 0 {
		t.Fatal("nothing discovered")
	}
	// Teleport vehicle 1 far away and continue the frame sequence: the
	// stale entry must age out of the working set.
	env.World.Road().Vehicles()[1].S = 600
	env.World.Refresh()
	env.DriveFrames(p, 2, 4)
	if d := p.Discovered(0); len(d) != 0 {
		t.Errorf("stale neighbor still in working set: %v", d)
	}
}

func TestEligibleExcludesDonePairs(t *testing.T) {
	env := buildEnv(t, 50e6, []int{1, 1, 2}, []float64{0, 30, 15})
	p := New(env, DefaultParams())
	env.DriveFrames(p, 0, 1)
	// Force-complete (0,1).
	if !env.PairDone(0, 1) {
		env.Ledger.Add(0, 1, 50e6)
	}
	if elig := env.Eligible(nil, 0, p.discovered[0], p.frame, p.cfg.StalenessFrames); contains(elig, 1) {
		t.Errorf("done pair still eligible: %v", elig)
	}
}

func contains(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

func TestNegotiationMessagesCounted(t *testing.T) {
	env := buildEnv(t, 1e12, []int{1, 1}, []float64{0, 30})
	env.Obs = obs.New()
	p := New(env, DefaultParams())
	env.DriveFrames(p, 0, 3)
	if env.Obs.Counter("dcm.neg_tx").Value() == 0 {
		t.Error("no negotiation messages sent")
	}
	if env.Obs.Counter("dcm.matches").Value() == 0 {
		t.Error("no matches recorded")
	}
}
