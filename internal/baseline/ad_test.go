package baseline

import (
	"testing"

	"mmv2v/internal/trace"
)

func TestADMembershipStickyBetweenReassociations(t *testing.T) {
	env := buildEnv(t, 1e12, []int{0, 1, 2, 1, 0}, []float64{0, 15, 30, 45, 60})
	params := DefaultADParams()
	params.ReassocEvery = 5
	a := NewAD(env, params)
	env.DriveFrames(a, 0, 3) // frames 0..2: one association round at frame 0
	joinedAt2 := append([]int(nil), a.joined...)
	env.DriveFrames(a, 3, 1) // frame 3, still inside the same association period
	for i, j := range a.joined {
		if j != joinedAt2[i] {
			t.Errorf("vehicle %d membership changed mid-period: %d → %d", i, joinedAt2[i], j)
		}
	}
}

func TestADSPRotationCoversPairs(t *testing.T) {
	// With one PBSS of three members and several SPs per frame, the
	// round-robin must visit different pairs rather than repeating one.
	env := buildEnv(t, 1e15, []int{0, 1, 2}, []float64{0, 20, 40})
	env.Trace = &trace.Log{}
	a := NewAD(env, DefaultADParams())
	env.DriveFrames(a, 0, 10)
	// Collect distinct streaming pairs from the trace.
	pairs := map[[2]int]bool{}
	for _, e := range *env.Trace {
		if e.Kind == trace.KindStreamStart {
			x, y := e.A, e.B
			if x > y {
				x, y = y, x
			}
			pairs[[2]int{x, y}] = true
		}
	}
	if len(pairs) < 2 {
		t.Errorf("SP rotation visited only %d distinct pairs", len(pairs))
	}
}

func TestADNoPCPsNoTraffic(t *testing.T) {
	// With PCP probability driven to (almost) zero via seed-independent
	// means we can't force "no PCP", but an isolated single vehicle can
	// never exchange regardless of election.
	env := buildEnv(t, 1e12, []int{1}, []float64{0})
	a := NewAD(env, DefaultADParams())
	env.DriveFrames(a, 0, 5)
	if env.Ledger.TotalBits() != 0 {
		t.Error("single vehicle exchanged data")
	}
}

func TestADReassocValidate(t *testing.T) {
	p := DefaultADParams()
	p.ReassocEvery = 0
	if err := p.Validate(); err == nil {
		t.Error("zero reassociation period should fail")
	}
}
