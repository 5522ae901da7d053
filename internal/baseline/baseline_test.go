package baseline

import (
	"testing"

	"mmv2v/internal/des"
	"mmv2v/internal/medium"
	"mmv2v/internal/metrics"
	"mmv2v/internal/phy"
	"mmv2v/internal/sim"
	"mmv2v/internal/traffic"
	"mmv2v/internal/world"
	"mmv2v/internal/xrand"
)

// buildEnv assembles an environment over hand-placed eastbound vehicles.
func buildEnv(t *testing.T, demandBits float64, lanes []int, positions []float64) *sim.Env {
	t.Helper()
	cfg := traffic.DefaultConfig(0)
	cfg.LaneChangeCheckEvery = 0
	road, err := traffic.New(cfg, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	for k := range positions {
		road.Add(&traffic.Vehicle{Dir: traffic.Eastbound, Lane: lanes[k], S: positions[k], V: 14, DesiredV: 14, Quantile: 0.5})
	}
	w, err := world.New(world.DefaultConfig(), road)
	if err != nil {
		t.Fatal(err)
	}
	s := des.New()
	return &sim.Env{
		Sim:        s,
		World:      w,
		Medium:     medium.New(s, w),
		Ledger:     metrics.NewLedger(w.NumVehicles()),
		Rand:       xrand.New(7),
		Timing:     phy.DefaultTiming(),
		DemandBits: demandBits,
	}
}

func TestROPParamsValidate(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*ROPParams)
	}{
		{"p zero", func(p *ROPParams) { p.RoleP = 0 }},
		{"zero discovery", func(p *ROPParams) { p.DiscoverySlots = 0 }},
		{"zero match", func(p *ROPParams) { p.MatchRounds = 0 }},
		{"zero staleness", func(p *ROPParams) { p.StalenessFrames = 0 }},
		{"bad codebook", func(p *ROPParams) { p.Codebook.TxWidth = 0 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultROPParams()
			tt.mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Error("want error")
			}
		})
	}
	if err := DefaultROPParams().Validate(); err != nil {
		t.Errorf("default ROP params invalid: %v", err)
	}
}

func TestADParamsValidate(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*ADParams)
	}{
		{"p zero", func(p *ADParams) { p.PCPProb = 0 }},
		{"p one", func(p *ADParams) { p.PCPProb = 1 }},
		{"zero abft", func(p *ADParams) { p.ABFTSlots = 0 }},
		{"zero sp", func(p *ADParams) { p.SPDuration = 0 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultADParams()
			tt.mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Error("want error")
			}
		})
	}
	if err := DefaultADParams().Validate(); err != nil {
		t.Errorf("default AD params invalid: %v", err)
	}
}

func TestROPBudgetMatchesMmV2V(t *testing.T) {
	p := DefaultROPParams()
	if p.DiscoverySlots != 144 {
		t.Errorf("DiscoverySlots = %d, want K·2·S = 144", p.DiscoverySlots)
	}
	if p.MatchRounds != 1 {
		t.Errorf("MatchRounds = %d, want the paper's single-round matching", p.MatchRounds)
	}
}

func TestROPEventuallyDiscoversAndExchanges(t *testing.T) {
	// Random discovery is slow but over enough frames a close pair must
	// meet (mutual fresh discovery + mutual pick) and move data.
	env := buildEnv(t, 200e6, []int{1, 1}, []float64{0, 30})
	r := NewROP(env, DefaultROPParams())
	env.DriveFrames(r, 0, 25)
	if got := env.Ledger.Exchanged(0, 1); got <= 0 {
		t.Errorf("ROP exchanged %v bits over 25 frames", got)
	}
}

func TestROPMutualChoiceOnly(t *testing.T) {
	// With exactly two vehicles, any match must be 0↔1 and data flows only
	// between them.
	env := buildEnv(t, 200e6, []int{1, 1}, []float64{0, 30})
	r := NewROP(env, DefaultROPParams())
	env.DriveFrames(r, 0, 5)
	if r.MatchedCount()%2 != 0 {
		t.Errorf("odd matched count %d", r.MatchedCount())
	}
}

func TestROPDeterminism(t *testing.T) {
	run := func() float64 {
		env := buildEnv(t, 200e6, []int{0, 1, 2, 1}, []float64{0, 20, 40, 70})
		r := NewROP(env, DefaultROPParams())
		env.DriveFrames(r, 0, 5)
		return env.Ledger.TotalBits()
	}
	if a, b := run(), run(); a != b {
		t.Errorf("non-deterministic ROP: %v vs %v", a, b)
	}
}

func TestADFormsPBSSAndExchanges(t *testing.T) {
	// Several vehicles in range: over a handful of frames some PCP election
	// must succeed, members associate, and data flows.
	env := buildEnv(t, 200e6, []int{0, 1, 2, 1, 0}, []float64{0, 15, 30, 45, 60})
	a := NewAD(env, DefaultADParams())
	env.DriveFrames(a, 0, 10)
	if env.Ledger.TotalBits() <= 0 {
		t.Error("802.11ad moved no data in 10 frames")
	}
}

func TestADMembersJoinOnlyHeardPCPs(t *testing.T) {
	env := buildEnv(t, 200e6, []int{0, 1, 2, 1}, []float64{0, 15, 30, 45})
	a := NewAD(env, DefaultADParams())
	env.DriveFrames(a, 0, 3)
	// All recorded members must reference a PCP of the last frame.
	for p, ms := range a.members {
		if len(ms) == 0 {
			continue
		}
		if !a.isPCP[p] {
			t.Errorf("PBSS led by non-PCP %d", p)
		}
		for _, m := range ms {
			if a.isPCP[m] {
				t.Errorf("PCP %d associated as member of %d", m, p)
			}
			if a.joined[m] != p {
				t.Errorf("member %d recorded in PBSS %d but joined %d", m, p, a.joined[m])
			}
		}
	}
}

func TestADDeterminism(t *testing.T) {
	run := func() float64 {
		env := buildEnv(t, 200e6, []int{0, 1, 2, 1}, []float64{0, 20, 40, 70})
		a := NewAD(env, DefaultADParams())
		env.DriveFrames(a, 0, 5)
		return env.Ledger.TotalBits()
	}
	if x, y := run(), run(); x != y {
		t.Errorf("non-deterministic AD: %v vs %v", x, y)
	}
}

func TestADIsolatedVehicleIdles(t *testing.T) {
	env := buildEnv(t, 200e6, []int{1, 1, 1}, []float64{0, 30, 500})
	a := NewAD(env, DefaultADParams())
	env.DriveFrames(a, 0, 5)
	if got := env.Ledger.Exchanged(0, 2) + env.Ledger.Exchanged(1, 2); got != 0 {
		t.Errorf("isolated vehicle exchanged %v bits", got)
	}
}

func TestROPIsolatedVehicleIdles(t *testing.T) {
	env := buildEnv(t, 200e6, []int{1, 1, 1}, []float64{0, 30, 500})
	r := NewROP(env, DefaultROPParams())
	env.DriveFrames(r, 0, 5)
	if got := env.Ledger.Exchanged(0, 2) + env.Ledger.Exchanged(1, 2); got != 0 {
		t.Errorf("isolated vehicle exchanged %v bits", got)
	}
}
