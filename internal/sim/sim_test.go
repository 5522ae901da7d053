package sim_test

import (
	"math"
	"testing"
	"time"

	"mmv2v/internal/metrics"
	"mmv2v/internal/phy"
	"mmv2v/internal/sim"
	"mmv2v/internal/traffic"
	"mmv2v/internal/udt"
	"mmv2v/internal/units"
	"mmv2v/internal/world"
	"mmv2v/internal/xrand"
)

// nullProtocol does nothing; frames pass with no transmissions.
type nullProtocol struct {
	frames []int
}

func (n *nullProtocol) Name() string           { return "null" }
func (n *nullProtocol) RunFrame(frame int)     { n.frames = append(n.frames, frame) }
func nullFactory(np *nullProtocol) sim.Factory { return func(*sim.Env) sim.Protocol { return np } }

// greedyAll is a minimal protocol that pairs every LOS neighbor pair it can
// (greedy by index) and streams for the full frame — used to exercise the
// runner end to end without the full mmV2V stack.
type greedyAll struct {
	env     *sim.Env
	session *udt.Session
	cb      phy.Codebook
}

func (g *greedyAll) Name() string { return "greedy-test" }

func (g *greedyAll) RunFrame(frame int) {
	if g.session != nil {
		g.session.Stop()
		g.session = nil
	}
	used := make(map[int]bool)
	var pairs []udt.Pair
	for i := 0; i < g.env.N(); i++ {
		if used[i] {
			continue
		}
		for _, j := range g.env.World.Neighbors(i) {
			if used[j] || g.env.PairDone(i, j) {
				continue
			}
			beamA, beamB := udt.RefineBeams(g.env, i, j, g.cb, -1, -1)
			pairs = append(pairs, udt.Pair{A: i, B: j, BeamA: beamA, BeamB: beamB})
			used[i] = true
			used[j] = true
			break
		}
	}
	if len(pairs) > 0 {
		g.session = udt.Start(g.env, pairs, frame)
	}
}

func greedyFactory() sim.Factory {
	return func(env *sim.Env) sim.Protocol {
		g := &greedyAll{env: env, cb: phy.DefaultCodebook()}
		env.OnRefresh(func() {
			if g.session != nil {
				g.session.OnRefresh()
			}
		})
		return g
	}
}

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*sim.Config)
	}{
		{"bad traffic", func(c *sim.Config) { c.Traffic.Length = -1 }},
		{"bad world", func(c *sim.Config) { c.World.CommRange = 0 }},
		{"bad timing", func(c *sim.Config) { c.Timing.Frame = 0 }},
		{"negative demand", func(c *sim.Config) { c.DemandBits = -1 }},
		{"NaN demand", func(c *sim.Config) { c.DemandBits = math.NaN() }},
		{"zero window", func(c *sim.Config) { c.WindowSec = 0 }},
		{"infinite window", func(c *sim.Config) { c.WindowSec = math.Inf(1) }},
		{"zero windows", func(c *sim.Config) { c.Windows = 0 }},
		{"negative warmup", func(c *sim.Config) { c.WarmupSec = -1 }},
		{"infinite warmup", func(c *sim.Config) { c.WarmupSec = math.Inf(1) }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := sim.DefaultConfig(10, 1)
			tt.mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Error("want error")
			}
		})
	}
	if err := sim.DefaultConfig(10, 1).Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
}

func TestRunInvokesFramesInOrder(t *testing.T) {
	cfg := sim.DefaultConfig(5, 1)
	cfg.WindowSec = 0.2 // 10 frames
	cfg.WarmupSec = 0
	np := &nullProtocol{}
	res, err := sim.Run(cfg, nullFactory(np))
	if err != nil {
		t.Fatal(err)
	}
	if len(np.frames) != 10 {
		t.Fatalf("frames = %v", np.frames)
	}
	for i, f := range np.frames {
		if f != i {
			t.Errorf("frame %d reported as %d", i, f)
		}
	}
	if res.Protocol != "null" {
		t.Errorf("protocol = %q", res.Protocol)
	}
}

func TestRunMultipleWindowsContinueFrameNumbers(t *testing.T) {
	cfg := sim.DefaultConfig(5, 1)
	cfg.WindowSec = 0.1 // 5 frames per window
	cfg.Windows = 3
	cfg.WarmupSec = 0
	np := &nullProtocol{}
	res, err := sim.Run(cfg, nullFactory(np))
	if err != nil {
		t.Fatal(err)
	}
	if len(np.frames) != 15 {
		t.Fatalf("frames = %d, want 15", len(np.frames))
	}
	if np.frames[14] != 14 {
		t.Errorf("last frame = %d, want 14", np.frames[14])
	}
	if len(res.Windows) != 3 {
		t.Errorf("windows = %d", len(res.Windows))
	}
}

func TestNullProtocolScoresZero(t *testing.T) {
	cfg := sim.DefaultConfig(10, 2)
	cfg.WindowSec = 0.1
	res, err := sim.Run(cfg, nullFactory(&nullProtocol{}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.MeanOCR != 0 || res.Summary.MeanATP != 0 {
		t.Errorf("null protocol scored %+v", res.Summary)
	}
	if res.AvgNeighbors <= 0 {
		t.Errorf("avg neighbors = %v", res.AvgNeighbors)
	}
}

func TestGreedyProtocolMakesProgress(t *testing.T) {
	cfg := sim.DefaultConfig(10, 3)
	cfg.WindowSec = 0.2
	res, err := sim.Run(cfg, greedyFactory())
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.MeanATP <= 0 {
		t.Error("greedy test protocol made no progress")
	}
}

func TestLedgerResetBetweenWindows(t *testing.T) {
	cfg := sim.DefaultConfig(10, 4)
	cfg.WindowSec = 0.2
	cfg.Windows = 2
	res, err := sim.Run(cfg, greedyFactory())
	if err != nil {
		t.Fatal(err)
	}
	// Each window's metrics must be from a fresh ledger: with identical
	// traffic continuing, window 2 cannot inherit window 1's completions
	// (progress would then be ≈ double).
	w0 := res.Windows[0].Summary.MeanATP
	w1 := res.Windows[1].Summary.MeanATP
	if w1 > 2.5*w0+0.2 {
		t.Errorf("window ATPs implausible: %v then %v (ledger leak?)", w0, w1)
	}
}

func TestRunTrialsDistinctSeeds(t *testing.T) {
	cfg := sim.DefaultConfig(10, 5)
	cfg.WindowSec = 0.1
	res, err := sim.RunTrials(cfg, greedyFactory(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Windows) != 3 {
		t.Fatalf("windows = %d", len(res.Windows))
	}
	// Trials use different seeds, so traffic differs: window summaries
	// should not all be byte-identical.
	a, b, c := res.Windows[0].Summary, res.Windows[1].Summary, res.Windows[2].Summary
	if a == b && b == c {
		t.Error("all trials produced identical summaries; seeds not varied?")
	}
}

func TestRunTrialsInvalidCount(t *testing.T) {
	cfg := sim.DefaultConfig(5, 1)
	if _, err := sim.RunTrials(cfg, nullFactory(&nullProtocol{}), 0); err == nil {
		t.Error("zero trials should fail")
	}
}

func TestEnvPairDoneThreshold(t *testing.T) {
	cfg := sim.DefaultConfig(5, 6)
	env, err := sim.NewEnv(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if env.PairDone(0, 1) {
		t.Error("pair done before any exchange")
	}
	env.Ledger.Add(0, 1, cfg.DemandBits)
	if !env.PairDone(0, 1) {
		t.Error("pair not done after full demand")
	}
}

func TestEnvRefreshHooks(t *testing.T) {
	cfg := sim.DefaultConfig(5, 7)
	cfg.WindowSec = 0.1 // 5 frames = 20 ticks
	cfg.WarmupSec = 0
	hookCalls := 0
	_, err := sim.Run(cfg, func(env *sim.Env) sim.Protocol {
		env.OnRefresh(func() { hookCalls++ })
		return &nullProtocol{}
	})
	if err != nil {
		t.Fatal(err)
	}
	if hookCalls != 20 {
		t.Errorf("hook calls = %d, want 20 (one per 5 ms tick)", hookCalls)
	}
}

func TestWindowTooSmallForFrame(t *testing.T) {
	cfg := sim.DefaultConfig(5, 1)
	cfg.WindowSec = 0.01 // below one 20 ms frame
	if _, err := sim.Run(cfg, nullFactory(&nullProtocol{})); err == nil {
		t.Error("want error for window smaller than a frame")
	}
}

// TestRunRejectsTimingThatDoesNotTileAFrame: a refresh cadence longer than
// the frame would divide by zero in DriveFrames, and one that does not
// divide it would start frames before the previous frame's work ends. Run
// returns the validation error instead of running either.
func TestRunRejectsTimingThatDoesNotTileAFrame(t *testing.T) {
	for _, update := range []time.Duration{30 * time.Millisecond, 3 * time.Millisecond} {
		cfg := sim.DefaultConfig(5, 1)
		cfg.WarmupSec = 0
		cfg.Timing.PositionUpdate = update
		if _, err := sim.Run(cfg, nullFactory(&nullProtocol{})); err == nil {
			t.Errorf("position update %v: want error", update)
		}
	}
}

// TestNewEnvRejectsNonFiniteWorldRanges covers the world ranges no ordered
// comparison rejects: a NaN range made set-up double a NaN cell size
// forever, and an infinite interference range built a world without links.
// NewEnv must return the validation error instead; the deadline turns a
// hang into a failure.
func TestNewEnvRejectsNonFiniteWorldRanges(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1)} {
		for _, field := range []string{"comm", "interference"} {
			cfg := sim.DefaultConfig(15, 1)
			cfg.WarmupSec = 0
			if field == "comm" {
				cfg.World.CommRange = units.Meter(v)
			} else {
				cfg.World.InterferenceRange = units.Meter(v)
			}
			done := make(chan error, 1)
			go func() {
				_, err := sim.NewEnv(cfg)
				done <- err
			}()
			select {
			case err := <-done:
				if err == nil {
					t.Errorf("%s range %v: NewEnv returned no error", field, v)
				}
			case <-time.After(30 * time.Second):
				t.Fatalf("%s range %v: NewEnv did not return", field, v)
			}
		}
	}
}

func TestNewEnvWithWorldCustom(t *testing.T) {
	tc := traffic.DefaultConfig(0)
	road, err := traffic.New(tc, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	road.Add(&traffic.Vehicle{Dir: traffic.Eastbound, Lane: 1, S: 0, V: 10, DesiredV: 10})
	road.Add(&traffic.Vehicle{Dir: traffic.Eastbound, Lane: 1, S: 30, V: 10, DesiredV: 10})
	w, err := world.New(world.DefaultConfig(), road)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.DefaultConfig(0, 9)
	env, err := sim.NewEnvWithWorld(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if env.N() != 2 {
		t.Errorf("N = %d", env.N())
	}
	res, err := sim.RunOnEnv(cfg, env, greedyFactory())
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.MeanATP <= 0 {
		t.Error("custom world made no progress")
	}
}

func TestDriveFramesRespectsFirstFrame(t *testing.T) {
	cfg := sim.DefaultConfig(5, 10)
	env, err := sim.NewEnv(cfg)
	if err != nil {
		t.Fatal(err)
	}
	np := &nullProtocol{}
	env.DriveFrames(np, 7, 3)
	if len(np.frames) != 3 || np.frames[0] != 7 || np.frames[2] != 9 {
		t.Errorf("frames = %v", np.frames)
	}
	if env.Sim.Now() != 0 { // 3 frames elapsed
		if env.Sim.Now().Sub(0) != 3*cfg.Timing.Frame {
			t.Errorf("clock at %v", env.Sim.Now())
		}
	}
}

// metricsSanity double-checks VehicleStats wiring through the runner.
func TestStatsComeFromWindowStartNeighbors(t *testing.T) {
	cfg := sim.DefaultConfig(10, 11)
	cfg.WindowSec = 0.1
	res, err := sim.Run(cfg, nullFactory(&nullProtocol{}))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Stats {
		if s.Neighbors <= 0 {
			t.Errorf("vehicle %d has %d neighbors in stats", s.Vehicle, s.Neighbors)
		}
	}
	var _ []metrics.VehicleStats = res.Stats
	_ = time.Second
}
