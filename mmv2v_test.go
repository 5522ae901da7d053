package mmv2v_test

import (
	"math"
	"testing"

	"mmv2v"
)

func TestFacadeRunMMV2V(t *testing.T) {
	cfg := mmv2v.DefaultScenario(10, 42)
	cfg.WindowSec = 0.2 // 10 frames: fast smoke
	res, err := mmv2v.Run(cfg, mmv2v.MMV2V(mmv2v.DefaultParams()))
	if err != nil {
		t.Fatal(err)
	}
	if res.Protocol != "mmV2V" {
		t.Errorf("protocol = %q", res.Protocol)
	}
	if len(res.Stats) == 0 {
		t.Error("no per-vehicle stats")
	}
	if res.Summary.MeanATP <= 0 {
		t.Errorf("ATP = %v, want progress in 200 ms", res.Summary.MeanATP)
	}
}

func TestFacadeBaselines(t *testing.T) {
	cfg := mmv2v.DefaultScenario(10, 42)
	cfg.WindowSec = 0.2
	for _, tc := range []struct {
		name string
		f    mmv2v.Factory
	}{
		{"ROP", mmv2v.ROP(mmv2v.DefaultROPParams())},
		{"802.11ad", mmv2v.AD(mmv2v.DefaultADParams())},
		{"oracle", mmv2v.Oracle(mmv2v.DefaultParams())},
	} {
		res, err := mmv2v.Run(cfg, tc.f)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.Protocol != tc.name {
			t.Errorf("protocol = %q, want %q", res.Protocol, tc.name)
		}
	}
}

func TestFacadeRunTrialsPoolsStats(t *testing.T) {
	cfg := mmv2v.DefaultScenario(10, 7)
	cfg.WindowSec = 0.1
	res, err := mmv2v.RunTrials(cfg, mmv2v.MMV2V(mmv2v.DefaultParams()), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Windows) != 2 {
		t.Errorf("windows = %d, want one per trial", len(res.Windows))
	}
}

func TestFacadeRunCustomPlatoon(t *testing.T) {
	cfg := mmv2v.DefaultScenario(0, 11)
	cfg.WindowSec = 0.2
	cfg.WarmupSec = 0
	specs := []mmv2v.VehicleSpec{
		{Dir: mmv2v.Eastbound, Lane: 1, PositionM: 0, SpeedMS: 15},
		{Dir: mmv2v.Eastbound, Lane: 2, PositionM: 25, SpeedMS: 15},
		{Dir: mmv2v.Eastbound, Lane: 1, PositionM: 50, SpeedMS: 15},
		{Dir: mmv2v.Westbound, Lane: 0, PositionM: 930, SpeedMS: 14},
	}
	res, err := mmv2v.RunCustom(cfg, specs, mmv2v.MMV2V(mmv2v.DefaultParams()))
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.MeanATP <= 0 {
		t.Errorf("custom platoon made no progress: %+v", res.Summary)
	}
}

// TestFacadeRunCustomValidation pins that RunCustom rejects every invalid
// scenario setting and vehicle spec with an error before simulating, where
// the unmodified scenario runs.
func TestFacadeRunCustomValidation(t *testing.T) {
	run := func(config func(*mmv2v.ScenarioConfig), vehicle func(*mmv2v.VehicleSpec), none bool) error {
		cfg := mmv2v.DefaultScenario(0, 1)
		cfg.WindowSec = 0.02
		cfg.WarmupSec = 0
		if config != nil {
			config(&cfg)
		}
		specs := []mmv2v.VehicleSpec{
			{Dir: mmv2v.Eastbound, Lane: 1, PositionM: 0, SpeedMS: 15},
			{Dir: mmv2v.Westbound, Lane: 0, PositionM: 30, SpeedMS: 15},
		}
		if vehicle != nil {
			vehicle(&specs[1])
		}
		if none {
			specs = nil
		}
		_, err := mmv2v.RunCustom(cfg, specs, mmv2v.MMV2V(mmv2v.DefaultParams()))
		return err
	}
	if err := run(nil, nil, false); err != nil {
		t.Fatalf("valid custom scenario: %v", err)
	}
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name    string
		config  func(*mmv2v.ScenarioConfig)
		vehicle func(*mmv2v.VehicleSpec)
		none    bool
	}{
		{name: "no vehicles", none: true},
		{name: "lane", vehicle: func(v *mmv2v.VehicleSpec) { v.Lane = 9 }},
		{name: "warmup +Inf", config: func(c *mmv2v.ScenarioConfig) { c.WarmupSec = inf }},
		{name: "warmup NaN", config: func(c *mmv2v.ScenarioConfig) { c.WarmupSec = nan }},
		{name: "demand NaN", config: func(c *mmv2v.ScenarioConfig) { c.DemandBits = nan }},
		{name: "demand -1", config: func(c *mmv2v.ScenarioConfig) { c.DemandBits = -1 }},
		{name: "grid", config: func(c *mmv2v.ScenarioConfig) {
			*c = mmv2v.GridScenario(mmv2v.DefaultGridConfig(100), 1)
		}},
		{name: "position NaN", vehicle: func(v *mmv2v.VehicleSpec) { v.PositionM = nan }},
		{name: "position +Inf", vehicle: func(v *mmv2v.VehicleSpec) { v.PositionM = inf }},
		{name: "position -Inf", vehicle: func(v *mmv2v.VehicleSpec) { v.PositionM = -inf }},
		{name: "speed NaN", vehicle: func(v *mmv2v.VehicleSpec) { v.SpeedMS = nan }},
		{name: "speed +Inf", vehicle: func(v *mmv2v.VehicleSpec) { v.SpeedMS = inf }},
		{name: "speed -Inf", vehicle: func(v *mmv2v.VehicleSpec) { v.SpeedMS = -inf }},
		{name: "speed -1", vehicle: func(v *mmv2v.VehicleSpec) { v.SpeedMS = -1 }},
		{name: "direction 7", vehicle: func(v *mmv2v.VehicleSpec) { v.Dir = 7 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := run(tc.config, tc.vehicle, tc.none); err == nil {
				t.Error("want an error")
			}
		})
	}
}

func TestFacadeDeterministicAcrossRuns(t *testing.T) {
	run := func() float64 {
		cfg := mmv2v.DefaultScenario(10, 99)
		cfg.WindowSec = 0.2
		res, err := mmv2v.Run(cfg, mmv2v.MMV2V(mmv2v.DefaultParams()))
		if err != nil {
			t.Fatal(err)
		}
		return res.Summary.MeanATP
	}
	if a, b := run(), run(); a != b {
		t.Errorf("non-deterministic facade run: %v vs %v", a, b)
	}
}

func TestFacadeTracing(t *testing.T) {
	cfg := mmv2v.DefaultScenario(10, 42)
	cfg.WindowSec = 0.2
	cfg.Trace = true
	res, err := mmv2v.Run(cfg, mmv2v.MMV2V(mmv2v.DefaultParams()))
	if err != nil {
		t.Fatal(err)
	}
	counts := map[mmv2v.TraceKind]int{}
	for _, e := range res.Trace {
		counts[e.Kind]++
	}
	if counts[mmv2v.TraceDiscovery] == 0 {
		t.Error("no discovery events traced")
	}
	if counts[mmv2v.TraceMatch] == 0 {
		t.Error("no match events traced")
	}
	if counts[mmv2v.TraceStreamStart] == 0 {
		t.Error("no stream events traced")
	}
	// Events carry plausible vehicle ids.
	for _, e := range res.Trace {
		if e.A < 0 || e.A >= 120 {
			t.Fatalf("event with bad vehicle id: %+v", e)
		}
	}
}

func TestPlatoonSpec(t *testing.T) {
	specs := mmv2v.PlatoonSpec(mmv2v.Eastbound, 1, 5, 100, 25, 16)
	if len(specs) != 5 {
		t.Fatalf("len = %d", len(specs))
	}
	for i, s := range specs {
		if s.Lane != 1 || s.Dir != mmv2v.Eastbound || s.SpeedMS != 16 {
			t.Errorf("spec %d = %+v", i, s)
		}
		if want := 100 + float64(i)*25; s.PositionM != want {
			t.Errorf("spec %d position %v, want %v", i, s.PositionM, want)
		}
	}
}

func TestConvoySpecEscorts(t *testing.T) {
	specs := mmv2v.ConvoySpec(mmv2v.Eastbound, 1, 4, 0, 25, 16)
	if len(specs) != 4+3 {
		t.Fatalf("len = %d, want platoon 4 + escorts 3", len(specs))
	}
	lanes := map[int]int{}
	for _, s := range specs {
		lanes[s.Lane]++
	}
	if lanes[1] != 4 {
		t.Errorf("platoon lane count = %d", lanes[1])
	}
	if lanes[0]+lanes[2] != 3 {
		t.Errorf("escort count = %d", lanes[0]+lanes[2])
	}
}

func TestOncomingSpecDirectionFlipped(t *testing.T) {
	specs := mmv2v.OncomingSpec(mmv2v.Eastbound, 6, 800, 30, 17, 3)
	if len(specs) != 6 {
		t.Fatalf("len = %d", len(specs))
	}
	laneSeen := map[int]bool{}
	for _, s := range specs {
		if s.Dir != mmv2v.Westbound {
			t.Errorf("oncoming spec has wrong direction: %+v", s)
		}
		laneSeen[s.Lane] = true
	}
	if len(laneSeen) != 3 {
		t.Errorf("lanes used = %v, want all 3", laneSeen)
	}
}

func TestJamSpecRunsEndToEnd(t *testing.T) {
	cfg := mmv2v.DefaultScenario(0, 3)
	cfg.WarmupSec = 0
	cfg.WindowSec = 0.2
	specs := mmv2v.JamSpec(mmv2v.Eastbound, 3, 6, 0, 12, 2)
	res, err := mmv2v.RunCustom(cfg, specs, mmv2v.MMV2V(mmv2v.DefaultParams()))
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Vehicles == 0 {
		t.Error("jam produced no measurable vehicles")
	}
	if res.Summary.MeanATP <= 0 {
		t.Error("jam scenario moved no data")
	}
}

func TestConvoyBeatsBarePlatoonOnConnectivity(t *testing.T) {
	cfg := mmv2v.DefaultScenario(0, 5)
	cfg.WarmupSec = 0
	cfg.WindowSec = 0.2
	run := func(specs []mmv2v.VehicleSpec) float64 {
		res, err := mmv2v.RunCustom(cfg, specs, mmv2v.MMV2V(mmv2v.DefaultParams()))
		if err != nil {
			t.Fatal(err)
		}
		return res.AvgNeighbors
	}
	plain := run(mmv2v.PlatoonSpec(mmv2v.Eastbound, 1, 6, 0, 25, 16))
	convoy := run(mmv2v.ConvoySpec(mmv2v.Eastbound, 1, 6, 0, 25, 16))
	// Escorts add diagonal LOS links, so the convoy's average neighbor
	// count must exceed the bare platoon's.
	if convoy <= plain {
		t.Errorf("convoy avgN %v not above platoon %v", convoy, plain)
	}
}
