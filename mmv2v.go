// Package mmv2v is a from-scratch Go reproduction of "mmV2V: Combating
// One-hop Multicasting in Millimeter-wave Vehicular Networks" (ICDCS 2022):
// a fully distributed one-hop multicasting (OHM) scheme for 60 GHz
// vehicular networks built from three protocols — Synchronized Neighbor
// Discovery (SND), Distributed Consensual Matching (DCM) and Unicast Data
// Transmission (UDT) — evaluated against a Random OHM Protocol (ROP) and an
// IEEE 802.11ad PBSS baseline on a microscopic traffic + mmWave channel
// simulator.
//
// This package is the public facade: scenario configuration, protocol
// parameters, single runs and trial pools, custom hand-placed scenarios,
// and the paper's full experiment suite (Fig. 6–9, Theorem 2, ablations).
// The substrates live in internal/ packages (see DESIGN.md for the map).
//
// Quick start:
//
//	cfg := mmv2v.DefaultScenario(15, 42) // 15 vehicles/lane/km, seed 42
//	res, err := mmv2v.Run(cfg, mmv2v.MMV2V(mmv2v.DefaultParams()))
//	if err != nil { ... }
//	fmt.Printf("OCR=%.3f ATP=%.3f DTP=%.3f\n",
//	    res.Summary.MeanOCR, res.Summary.MeanATP, res.Summary.MeanDTP)
package mmv2v

import (
	"fmt"
	"math"

	"mmv2v/internal/baseline"
	"mmv2v/internal/core"
	"mmv2v/internal/faults"
	"mmv2v/internal/metrics"
	"mmv2v/internal/sim"
	"mmv2v/internal/traffic"
	"mmv2v/internal/world"
	"mmv2v/internal/xrand"
)

// ScenarioConfig describes a simulation scenario: road traffic, channel,
// PHY timing, HRIE task demand and measurement windows.
type ScenarioConfig = sim.Config

// Result is the outcome of a run: per-vehicle OCR/ATP/DTP stats, pooled
// summaries and diagnostics.
type Result = sim.Result

// WindowResult carries the metrics of one measurement window.
type WindowResult = sim.WindowResult

// Summary aggregates per-vehicle metrics.
type Summary = metrics.Summary

// VehicleStats holds one vehicle's OCR, ATP and DTP for a window.
type VehicleStats = metrics.VehicleStats

// Params are the mmV2V protocol parameters (P, K, M, C, beam codebook).
type Params = core.Params

// ROPParams configure the Random OHM Protocol baseline.
type ROPParams = baseline.ROPParams

// ADParams configure the IEEE 802.11ad PBSS baseline.
type ADParams = baseline.ADParams

// FaultConfig parameterizes the deterministic fault-injection layer
// (control-frame loss, blockage bursts, radio churn, slot jitter). Assign
// one to ScenarioConfig.Faults to stress a run; see internal/faults.
type FaultConfig = faults.Config

// TrialError describes one trial RunTrials lost to a panic or error: the
// scenario, trial index, derived seed, captured stack and a one-line repro
// command (TrialError.Repro). Collected in Result.Failures.
type TrialError = sim.TrialError

// Protocol is a runnable OHM scheme bound to a scenario environment.
type Protocol = sim.Protocol

// Factory constructs a protocol for an environment; obtain one from MMV2V,
// ROP, AD or Oracle.
type Factory = sim.Factory

// DefaultScenario returns the paper's scenario at a traffic density in
// vehicles/lane/km: a 1 km road with three 5 m lanes per direction, 40–80
// km/h speed bands, the 60 GHz channel of Sec. IV-A, 20 ms frames, and a
// 200 Mb/s-per-neighbor HRIE task measured over 1 s windows.
func DefaultScenario(densityVPL float64, seed uint64) ScenarioConfig {
	return sim.DefaultConfig(densityVPL, seed)
}

// GridConfig describes a Manhattan-grid road network for city-scale
// scenarios: Rows × Cols intersections, BlockM-long blocks, one directed
// segment per travel direction per edge. Assign one to
// ScenarioConfig.Grid (see GridScenario) to replace the straight road.
type GridConfig = traffic.GridConfig

// DefaultGridConfig returns an urban grid sized for the given vehicle
// count: 12×12 intersections, 500 m blocks, two lanes each way at 30–60 km/h.
func DefaultGridConfig(vehicles int) GridConfig { return traffic.DefaultGridConfig(vehicles) }

// GridScenario returns the paper's channel/task scenario moved onto a city
// road-graph network: same 60 GHz channel, frames and HRIE task, with the
// straight road replaced by the given grid.
func GridScenario(grid GridConfig, seed uint64) ScenarioConfig {
	cfg := sim.DefaultConfig(15, seed)
	cfg.Grid = &grid
	return cfg
}

// DefaultParams returns the paper's chosen mmV2V configuration:
// p=0.5, K=3, M=40, C=7, S=24 sectors, α=30°, β=12°, θ_min=3°.
func DefaultParams() Params { return core.DefaultParams() }

// DefaultROPParams returns the ROP baseline configuration.
func DefaultROPParams() ROPParams { return baseline.DefaultROPParams() }

// DefaultADParams returns the 802.11ad baseline configuration.
func DefaultADParams() ADParams { return baseline.DefaultADParams() }

// DefaultFaultConfig returns the standard intensity-1 stress profile; use
// FaultConfig.Scale to sweep intensity (Scale(0) disables everything).
func DefaultFaultConfig() FaultConfig { return faults.DefaultConfig() }

// MMV2V returns a factory for the paper's protocol.
func MMV2V(p Params) Factory { return core.Factory(p) }

// ROP returns a factory for the Random OHM Protocol baseline.
func ROP(p ROPParams) Factory { return baseline.ROPFactory(p) }

// AD returns a factory for the IEEE 802.11ad baseline.
func AD(p ADParams) Factory { return baseline.ADFactory(p) }

// Oracle returns a factory for the centralized greedy matching upper bound.
func Oracle(p Params) Factory { return core.OracleFactory(p) }

// Run executes one scenario under a protocol.
func Run(cfg ScenarioConfig, f Factory) (*Result, error) { return sim.Run(cfg, f) }

// RunTrials repeats a scenario with derived seeds and pools the per-vehicle
// stats, mirroring the paper's repeated-experiment methodology.
func RunTrials(cfg ScenarioConfig, f Factory, trials int) (*Result, error) {
	return sim.RunTrials(cfg, f, trials)
}

// Direction of travel for custom scenarios.
type Direction = traffic.Direction

// Travel directions.
const (
	Eastbound = traffic.Eastbound
	Westbound = traffic.Westbound
)

// VehicleSpec places one vehicle in a custom scenario.
type VehicleSpec struct {
	// Dir is the travel direction.
	Dir Direction
	// Lane is the lane index, 0 (outermost) to LanesPerDir-1.
	Lane int
	// PositionM is the arc position along the direction of travel (m).
	PositionM float64
	// SpeedMS is the initial and desired speed (m/s).
	SpeedMS float64
}

// RunCustom executes a protocol over hand-placed vehicles instead of
// density-generated traffic (useful for platoons and controlled
// experiments). The scenario's Traffic.DensityVPL is ignored; its road
// geometry, channel, task and window settings apply. Vehicles keep their
// given speeds as desired speeds and follow the car-following model.
func RunCustom(cfg ScenarioConfig, vehicles []VehicleSpec, f Factory) (*Result, error) {
	if len(vehicles) == 0 {
		return nil, fmt.Errorf("mmv2v: no vehicles in custom scenario")
	}
	if cfg.Grid != nil {
		return nil, fmt.Errorf("mmv2v: custom scenarios place vehicles on the straight road, not on a grid")
	}
	cfg.Traffic.DensityVPL = 0
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	road, err := traffic.New(cfg.Traffic, xrand.New(cfg.Seed))
	if err != nil {
		return nil, err
	}
	for _, v := range vehicles {
		switch {
		case v.Dir != Eastbound && v.Dir != Westbound:
			return nil, fmt.Errorf("mmv2v: direction %d is neither Eastbound nor Westbound", v.Dir)
		case v.Lane < 0 || v.Lane >= cfg.Traffic.LanesPerDir:
			return nil, fmt.Errorf("mmv2v: lane %d outside [0, %d)", v.Lane, cfg.Traffic.LanesPerDir)
		case math.IsNaN(v.PositionM) || math.IsInf(v.PositionM, 0):
			return nil, fmt.Errorf("mmv2v: position %v is not finite", v.PositionM)
		case math.IsNaN(v.SpeedMS) || math.IsInf(v.SpeedMS, 0) || v.SpeedMS < 0:
			return nil, fmt.Errorf("mmv2v: speed %v is not a finite non-negative value", v.SpeedMS)
		}
		road.Add(&traffic.Vehicle{
			Dir:      v.Dir,
			Lane:     v.Lane,
			S:        v.PositionM,
			V:        v.SpeedMS,
			DesiredV: v.SpeedMS,
			Quantile: 0.5,
		})
	}
	dt := cfg.Timing.PositionUpdate.Seconds()
	for t := 0.0; t < cfg.WarmupSec; t += dt {
		road.Step(dt)
	}
	w, err := world.New(cfg.World, road)
	if err != nil {
		return nil, err
	}
	env, err := sim.NewEnvWithWorld(cfg, w)
	if err != nil {
		return nil, err
	}
	return sim.RunOnEnv(cfg, env, f)
}
