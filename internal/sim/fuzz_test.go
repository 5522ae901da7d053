package sim_test

import (
	"testing"
	"time"

	"mmv2v/internal/baseline"
	"mmv2v/internal/core"
	"mmv2v/internal/faults"
	"mmv2v/internal/phy"
	"mmv2v/internal/sim"
	"mmv2v/internal/units"
)

// fuzzTickBudget bounds the refresh ticks (warm-up plus windows) one
// FuzzConfig input may run, so that an exec stays well under a second. A
// valid config past it is validated but not run.
const fuzzTickBudget = 200

// FuzzConfig checks the scenario boundary: a sim.Config built from fuzzed
// timing, world ranges, demand and fault intensity either fails
// Validate, NewEnv or RunOnEnv with an error, or runs its windows under
// mmV2V, ROP and 802.11ad without panicking. The inputs that set a run's
// size (density, warm-up, window length and count) are mapped into small
// ranges, zero included.
func FuzzConfig(f *testing.F) {
	d := phy.DefaultTiming()
	add := func(t phy.Timing, comm, interf, demand, intensity float64) {
		f.Add(int64(t.Frame), int64(t.SSW), int64(t.BeamSwitch), int64(t.SIFS),
			int64(t.ControlPreamble), int64(t.NegotiationSlot), int64(t.PositionUpdate),
			comm, interf, demand, intensity, uint8(3), uint8(5), uint8(5), uint8(1))
	}
	add(d, 50, 250, 200e6, 0)
	add(d, 50, 250, 200e6, 1)
	add(d, 1e-9, 250, 200e6, 2)
	add(d, 50, 250, 0, 0)
	slow := d
	slow.SSW = time.Second
	add(slow, 50, 250, 200e6, 0)
	instant := d
	instant.BeamSwitch, instant.SIFS = 0, 0
	add(instant, 50, 250, 200e6, 1)
	long := d
	long.NegotiationSlot = 10 * time.Millisecond
	add(long, 50, 250, 200e6, 0)
	f.Fuzz(func(t *testing.T, frame, ssw, beamSwitch, sifs, preamble, negSlot, posUpdate int64,
		comm, interf, demand, intensity float64, density, warmup, window, windows uint8) {
		cfg := sim.DefaultConfig(float64(density%5), 1)
		cfg.Timing = phy.Timing{
			Frame:           time.Duration(frame),
			SSW:             time.Duration(ssw),
			BeamSwitch:      time.Duration(beamSwitch),
			SIFS:            time.Duration(sifs),
			ControlPreamble: time.Duration(preamble),
			NegotiationSlot: time.Duration(negSlot),
			PositionUpdate:  time.Duration(posUpdate),
		}
		cfg.World.CommRange = units.Meter(comm)
		cfg.World.InterferenceRange = units.Meter(interf)
		cfg.DemandBits = demand
		cfg.WarmupSec = float64(warmup%11) / 100
		cfg.WindowSec = float64(window%11) / 100
		cfg.Windows = int(windows % 3)
		profile := faults.DefaultConfig().Scale(intensity)
		cfg.Faults = &profile
		if cfg.Validate() != nil {
			return
		}
		simSec := cfg.WarmupSec + float64(cfg.Windows)*cfg.WindowSec
		if simSec/cfg.Timing.PositionUpdate.Seconds() > fuzzTickBudget {
			t.Skip("too many refresh ticks for one exec")
		}
		for _, factory := range []sim.Factory{
			core.Factory(core.DefaultParams()),
			baseline.ROPFactory(baseline.DefaultROPParams()),
			baseline.ADFactory(baseline.DefaultADParams()),
		} {
			env, err := sim.NewEnv(cfg)
			if err != nil {
				return
			}
			if _, err := sim.RunOnEnv(cfg, env, factory); err != nil {
				return
			}
		}
	})
}
