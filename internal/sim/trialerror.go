// Crash isolation for trial execution: a panic anywhere inside one trial —
// protocol bug, poisoned scenario, substrate invariant violation — must
// degrade that one data point, not kill a multi-thousand-trial experiment.
// RunTrials runs every trial under recover() and converts failures into
// structured TrialErrors that carry everything needed to reproduce the
// crash deterministically: the scenario, the trial index, the derived seed
// and the recovered stack, plus a one-line repro command.

package sim

import (
	"fmt"
	"runtime/debug"
	"strings"
)

// TrialError describes one trial RunTrials lost to a panic or error.
type TrialError struct {
	// Scenario is a human-readable summary of the failing configuration.
	Scenario string
	// Config is the pooled run's scenario, which the repro command
	// rebuilds; Trial is the failing index and Seed the derived per-trial
	// scenario seed (Seed = xrand.Mix(Config.Seed, Trial)).
	Config Config
	Trial  int
	Seed   uint64
	// Err is the underlying failure; a recovered panic is wrapped as a
	// PanicError. Stack is the goroutine stack captured at recovery
	// (empty when the trial returned an ordinary error).
	Err   error
	Stack string
}

// Error renders the failure with its repro command; the stack is available
// separately so logs stay one line unless callers want it.
func (e *TrialError) Error() string {
	return fmt.Sprintf("sim: trial %d (%s, seed %#x) failed: %v [repro: %s]",
		e.Trial, e.Scenario, e.Seed, e.Err, e.Repro())
}

// Unwrap exposes the underlying failure to errors.Is/As.
func (e *TrialError) Unwrap() error { return e.Err }

// Repro returns a one-line mmv2v-sim command that deterministically
// replays the failing trial: trials 0..Trial re-run, and all are pure
// functions of the seed, so the crash reproduces on the last one. The
// command rebuilds the world (road density or grid geometry), seed and
// window timing from Config. It carries no -protocol: sim sees only a
// Factory, so a crash under a protocol other than mmv2v needs that flag
// added by hand, as does the intensity of an active fault profile.
func (e *TrialError) Repro() string {
	var b strings.Builder
	b.WriteString("go run ./cmd/mmv2v-sim")
	cfg := e.Config
	if g := cfg.Grid; g != nil {
		fmt.Fprintf(&b, " -world grid -rows %d -cols %d -block %g -grid-vehicles %d",
			g.Rows, g.Cols, g.BlockM, g.Vehicles)
	} else {
		fmt.Fprintf(&b, " -density %g", cfg.Traffic.DensityVPL)
	}
	fmt.Fprintf(&b, " -seed %d -trials %d", cfg.Seed, e.Trial+1)
	def := DefaultConfig(0, 0)
	//mmv2v:exact flag-default test: any other window length must be spelled out
	if cfg.WindowSec != def.WindowSec {
		fmt.Fprintf(&b, " -seconds %g", cfg.WindowSec)
	}
	if cfg.Windows != def.Windows {
		fmt.Fprintf(&b, " -windows %d", cfg.Windows)
	}
	if cfg.Faults != nil && cfg.Faults.Enabled() {
		b.WriteString(" -faults <intensity>  # re-apply this run's FaultConfig")
	}
	return b.String()
}

// PanicError wraps a value recovered from a panicking trial so it can
// travel as an error through the aggregation machinery.
type PanicError struct {
	Value any
	Stack string
}

// Error implements error.
func (e *PanicError) Error() string { return fmt.Sprintf("panic: %v", e.Value) }

// runIsolated executes one trial with panics converted into PanicErrors.
func runIsolated(cfg Config, factory Factory) (res *Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = &PanicError{Value: p, Stack: string(debug.Stack())}
		}
	}()
	return Run(cfg, factory)
}

// scenarioLabel summarizes a config for TrialError messages.
func scenarioLabel(cfg Config) string {
	var b strings.Builder
	if g := cfg.Grid; g != nil {
		fmt.Fprintf(&b, "grid=%dx%d, %g m blocks, %d vehicles", g.Rows, g.Cols, g.BlockM, g.Vehicles)
	} else {
		fmt.Fprintf(&b, "density=%g vpl", cfg.Traffic.DensityVPL)
	}
	fmt.Fprintf(&b, ", %d×%gs windows", cfg.Windows, cfg.WindowSec)
	if cfg.Faults != nil && cfg.Faults.Enabled() {
		b.WriteString(", faults on")
	}
	return b.String()
}
