package faults

import (
	"testing"
	"time"

	"mmv2v/internal/des"
	"mmv2v/internal/obs"
)

// fakeClock drives an Injector without a simulator.
type fakeClock struct{ t des.Time }

func (c *fakeClock) Now() des.Time { return c.t }

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	if err := (Config{}).Validate(); err != nil {
		t.Fatalf("zero config invalid: %v", err)
	}
	bad := []Config{
		{ControlLossP: -0.1},
		{ControlLossP: 1.5},
		{BlockageRatePerSec: -1},
		{BlockageRatePerSec: 0.5}, // rate without mean burst duration
		{RadioMeanUpSec: -2},
		{RadioMeanUpSec: 5}, // churn without mean outage duration
		{SlotJitterMax: -time.Microsecond},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d validated: %+v", i, c)
		}
	}
}

func TestEnabledAndScale(t *testing.T) {
	if (Config{}).Enabled() {
		t.Error("zero config reports enabled")
	}
	base := DefaultConfig()
	if !base.Enabled() {
		t.Error("default config reports disabled")
	}
	if got := base.Scale(0); got != (Config{}) {
		t.Errorf("Scale(0) = %+v, want zero config", got)
	}
	if got := base.Scale(1); got != base {
		t.Errorf("Scale(1) = %+v, want identity", got)
	}
	half := base.Scale(0.5)
	if half.ControlLossP != base.ControlLossP/2 ||
		half.BlockageRatePerSec != base.BlockageRatePerSec/2 ||
		half.RadioMeanUpSec != base.RadioMeanUpSec*2 ||
		half.SlotJitterMax != base.SlotJitterMax/2 {
		t.Errorf("Scale(0.5) frequencies wrong: %+v", half)
	}
	// Severity knobs are preserved: intensity changes how often faults
	// happen, not how bad each one is.
	if half.BlockageMeanSec != base.BlockageMeanSec ||
		half.BlockageExtraLossDB != base.BlockageExtraLossDB ||
		half.RadioMeanDownSec != base.RadioMeanDownSec {
		t.Errorf("Scale(0.5) altered severity: %+v", half)
	}
	if got := base.Scale(10).ControlLossP; got != 1 {
		t.Errorf("scaled loss probability %v not capped at 1", got)
	}
}

func TestZeroConfigIsNeutral(t *testing.T) {
	clk := &fakeClock{}
	inj := NewInjector(Config{}, 42, clk)
	for tick := 0; tick < 100; tick++ {
		clk.t = des.At(time.Duration(tick) * 5 * time.Millisecond)
		inj.Refreshed()
		if g := inj.LinkFactorLin(1, 2); g != 1 {
			t.Fatalf("tick %d: link factor %v, want exactly 1", tick, g)
		}
		if !inj.RadioUp(3, clk.t) {
			t.Fatalf("tick %d: radio down under zero config", tick)
		}
		if inj.DropControl(1, 2, clk.t) {
			t.Fatalf("tick %d: frame dropped under zero config", tick)
		}
		if d := inj.TxDelay(1, clk.t); d != 0 {
			t.Fatalf("tick %d: jitter %v under zero config", tick, d)
		}
	}
}

// TestBlockageQueryOrderIndependence pins the determinism-by-construction
// property: a pair's blockage state at tick T is the same whether the pair
// was evaluated at every tick or only at T — so fault histories do not
// depend on when a pair first comes into range or on worker scheduling. The
// factor is that of the tick of the last refresh, however late the pair is
// read after it.
func TestBlockageQueryOrderIndependence(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BlockageRatePerSec = 20 // dense bursts so both states are exercised
	cfg.BlockageMeanSec = 0.05
	const seed, ticks, late = 99, 400, 37
	at := func(tick int) des.Time { return des.At(time.Duration(tick) * 5 * time.Millisecond) }

	clk := &fakeClock{}
	eager := NewInjector(cfg, seed, clk)
	reg := obs.New()
	eager.SetObs(reg)
	trace := make([]float64, ticks)
	for k := 0; k < ticks; k++ {
		clk.t = at(k)
		eager.Refreshed()
		trace[k] = eager.LinkFactorLin(3, 9)
	}
	if reg.Counter("faults.blocked_ticks").Value() == 0 {
		t.Fatal("burst process never entered the blocked state; test is vacuous")
	}

	moved := 0
	for _, k := range []int{0, 7, 123, 250, ticks - 1} {
		lazyClk := &fakeClock{t: at(k)}
		lazy := NewInjector(cfg, seed, lazyClk)
		lazy.Refreshed()
		// The pair is read `late` ticks after the refresh.
		lazyClk.t = at(k + late)
		if got := lazy.LinkFactorLin(3, 9); got != trace[k] {
			t.Errorf("tick %d: lazy factor %v != eager %v", k, got, trace[k])
		}
		if k+late < ticks && trace[k+late] != trace[k] {
			moved++
		}
		// Endpoint order must not matter: (a, b) and (b, a) are one link.
		swapped := NewInjector(cfg, seed, &fakeClock{t: at(k)})
		swapped.Refreshed()
		if got := swapped.LinkFactorLin(9, 3); got != trace[k] {
			t.Errorf("tick %d: swapped endpoints factor %v != %v", k, got, trace[k])
		}
	}
	if moved == 0 {
		t.Fatalf("no factor changed %d ticks after its refresh; the late reads check nothing", late)
	}
}

// TestRadioScheduleQueryOrderIndependence: the up/down schedule is fixed at
// seeding time, so sampling densely and jumping straight to a time agree.
func TestRadioScheduleQueryOrderIndependence(t *testing.T) {
	cfg := Config{RadioMeanUpSec: 0.3, RadioMeanDownSec: 0.1}
	const seed = 7
	eager := NewInjector(cfg, seed, &fakeClock{})
	const steps = 500
	states := make([]bool, steps)
	downs := 0
	for k := 0; k < steps; k++ {
		at := des.At(time.Duration(k) * 10 * time.Millisecond)
		states[k] = eager.RadioUp(4, at)
		if !states[k] {
			downs++
		}
	}
	if !states[0] {
		t.Error("radio must start up")
	}
	if downs == 0 {
		t.Fatal("radio never failed over 5 s with 0.3 s mean up-time; test is vacuous")
	}
	for _, k := range []int{0, 42, 250, steps - 1} {
		lazy := NewInjector(cfg, seed, &fakeClock{})
		if got := lazy.RadioUp(4, des.At(time.Duration(k)*10*time.Millisecond)); got != states[k] {
			t.Errorf("step %d: lazy state %v != eager %v", k, got, states[k])
		}
	}
}

func TestDropControlDeterministicWithExpectedRate(t *testing.T) {
	cfg := Config{ControlLossP: 0.2}
	a := NewInjector(cfg, 11, &fakeClock{})
	reg := obs.New()
	a.SetObs(reg)
	b := NewInjector(cfg, 11, &fakeClock{})
	other := NewInjector(cfg, 12, &fakeClock{})
	const frames = 20000
	drops, diverged := 0, false
	for k := 0; k < frames; k++ {
		at := des.At(time.Duration(k) * time.Microsecond)
		da := a.DropControl(1, 2, at)
		if da {
			drops++
		}
		if da != b.DropControl(1, 2, at) {
			t.Fatalf("same seed diverged at frame %d", k)
		}
		if da != other.DropControl(1, 2, at) {
			diverged = true
		}
	}
	rate := float64(drops) / frames
	if rate < 0.18 || rate > 0.22 {
		t.Errorf("empirical drop rate %v far from configured 0.2", rate)
	}
	if !diverged {
		t.Error("different seeds produced identical drop sequences")
	}
	if got := reg.Counter("faults.control_drops").Value(); got != uint64(drops) {
		t.Errorf("faults.control_drops = %d, want %d", got, drops)
	}
}

func TestTxDelayBoundedAndDeterministic(t *testing.T) {
	cfg := Config{SlotJitterMax: 2 * time.Microsecond}
	a := NewInjector(cfg, 5, &fakeClock{})
	b := NewInjector(cfg, 5, &fakeClock{})
	nonzero := false
	for k := 0; k < 1000; k++ {
		at := des.At(time.Duration(k) * 20 * time.Millisecond)
		d := a.TxDelay(3, at)
		if d < 0 || d >= cfg.SlotJitterMax {
			t.Fatalf("jitter %v outside [0, %v)", d, cfg.SlotJitterMax)
		}
		if d != b.TxDelay(3, at) {
			t.Fatalf("same seed diverged at frame %d", k)
		}
		if d > 0 {
			nonzero = true
		}
	}
	if !nonzero {
		t.Error("jitter never fired")
	}
}
