package faults

import (
	"math"
	"time"

	"mmv2v/internal/des"
	"mmv2v/internal/obs"
	"mmv2v/internal/units"
	"mmv2v/internal/xrand"
)

// Clock exposes the simulation's current time; *des.Simulator satisfies it.
type Clock interface {
	Now() des.Time
}

// geTick is the sampling period of the Gilbert–Elliott blockage chains,
// aligned with the paper's 5 ms position/link refresh cadence.
const geTick = 5 * time.Millisecond

// Sub-stream labels, hashed once. Each fault process draws from its own
// stream family keyed by entity identity, so processes are mutually
// independent and stable under any query order.
var (
	opDrop   = xrand.HashString("faults.drop")
	opGE     = xrand.HashString("faults.blockage")
	opRadio  = xrand.HashString("faults.radio")
	opJitter = xrand.HashString("faults.jitter")
)

// unit maps a list of 64-bit identifiers to a uniform value in [0, 1).
func unit(vs ...uint64) float64 {
	return float64(xrand.Mix(vs...)>>11) / float64(uint64(1)<<53)
}

// geState is one pair's blockage chain position: the last evaluated tick and
// whether the pair is inside a burst. Chains always start clear at tick 0
// and advance with per-tick hashed coin flips, so the state at tick T is a
// pure function of (seed, pair, T) no matter when the pair is first queried.
type geState struct {
	tick    int64
	blocked bool
}

// radioState is one vehicle's position in its up/down renewal process: the
// current interval index, its end time, and whether the radio is up.
// Interval durations are exponential draws hashed from (seed, vehicle,
// interval index), so the whole schedule is fixed at seeding time.
type radioState struct {
	k   uint64
	end des.Time
	up  bool
}

// Injector evaluates the configured fault processes against the simulation
// clock. It implements the medium's FaultModel hook (radio churn, control
// loss, slot jitter) and the world's LinkFault hook (blockage bursts).
// Create one per trial with NewInjector; it is not safe for concurrent use
// (the DES is single-threaded) and, like the rest of the simulator, is
// deterministic: same config + seed ⇒ the same fault history, bit for bit.
type Injector struct {
	cfg   Config
	seed  uint64
	clock Clock

	// Per-tick P(clear → blocked), P(blocked → clear), and the linear gain
	// factor inside a burst.
	pGoodBad float64
	pBadGood float64
	attenLin float64

	ge    map[uint64]*geState
	radio map[int]*radioState

	// Statistics handles (nil-safe no-ops until SetObs installs a live
	// registry).
	obsDrops       *obs.Counter
	obsBlocked     *obs.Counter
	obsTransitions *obs.Counter
}

// SetObs installs the statistics registry. A nil registry (the default)
// hands out nil handles, so every fault evaluation stays a no-op.
func (f *Injector) SetObs(r *obs.Registry) {
	f.obsDrops = r.Counter("faults.control_drops")
	f.obsBlocked = r.Counter("faults.blocked_ticks")
	f.obsTransitions = r.Counter("faults.radio_transitions")
}

// NewInjector builds an Injector for a trial. The seed should be derived
// from the trial's scenario seed (the sim layer mixes in a dedicated label)
// so fault histories are independent across trials but reproducible from
// the scenario seed alone.
func NewInjector(cfg Config, seed uint64, clock Clock) *Injector {
	tickSec := geTick.Seconds()
	inj := &Injector{
		cfg:   cfg,
		seed:  seed,
		clock: clock,
		ge:    make(map[uint64]*geState),
		radio: make(map[int]*radioState),
	}
	if cfg.BlockageRatePerSec > 0 && cfg.BlockageMeanSec > 0 {
		inj.pGoodBad = min(1, cfg.BlockageRatePerSec*tickSec)
		inj.pBadGood = min(1, tickSec/cfg.BlockageMeanSec.S())
	}
	inj.attenLin = (-cfg.BlockageExtraLossDB).Linear()
	return inj
}

// pairKey folds an unordered vehicle pair into one stream identifier.
func pairKey(a, b int) uint64 {
	if a > b {
		a, b = b, a
	}
	return uint64(a)<<32 | uint64(b)
}

// LinkFactorLin implements world.LinkFault: the extra linear gain factor on
// pair (a, b) at the current refresh — 1 in the clear state, the configured
// burst attenuation while blocked.
func (f *Injector) LinkFactorLin(a, b int) float64 {
	//mmv2v:exact disabled-feature sentinel: pGoodBad is exactly 0 iff blockage bursts were not configured
	if f.pGoodBad == 0 {
		return 1
	}
	tick := int64(f.clock.Now() / des.At(geTick))
	key := pairKey(a, b)
	st, ok := f.ge[key]
	if !ok {
		st = &geState{tick: -1}
		f.ge[key] = st
	}
	for st.tick < tick {
		st.tick++
		u := unit(f.seed, opGE, key, uint64(st.tick))
		if st.blocked {
			st.blocked = u >= f.pBadGood
		} else {
			st.blocked = u < f.pGoodBad
		}
	}
	if st.blocked {
		f.obsBlocked.Inc()
		return f.attenLin
	}
	return 1
}

// RadioUp implements part of medium.FaultModel: whether vehicle i's radio
// is alive at time `at`. Radios start up and alternate exponential up/down
// intervals; a down radio neither transmits, receives nor interferes.
func (f *Injector) RadioUp(i int, at des.Time) bool {
	if f.cfg.RadioMeanUpSec <= 0 {
		return true
	}
	st, ok := f.radio[i]
	if !ok {
		st = &radioState{up: true}
		st.end = f.expInterval(i, 0, f.cfg.RadioMeanUpSec)
		f.radio[i] = st
	}
	for at >= st.end {
		st.k++
		st.up = !st.up
		f.obsTransitions.Inc()
		mean := f.cfg.RadioMeanUpSec
		if !st.up {
			mean = f.cfg.RadioMeanDownSec
		}
		st.end += f.expInterval(i, st.k, mean)
	}
	return st.up
}

// expInterval draws vehicle i's k-th interval duration from an exponential
// with the given mean, as a pure function of (seed, i, k).
func (f *Injector) expInterval(i int, k uint64, mean units.Sec) des.Time {
	u := unit(f.seed, opRadio, uint64(i), k)
	sec := -mean.S() * math.Log(1-u)
	return des.At(time.Duration(sec * float64(time.Second)))
}

// DropControl implements part of medium.FaultModel: whether the control
// frame from → to resolving at time `at` is lost despite a decodable SINR.
func (f *Injector) DropControl(from, to int, at des.Time) bool {
	if f.cfg.ControlLossP <= 0 {
		return false
	}
	if unit(f.seed, opDrop, uint64(from), uint64(to), uint64(at)) < f.cfg.ControlLossP {
		f.obsDrops.Inc()
		return true
	}
	return false
}

// TxDelay implements part of medium.FaultModel: the slot-timing jitter added
// to vehicle `from`'s transmission starting at time `at`.
func (f *Injector) TxDelay(from int, at des.Time) time.Duration {
	if f.cfg.SlotJitterMax <= 0 {
		return 0
	}
	u := unit(f.seed, opJitter, uint64(from), uint64(at))
	return time.Duration(u * float64(f.cfg.SlotJitterMax))
}
