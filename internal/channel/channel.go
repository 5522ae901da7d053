// Package channel implements the 60 GHz mmWave channel model the paper
// evaluates with: the Yamamoto long-distance path-loss model (Eq. 1), the
// 3GPP Gaussian main-lobe beam pattern (Eq. 2), and the directional SINR
// formulation (Eq. 3), plus vehicle-body blockage accounting.
//
// All gains are carried in linear scale internally; the internal/units
// conversion vocabulary (units.DB, units.DBm, units.MilliWatt, ...) types
// every log/linear boundary, so mixing a dB figure into a milliwatt sum is
// a compile error and the residual escape hatches are closed by the
// `unitcheck` lint pass.
package channel

import (
	"fmt"
	"math"

	"mmv2v/internal/units"
)

// Params configures the channel model. Defaults mirror Sec. IV-A of the
// paper; values the paper leaves unspecified are documented in DESIGN.md.
type Params struct {
	// PathLossExp is the exponent a in Eq. 1 (dimensionless). The Yamamoto
	// model the paper cites reports ≈2.66 for 60 GHz inter-vehicle LOS links.
	PathLossExp float64
	// LOSOffsetDB is the distance-independent part of O in Eq. 1 for an
	// unobstructed link (includes the first-meter free-space loss).
	LOSOffsetDB units.DB
	// BlockerLossDB is the additional attenuation per blocking vehicle body.
	BlockerLossDB units.DB
	// MaxBlockersCounted caps the per-blocker attenuation (deep blockage
	// saturates).
	MaxBlockersCounted int
	// AtmosphericDBPerKm is the 60 GHz oxygen-absorption term (Eq. 1 uses
	// 15 dB/km).
	AtmosphericDBPerKm units.DB
	// TxPowerDBm is each vehicle's transmission power (paper: 28 dBm).
	TxPowerDBm units.DBm
	// NoiseDensityDBmHz is N0 (paper: −174 dBm/Hz).
	NoiseDensityDBmHz units.DBm
	// BandwidthHz is the channel bandwidth B (paper: 2.16 GHz).
	BandwidthHz units.Hertz
	// SideLobeDB is how far the side-lobe gain g² sits below the main-lobe
	// peak g¹ (not given in the paper; 20 dB is typical for the 3GPP
	// pattern).
	SideLobeDB units.DB
	// ShadowSigmaDB is the standard deviation of an optional per-link
	// log-normal shadowing term added to Eq. 1 (the Yamamoto measurements
	// report several dB of spread; the paper uses the mean model, so the
	// default is 0). Shadowing is drawn per vehicle pair, static per run.
	ShadowSigmaDB units.DB
}

// DefaultParams returns the paper's channel configuration.
func DefaultParams() Params {
	return Params{
		PathLossExp:        2.66,
		LOSOffsetDB:        70,
		BlockerLossDB:      15,
		MaxBlockersCounted: 3,
		AtmosphericDBPerKm: 15,
		TxPowerDBm:         28,
		NoiseDensityDBmHz:  -174,
		BandwidthHz:        2.16e9,
		SideLobeDB:         20,
		ShadowSigmaDB:      0,
	}
}

// Validate reports configuration errors.
func (p Params) Validate() error {
	switch {
	case p.PathLossExp <= 0:
		return fmt.Errorf("channel: non-positive path loss exponent %v", p.PathLossExp)
	case p.BandwidthHz <= 0:
		return fmt.Errorf("channel: non-positive bandwidth %v", p.BandwidthHz)
	case p.SideLobeDB <= 0:
		return fmt.Errorf("channel: side lobe must sit below main lobe (SideLobeDB=%v)", p.SideLobeDB)
	case p.BlockerLossDB < 0:
		return fmt.Errorf("channel: negative blocker loss %v", p.BlockerLossDB)
	case p.ShadowSigmaDB < 0:
		return fmt.Errorf("channel: negative shadowing sigma %v", p.ShadowSigmaDB)
	}
	return nil
}

// Model precomputes derived constants of the channel.
type Model struct {
	params  Params
	noiseMw units.MilliWatt
	txMw    units.MilliWatt
}

// NewModel validates params and builds a Model.
func NewModel(params Params) (*Model, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	return &Model{
		params:  params,
		noiseMw: units.DBmToMilliWatt(params.NoiseDensityDBmHz.Plus(units.LinearToDB(params.BandwidthHz.Hz()))),
		txMw:    units.DBmToMilliWatt(params.TxPowerDBm),
	}, nil
}

// Params returns the model's configuration.
func (m *Model) Params() Params { return m.params }

// NoiseMw returns the thermal noise power N0·B in milliwatts.
func (m *Model) NoiseMw() units.MilliWatt { return m.noiseMw }

// NoiseDBm returns the thermal noise power in dBm.
func (m *Model) NoiseDBm() units.DBm { return units.MilliWattToDBm(m.noiseMw) }

// TxPowerMw returns the transmit power in milliwatts.
func (m *Model) TxPowerMw() units.MilliWatt { return m.txMw }

// PathLossDB evaluates Eq. 1: a·10·log10(d) + O + 15·d/1000, where O is the
// LOS offset plus the per-blocker penalty. Distances below 1 m clamp to 1 m.
func (m *Model) PathLossDB(dist units.Meter, blockers int) units.DB {
	if dist < 1 {
		dist = 1
	}
	if blockers < 0 {
		blockers = 0
	}
	if blockers > m.params.MaxBlockersCounted {
		blockers = m.params.MaxBlockersCounted
	}
	o := m.params.LOSOffsetDB + m.params.BlockerLossDB.Times(float64(blockers))
	return units.DB(m.params.PathLossExp*10*math.Log10(dist.M())) + o +
		m.params.AtmosphericDBPerKm.Times(dist.M())/1000
}

// PathGainLin returns the linear channel power gain g^c for a link
// (always < 1, dimensionless).
func (m *Model) PathGainLin(dist units.Meter, blockers int) float64 {
	return (-m.PathLossDB(dist, blockers)).Linear()
}

// SNRdB returns the interference-free SNR of a link given linear beam gains.
func (m *Model) SNRdB(dist units.Meter, blockers int, txGainLin, rxGainLin float64) units.DB {
	rx := units.MilliWatt(m.txMw.MW() * txGainLin * m.PathGainLin(dist, blockers) * rxGainLin)
	return units.RatioDB(rx, m.noiseMw)
}

// SINR computes Eq. 3 from a desired received power and a sum of
// interference powers, all in milliwatts, returning the ratio in dB.
func (m *Model) SINR(desired, interference units.MilliWatt) units.DB {
	return units.RatioDB(desired, m.noiseMw+interference)
}

// gaussMainLobeConst is the 3 · ln(10) / 10 exponent constant of Eq. 2
// (10^{-0.3 x²} = e^{-c x²}).
const gaussMainLobeConst = 0.3 * math.Ln10

// Pattern is a 3GPP-style antenna pattern (Eq. 2) for one 3 dB beam width:
// a Gaussian main lobe of peak gain g1 and a flat side lobe g2, with the
// main/side boundary θ1 = (ω/2)·sqrt((10/3)·log10(g1/g2)) from the paper.
type Pattern struct {
	// Width is the 3 dB beam width ω.
	Width units.Radian
	// G1 is the main-lobe peak gain (linear, dimensionless).
	G1 float64
	// G2 is the side-lobe gain (linear, dimensionless).
	G2 float64
	// Theta1 is the main-lobe boundary.
	Theta1 units.Radian
}

// NewPattern derives a pattern for the given 3 dB beam width. The peak gain
// g1 is solved from 2-D energy conservation — the integral of the pattern
// over the full circle equals 2π — with the side lobe fixed sideLobe below
// the peak, so narrower beams get proportionally higher gain (the physical
// tradeoff the paper's heterogeneous Tx/Rx widths exploit).
func NewPattern(width units.Radian, sideLobe units.DB) Pattern {
	if width <= 0 || width > 2*math.Pi {
		//mmv2v:alloc cold panic path for a programmer error; never taken on a valid configuration
		panic(fmt.Sprintf("channel: invalid beam width %v rad", width))
	}
	rho := (-sideLobe).Linear() // g2/g1
	half := width.Rad() / 2
	// θ1 from the paper's boundary formula with g1/g2 = 1/rho.
	theta1 := half * math.Sqrt(10.0/3.0*math.Log10(1/rho))
	if theta1 > math.Pi {
		theta1 = math.Pi
	}
	// ∫_{-θ1}^{θ1} e^{-c (γ/half)²} dγ = half·sqrt(π/c)·erf(sqrt(c)·θ1/half)
	c := gaussMainLobeConst
	mainIntegral := half * math.Sqrt(math.Pi/c) * math.Erf(math.Sqrt(c)*theta1/half)
	g1 := 2 * math.Pi / (mainIntegral + rho*(2*math.Pi-2*theta1))
	return Pattern{Width: width, G1: g1, G2: g1 * rho, Theta1: units.Radian(theta1)}
}

// Gain evaluates Eq. 2 at off-boresight angle gamma (any sign), returning
// linear gain.
func (p Pattern) Gain(gamma units.Radian) float64 {
	g := math.Abs(gamma.Rad())
	if g > math.Pi {
		g = 2*math.Pi - g
	}
	if g < p.Theta1.Rad() {
		x := g / (p.Width.Rad() / 2)
		return p.G1 * math.Exp(-gaussMainLobeConst*x*x)
	}
	return p.G2
}

// PeakGainDB returns the boresight gain in dBi.
func (p Pattern) PeakGainDB() units.DB { return units.LinearToDB(p.G1) }

// OmniPattern returns an isotropic (0 dBi) pattern, used for quasi-omni
// listening in the 802.11ad baseline.
func OmniPattern() Pattern {
	// Theta1 of zero routes every angle to the flat G2 branch.
	return Pattern{Width: 2 * math.Pi, G1: 1, G2: 1, Theta1: 0}
}

// PatternCache memoizes patterns by beam width; the simulator uses only a
// handful of widths (α, β, θ_min, quasi-omni) but evaluates gains millions
// of times. A linear scan over that handful beats hashing a float64 key.
// Each width's pattern is derived once and shared, so callers may hold the
// returned pointer for the cache's lifetime.
type PatternCache struct {
	sideLobe units.DB
	patterns []*Pattern
}

// NewPatternCache builds a cache with the given side-lobe level.
func NewPatternCache(sideLobe units.DB) *PatternCache {
	return &PatternCache{sideLobe: sideLobe}
}

// Get returns the pattern for a beam width, deriving it on first use. The
// pattern must not be modified.
func (c *PatternCache) Get(width units.Radian) *Pattern {
	for _, p := range c.patterns {
		//mmv2v:exact memo key: the same equality a map keyed by width would use
		if p.Width == width {
			return p
		}
	}
	p := NewPattern(width, c.sideLobe)
	//mmv2v:alloc memoization miss: each distinct beam width is derived and stored once per run
	c.patterns = append(c.patterns, &p)
	return &p
}
