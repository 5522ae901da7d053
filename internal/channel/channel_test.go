package channel

import (
	"math"
	"testing"
	"testing/quick"

	"mmv2v/internal/geom"
	"mmv2v/internal/units"
)

func newModel(t *testing.T) *Model {
	t.Helper()
	m, err := NewModel(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestDBLinRoundTrip(t *testing.T) {
	f := func(db float64) bool {
		db = math.Mod(db, 200)
		return math.Abs(units.LinearToDB(units.DB(db).Linear()).Decibels()-db) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDBmMwConversions(t *testing.T) {
	if got := units.DBmToMilliWatt(0).MW(); math.Abs(got-1) > 1e-12 {
		t.Errorf("DBmToMw(0) = %v", got)
	}
	if got := units.DBmToMilliWatt(30).MW(); math.Abs(got-1000) > 1e-9 {
		t.Errorf("DBmToMw(30) = %v", got)
	}
	if got := units.MilliWattToDBm(100).Decibels(); math.Abs(got-20) > 1e-12 {
		t.Errorf("MwToDBm(100) = %v", got)
	}
}

func TestParamsValidate(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Params)
	}{
		{"zero exponent", func(p *Params) { p.PathLossExp = 0 }},
		{"zero bandwidth", func(p *Params) { p.BandwidthHz = 0 }},
		{"zero side lobe", func(p *Params) { p.SideLobeDB = 0 }},
		{"negative blocker loss", func(p *Params) { p.BlockerLossDB = -1 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := DefaultParams()
			tt.mutate(&p)
			if _, err := NewModel(p); err == nil {
				t.Error("want error")
			}
		})
	}
}

func TestNoiseFloor(t *testing.T) {
	// N0·B for −174 dBm/Hz over 2.16 GHz ≈ −80.65 dBm.
	m := newModel(t)
	if got := m.NoiseDBm().Decibels(); math.Abs(got-(-80.65)) > 0.05 {
		t.Errorf("noise floor = %v dBm, want ≈ -80.65", got)
	}
}

func TestPathLossMonotonicInDistance(t *testing.T) {
	m := newModel(t)
	prev := m.PathLossDB(1, 0)
	for d := units.Meter(2); d <= 1000; d *= 1.5 {
		cur := m.PathLossDB(d, 0)
		if cur <= prev {
			t.Fatalf("path loss not increasing at %v m: %v <= %v", d, cur, prev)
		}
		prev = cur
	}
}

func TestPathLossEquationValues(t *testing.T) {
	// Hand-computed Eq. 1 values with default params.
	m := newModel(t)
	tests := []struct {
		d        units.Meter
		blockers int
		want     units.DB
	}{
		{1, 0, 70.015},                      // 0 + 70 + 0.015
		{100, 0, 2.66*10*2 + 70 + 1.5},      // 124.7
		{100, 1, 2.66*10*2 + 85 + 1.5},      // +15 per blocker
		{100, 2, 2.66*10*2 + 100 + 1.5},     //
		{100, 9, 2.66*10*2 + 70 + 45 + 1.5}, // capped at 3 blockers
		{1000, 0, 2.66*10*3 + 70 + 15},      // 164.8
		{0.5, 0, 70.015},                    // sub-meter clamps to 1 m
	}
	for _, tt := range tests {
		if got := m.PathLossDB(tt.d, tt.blockers); math.Abs((got - tt.want).Decibels()) > 1e-9 {
			t.Errorf("PathLossDB(%v, %d) = %v, want %v", tt.d, tt.blockers, got, tt.want)
		}
	}
}

func TestNegativeBlockersClamped(t *testing.T) {
	m := newModel(t)
	if m.PathLossDB(50, -3) != m.PathLossDB(50, 0) {
		t.Error("negative blocker count should clamp to 0")
	}
}

func TestPathGainLinConsistent(t *testing.T) {
	m := newModel(t)
	d := units.Meter(66)
	if got, want := units.LinearToDB(m.PathGainLin(d, 0)), -m.PathLossDB(d, 0); math.Abs((got - want).Decibels()) > 1e-9 {
		t.Errorf("gain %v dB vs loss %v dB", got, want)
	}
}

func TestSNRLinkBudget(t *testing.T) {
	// Sanity-check the end-to-end link budget at the paper's geometry:
	// 28 dBm + two narrow-beam gains at 66 m must support a high MCS
	// (SNR > 20 dB), and discovery beams at 100 m must stay decodable
	// (SNR > 1 dB).
	m := newModel(t)
	narrow := NewPattern(geom.Deg(3), m.Params().SideLobeDB)
	tx := NewPattern(geom.Deg(30), m.Params().SideLobeDB)
	rx := NewPattern(geom.Deg(12), m.Params().SideLobeDB)

	if snr := m.SNRdB(66, 0, narrow.G1, narrow.G1); snr < 20 {
		t.Errorf("refined-beam SNR at 66 m = %.1f dB, want > 20", snr)
	}
	if snr := m.SNRdB(100, 0, tx.G1, rx.G1); snr < 1 {
		t.Errorf("discovery SNR at 100 m = %.1f dB, want > 1", snr)
	}
	// A fully blocked link at range should be undecodable.
	if snr := m.SNRdB(150, 3, tx.G1, rx.G1); snr > 0 {
		t.Errorf("3-blocker SNR at 150 m = %.1f dB, want < 0", snr)
	}
}

func TestSINRReducesToSNRWithoutInterference(t *testing.T) {
	m := newModel(t)
	desired := m.TxPowerMw().Times(m.PathGainLin(66, 0))
	if got, want := m.SINR(desired, 0), units.LinearToDB(desired.Over(m.NoiseMw())); math.Abs((got - want).Decibels()) > 1e-12 {
		t.Errorf("SINR = %v, want %v", got, want)
	}
}

func TestSINRDecreasesWithInterference(t *testing.T) {
	m := newModel(t)
	desired := m.TxPowerMw().Times(m.PathGainLin(66, 0))
	clean := m.SINR(desired, 0)
	dirty := m.SINR(desired, m.NoiseMw().Times(10))
	if dirty >= clean {
		t.Errorf("interference did not reduce SINR: %v vs %v", dirty, clean)
	}
	// 10× noise interference costs ≈10.4 dB.
	if diff := clean - dirty; math.Abs(diff.Decibels()-10.41) > 0.1 {
		t.Errorf("SINR delta = %v dB, want ≈10.41", diff)
	}
}

func TestPatternPeakAtBoresight(t *testing.T) {
	p := NewPattern(geom.Deg(30), 20)
	if got := p.Gain(0); math.Abs(got-p.G1) > 1e-12 {
		t.Errorf("boresight gain = %v, want %v", got, p.G1)
	}
}

func TestPatternHalfPowerAtHalfWidth(t *testing.T) {
	// Eq. 2 gives exactly −3 dB at γ = ω/2.
	for _, widthDeg := range []float64{3, 12, 30, 60} {
		p := NewPattern(geom.Deg(widthDeg), 20)
		got := units.LinearToDB(p.Gain(geom.Deg(widthDeg)/2) / p.G1)
		if math.Abs(got.Decibels()-(-3)) > 1e-9 {
			t.Errorf("width %v°: relative gain at ω/2 = %v dB, want −3", widthDeg, got)
		}
	}
}

func TestPatternSideLobeLevel(t *testing.T) {
	p := NewPattern(geom.Deg(12), 20)
	if got := units.LinearToDB(p.G1 / p.G2); math.Abs(got.Decibels()-20) > 1e-9 {
		t.Errorf("side lobe level = %v dB, want 20", got)
	}
	if got := p.Gain(math.Pi); got != p.G2 {
		t.Errorf("back-lobe gain = %v, want %v", got, p.G2)
	}
}

func TestPatternEnergyConservation(t *testing.T) {
	// ∮ Gain(γ) dγ over the circle must equal 2π for every width.
	for _, widthDeg := range []float64{3, 12, 30, 90, 180} {
		p := NewPattern(geom.Deg(widthDeg), 20)
		const steps = 200000
		sum := 0.0
		for i := 0; i < steps; i++ {
			gamma := -math.Pi + 2*math.Pi*(float64(i)+0.5)/steps
			sum += p.Gain(units.Radian(gamma))
		}
		integral := sum * 2 * math.Pi / steps
		if math.Abs(integral-2*math.Pi)/(2*math.Pi) > 0.01 {
			t.Errorf("width %v°: pattern integral = %v, want 2π≈%v", widthDeg, integral, 2*math.Pi)
		}
	}
}

func TestNarrowerBeamsHaveHigherPeakGain(t *testing.T) {
	widths := []float64{60, 30, 12, 6, 3}
	prev := 0.0
	for _, w := range widths {
		g := NewPattern(geom.Deg(w), 20).G1
		if g <= prev {
			t.Fatalf("peak gain not increasing as width shrinks: %v° → %v", w, g)
		}
		prev = g
	}
}

func TestPatternGainSymmetric(t *testing.T) {
	p := NewPattern(geom.Deg(30), 20)
	f := func(gamma float64) bool {
		gamma = math.Mod(gamma, math.Pi)
		return math.Abs(p.Gain(units.Radian(gamma))-p.Gain(units.Radian(-gamma))) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPatternGainWrapsBeyondPi(t *testing.T) {
	p := NewPattern(geom.Deg(30), 20)
	// Gain at γ and 2π−γ must agree (angles measure the same direction).
	for _, g := range []float64{0.1, 1.0, 3.0} {
		if math.Abs(p.Gain(units.Radian(g))-p.Gain(units.Radian(2*math.Pi-g))) > 1e-12 {
			t.Errorf("gain not periodic at %v", g)
		}
	}
}

func TestInvalidPatternWidthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero width should panic")
		}
	}()
	NewPattern(0, 20)
}

func TestOmniPattern(t *testing.T) {
	p := OmniPattern()
	for _, g := range []units.Radian{0, 1, math.Pi} {
		if p.Gain(g) != 1 {
			t.Errorf("omni gain at %v = %v", g, p.Gain(g))
		}
	}
}

func TestPatternCache(t *testing.T) {
	c := NewPatternCache(20)
	p1 := c.Get(geom.Deg(30))
	p2 := c.Get(geom.Deg(30))
	if p1 != p2 {
		t.Error("cache returned different patterns for same width")
	}
	if c.Get(geom.Deg(12)).G1 <= p1.G1 {
		t.Error("cached 12° beam should out-gain 30° beam")
	}
	for _, w := range []units.Radian{geom.Deg(30), geom.Deg(12), geom.Deg(3), 2 * math.Pi} {
		if got, want := c.Get(w), NewPattern(w, 20); got != want {
			t.Errorf("Get(%v) = %+v, want NewPattern's %+v", w, got, want)
		}
	}
	if len(c.patterns) != 4 {
		t.Errorf("cache holds %d patterns after 4 distinct widths", len(c.patterns))
	}
}

func TestExpectedPeakGains(t *testing.T) {
	// Regression-pin the derived peak gains (dBi) for the paper's widths.
	tests := []struct {
		widthDeg float64
		wantDBi  float64
	}{
		{30, 10.1},
		{12, 13.5},
		{3, 17.3},
	}
	for _, tt := range tests {
		got := NewPattern(geom.Deg(tt.widthDeg), 20).PeakGainDB()
		if math.Abs(got.Decibels()-tt.wantDBi) > 0.3 {
			t.Errorf("peak gain for %v° = %.2f dBi, want ≈%v", tt.widthDeg, got, tt.wantDBi)
		}
	}
}
