package phy

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
	"time"

	"mmv2v/internal/geom"
	"mmv2v/internal/units"
)

func TestMCSRates(t *testing.T) {
	if got := MCS(0).Rate(); got != 27.5e6 {
		t.Errorf("MCS0 rate = %v", got)
	}
	if got := MCS(12).Rate(); got != 4.62e9 {
		t.Errorf("MCS12 rate = %v, want 4.62 Gb/s", got)
	}
	if got := MCS(13).Rate(); got != 0 {
		t.Errorf("out-of-range MCS rate = %v", got)
	}
	if got := MCS(-1).Rate(); got != 0 {
		t.Errorf("negative MCS rate = %v", got)
	}
}

func TestMCSMonotonic(t *testing.T) {
	for m := MCS(1); m < NumMCS; m++ {
		if m.Rate() <= (m - 1).Rate() {
			t.Errorf("%v rate %v not above %v rate %v", m, m.Rate(), m-1, (m - 1).Rate())
		}
		if m.MinSNRdB() <= (m - 1).MinSNRdB() {
			t.Errorf("%v threshold not above %v", m, m-1)
		}
	}
}

func TestBestMCS(t *testing.T) {
	tests := []struct {
		sinr   units.DB
		want   MCS
		wantOK bool
	}{
		{-5, -1, false},
		{1.0, 0, true},
		{2.9, 0, true},
		{3.0, 1, true},
		{10.6, 7, true},
		{21.0, 12, true},
		{40, 12, true},
	}
	for _, tt := range tests {
		got, ok := BestMCS(tt.sinr)
		if got != tt.want || ok != tt.wantOK {
			t.Errorf("BestMCS(%v) = %v,%v want %v,%v", tt.sinr, got, ok, tt.want, tt.wantOK)
		}
	}
}

func TestDataRate(t *testing.T) {
	if got := DataRate(-10); got != 0 {
		t.Errorf("DataRate(-10) = %v", got)
	}
	if got := DataRate(2); got != 0 {
		t.Errorf("DataRate(2) = %v, control-only SINR must carry no data", got)
	}
	if got := DataRate(3.5); got != 385e6 {
		t.Errorf("DataRate(3.5) = %v", got)
	}
	if got := DataRate(50); got != 4.62e9 {
		t.Errorf("DataRate(50) = %v", got)
	}
}

func TestDataRateMonotonicProperty(t *testing.T) {
	f := func(a, b float64) bool {
		a = math.Mod(a, 40)
		b = math.Mod(b, 40)
		lo, hi := units.DB(math.Min(a, b)), units.DB(math.Max(a, b))
		return DataRate(lo) <= DataRate(hi)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestControlDecodable(t *testing.T) {
	if ControlDecodable(0.5) {
		t.Error("0.5 dB should not decode control PHY")
	}
	if !ControlDecodable(1.0) {
		t.Error("1.0 dB should decode control PHY")
	}
}

func TestEVMRule(t *testing.T) {
	// EVM = SINR^{-1/2}: at 20 dB (linear 100) EVM = 0.1.
	if got := EVMFromSINR(20); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("EVMFromSINR(20) = %v", got)
	}
	if got := EVMFromSINR(0); math.Abs(got-1) > 1e-12 {
		t.Errorf("EVMFromSINR(0) = %v", got)
	}
	// MaxEVM must shrink as MCS grows (tighter constellations).
	for m := MCS(1); m < NumMCS; m++ {
		if m.MaxEVM() >= (m - 1).MaxEVM() {
			t.Errorf("MaxEVM not decreasing at %v", m)
		}
	}
}

func TestMCSString(t *testing.T) {
	if got := MCS(7).String(); got != "MCS7" {
		t.Errorf("String = %q", got)
	}
}

func TestDefaultTiming(t *testing.T) {
	tm := DefaultTiming()
	if err := tm.Validate(); err != nil {
		t.Fatal(err)
	}
	if tm.Frame != 20*time.Millisecond {
		t.Errorf("Frame = %v", tm.Frame)
	}
	if got := tm.SectorSlot(); got != 16*time.Microsecond {
		t.Errorf("SectorSlot = %v, want 16µs", got)
	}
	// Paper: "For scanning 24 sectors, one round of SND takes 0.8 ms."
	// One round = 2 half-rounds × 24 sector slots.
	round := 2 * 24 * tm.SectorSlot()
	if round < 700*time.Microsecond || round > 800*time.Microsecond {
		t.Errorf("SND round duration = %v, want ≈0.8 ms", round)
	}
	// Cross search: 2 sides × s = 6 narrow beams × 16 µs + 2 SIFS of 3 µs.
	if got := tm.CrossSearch(DefaultCodebook()); got != 198*time.Microsecond {
		t.Errorf("CrossSearch = %v, want 198µs", got)
	}
}

func TestTimingValidate(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Timing)
	}{
		{"slot below two control messages", func(tm *Timing) { tm.NegotiationSlot = 8 * time.Microsecond }},
		{"zero frame", func(tm *Timing) { tm.Frame = 0 }},
		{"position update longer than frame", func(tm *Timing) { tm.PositionUpdate = 30 * time.Millisecond }},
		{"position update not dividing frame", func(tm *Timing) { tm.PositionUpdate = 3 * time.Millisecond }},
		{"SSW long enough to wrap the clock", func(tm *Timing) { tm.SSW = maxTiming + 1 }},
		{"SIFS long enough to wrap the clock", func(tm *Timing) { tm.SIFS = math.MaxInt64 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			tm := DefaultTiming()
			tt.mutate(&tm)
			if err := tm.Validate(); err == nil {
				t.Error("want error")
			}
		})
	}
}

func TestDefaultCodebook(t *testing.T) {
	cb := DefaultCodebook()
	if err := cb.Validate(); err != nil {
		t.Fatal(err)
	}
	if cb.Sectors.Count != 24 {
		t.Errorf("sectors = %d", cb.Sectors.Count)
	}
	if got := geom.ToDeg(cb.Sectors.Pitch()); math.Abs(got-15) > 1e-9 {
		t.Errorf("pitch = %v°, want 15°", got)
	}
	// s = ⌊15/3⌋ + 1 = 6 narrow beams (paper: "s is usually very small").
	if got := cb.RefinementBeams(); got != 6 {
		t.Errorf("RefinementBeams = %d, want 6", got)
	}
}

func TestCodebookValidate(t *testing.T) {
	type invalid struct {
		name   string
		mutate func(*Codebook)
	}
	tests := []invalid{
		{"odd sectors", func(c *Codebook) { c.Sectors.Count = 23 }},
		{"zero tx width", func(c *Codebook) { c.TxWidth = 0 }},
		{"narrow wider than pitch", func(c *Codebook) { c.NarrowWidth = geom.Deg(20) }},
	}
	// Every width outside channel.NewPattern's domain (0, 2π] fails, for
	// each of the three widths.
	for _, w := range []units.Radian{0, -geom.Deg(30), units.Radian(math.NaN()), units.Radian(math.Inf(1)),
		units.Radian(math.Inf(-1)), units.Radian(math.Nextafter(2*math.Pi, 7)), 7} {
		tests = append(tests,
			invalid{fmt.Sprintf("tx width %v", w), func(c *Codebook) { c.TxWidth = w }},
			invalid{fmt.Sprintf("rx width %v", w), func(c *Codebook) { c.RxWidth = w }},
			invalid{fmt.Sprintf("narrow width %v", w), func(c *Codebook) { c.NarrowWidth = w }})
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cb := DefaultCodebook()
			tt.mutate(&cb)
			if err := cb.Validate(); err == nil {
				t.Error("want error")
			}
		})
	}
	// The domain's upper end is a valid, if unusual, sweep beam.
	cb := DefaultCodebook()
	cb.TxWidth, cb.RxWidth = 2*math.Pi, 2*math.Pi
	if err := cb.Validate(); err != nil {
		t.Errorf("2π tx and rx widths: %v", err)
	}
}

// TestNearMissFloorBelowMCS0 pins the order of the two thresholds a heard
// control frame is compared with: the near-miss floor sits below MCS0's
// decodable SINR, so a frame below the floor can neither decode nor count
// as a near miss.
func TestNearMissFloorBelowMCS0(t *testing.T) {
	if !(NearMissSINR < MCS(0).MinSNRdB()) {
		t.Fatalf("near-miss floor %v not below MCS0's decodable SINR %v", NearMissSINR, MCS(0).MinSNRdB())
	}
	if ControlDecodable(NearMissSINR) {
		t.Errorf("a control frame at the near-miss floor %v decodes", NearMissSINR)
	}
}

func TestNarrowBeamTiling(t *testing.T) {
	cb := DefaultCodebook()
	coarse := geom.Bearing(geom.Deg(90))
	s := cb.RefinementBeams()
	// Beams must be symmetric around the coarse bearing and θ_min apart.
	for k := 0; k < s-1; k++ {
		b1 := cb.NarrowBeamBearing(coarse, k)
		b2 := cb.NarrowBeamBearing(coarse, k+1)
		if d := geom.AngleDiff(b1, b2); math.Abs((d - cb.NarrowWidth).Rad()) > 1e-9 {
			t.Errorf("beam pitch %v, want %v", d, cb.NarrowWidth)
		}
	}
	first := cb.NarrowBeamBearing(coarse, 0)
	last := cb.NarrowBeamBearing(coarse, s-1)
	if math.Abs(geom.AngleDiff(first, coarse).Rad()) != math.Abs(geom.AngleDiff(coarse, last).Rad()) {
		t.Error("refinement beams not symmetric around coarse bearing")
	}
	// The span must cover the sector pitch.
	span := geom.AngleDiff(first, last)
	if span < cb.Sectors.Pitch()-1e-9 {
		t.Errorf("refinement span %v below sector pitch %v", span, cb.Sectors.Pitch())
	}
}

func TestOmniBeam(t *testing.T) {
	if !Omni.IsOmni() {
		t.Error("Omni should be omni")
	}
	if (Beam{Width: geom.Deg(30)}).IsOmni() {
		t.Error("steered beam misreported as omni")
	}
}
