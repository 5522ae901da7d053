// Package phy models the IEEE 802.11ad physical layer the paper adopts:
// the MCS0–12 single-carrier rate set (up to 4.62 Gb/s), the EVM↔SINR rule
// the paper cites (EVM = SINR^{-1/2}), the control-plane frame timings of
// Sec. IV-A (SSW 15 µs, beam-switch 1 µs, SIFS 3 µs, control preamble
// 4.3 µs, negotiation slot 30 µs), and the multi-level beam codebook
// (sector-level wide beams plus refined narrow beams).
package phy

import (
	"fmt"
	"math"
	"time"

	"mmv2v/internal/geom"
	"mmv2v/internal/units"
)

// MCS is an 802.11ad modulation-and-coding-scheme index (0 = control PHY,
// 1–12 = single-carrier data rates).
type MCS int

// mcsEntry pairs a PHY rate with the SNR it requires.
type mcsEntry struct {
	rateBps  float64
	minSNRdB units.DB
}

// mcsTable lists the 802.11ad control + SC PHY rates. The paper does not
// print SNR thresholds (it references the per-MCS EVM requirement); these
// thresholds are the standard values used in 802.11ad system-level studies
// (see DESIGN.md §2).
var mcsTable = []mcsEntry{
	{27.5e6, 1.0},    // MCS0  control PHY
	{385e6, 3.0},     // MCS1
	{770e6, 4.5},     // MCS2
	{962.5e6, 5.5},   // MCS3
	{1155e6, 6.5},    // MCS4
	{1251.25e6, 7.5}, // MCS5
	{1540e6, 9.0},    // MCS6
	{1925e6, 10.5},   // MCS7
	{2310e6, 12.0},   // MCS8
	{2502.5e6, 13.5}, // MCS9
	{3080e6, 16.0},   // MCS10
	{3850e6, 18.5},   // MCS11
	{4620e6, 21.0},   // MCS12
}

// NumMCS is the number of defined MCS levels (including control).
const NumMCS = 13

// Rate returns the PHY rate of an MCS in bits per second.
func (m MCS) Rate() float64 {
	if m < 0 || int(m) >= len(mcsTable) {
		return 0
	}
	return mcsTable[m].rateBps
}

// MinSNRdB returns the SNR threshold required to operate the MCS.
func (m MCS) MinSNRdB() units.DB {
	if m < 0 || int(m) >= len(mcsTable) {
		return units.DB(math.Inf(1))
	}
	return mcsTable[m].minSNRdB
}

// MaxEVM returns the maximum tolerable error vector magnitude for the MCS,
// derived from the paper's cited rule EVM = SINR^{-1/2} (linear SINR).
func (m MCS) MaxEVM() float64 {
	return 1 / math.Sqrt(m.MinSNRdB().Linear())
}

func (m MCS) String() string { return fmt.Sprintf("MCS%d", int(m)) }

// BestMCS returns the highest MCS whose threshold the given SINR meets and
// whether even the control PHY is decodable. MCS0 is reserved for control;
// data transmission uses MCS1–12, so a SINR between the MCS0 and MCS1
// thresholds yields (MCS0, true) but DataRate of 0.
func BestMCS(sinr units.DB) (MCS, bool) {
	best := MCS(-1)
	for i := range mcsTable {
		if sinr >= mcsTable[i].minSNRdB {
			best = MCS(i)
		}
	}
	return best, best >= 0
}

// DataRate returns the data-PHY rate (bps) achievable at a SINR: the rate of
// the best MCS ≥ 1, or 0 if the link cannot carry data.
func DataRate(sinr units.DB) float64 {
	m, ok := BestMCS(sinr)
	if !ok || m < 1 {
		return 0
	}
	return m.Rate()
}

// ControlDecodable reports whether a control-PHY frame (MCS0) is decodable
// at the given SINR.
func ControlDecodable(sinr units.DB) bool { return sinr >= mcsTable[0].minSNRdB }

// NearMissSINR is the near-miss floor: a control frame an aligned listener
// hears above it but cannot decode was lost to interference or blockage,
// while one below it was never within reach. It sits below MCS0's
// decodable SINR.
const NearMissSINR units.DB = -10

// EVMFromSINR converts a SINR in dB to EVM via the paper's cited rule
// (ref [14]): EVM = SINR^{-1/2} with SINR linear.
func EVMFromSINR(sinr units.DB) float64 {
	return 1 / math.Sqrt(sinr.Linear())
}

// Timing collects the control-plane durations from Sec. IV-A.
type Timing struct {
	// Frame is the protocol frame length (paper: 20 ms).
	Frame time.Duration
	// SSW is one sector-sweep frame (paper: 15 µs).
	SSW time.Duration
	// BeamSwitch is the phased-array reconfiguration delay (paper: 1 µs).
	BeamSwitch time.Duration
	// SIFS is the receive-and-process turnaround (paper: 3 µs).
	SIFS time.Duration
	// ControlPreamble is aControlPHYPreambleLength (paper: 4.3 µs), the cost
	// of one candidate setup or update message.
	ControlPreamble time.Duration
	// NegotiationSlot is one DCM slot (paper: 0.03 ms).
	NegotiationSlot time.Duration
	// PositionUpdate is the mobility/link refresh cadence (paper: 5 ms).
	PositionUpdate time.Duration
}

// DefaultTiming returns the paper's timing constants.
func DefaultTiming() Timing {
	return Timing{
		Frame:           20 * time.Millisecond,
		SSW:             15 * time.Microsecond,
		BeamSwitch:      time.Microsecond,
		SIFS:            3 * time.Microsecond,
		ControlPreamble: 4300 * time.Nanosecond,
		NegotiationSlot: 30 * time.Microsecond,
		PositionUpdate:  5 * time.Millisecond,
	}
}

// maxTiming bounds every timing value. The protocols schedule a frame as
// slot counts times these durations on the simulator's int64 nanosecond
// clock, which a longer value could wrap around.
const maxTiming = time.Hour

// Validate reports timing configuration errors.
func (t Timing) Validate() error {
	if t.Frame <= 0 || t.SSW <= 0 || t.BeamSwitch < 0 || t.SIFS < 0 ||
		t.ControlPreamble <= 0 || t.NegotiationSlot <= 0 || t.PositionUpdate <= 0 {
		return fmt.Errorf("phy: non-positive timing value in %+v", t)
	}
	if longest := max(t.Frame, t.SSW, t.BeamSwitch, t.SIFS, t.ControlPreamble, t.NegotiationSlot, t.PositionUpdate); longest > maxTiming {
		return fmt.Errorf("phy: timing value %v exceeds %v in %+v", longest, maxTiming, t)
	}
	if t.NegotiationSlot < 2*t.ControlPreamble {
		return fmt.Errorf("phy: negotiation slot %v cannot fit two control messages of %v",
			t.NegotiationSlot, t.ControlPreamble)
	}
	// Frames start on refresh ticks, so the refresh cadence must tile a
	// frame exactly.
	if t.Frame%t.PositionUpdate != 0 {
		return fmt.Errorf("phy: position update %v does not divide frame %v",
			t.PositionUpdate, t.Frame)
	}
	return nil
}

// SectorSlot returns the duration of one sweep/sense step: a beam switch
// followed by one SSW frame (paper: 16 µs, giving 24·16·2 ≈ 0.8 ms per SND
// round).
func (t Timing) SectorSlot() time.Duration { return t.BeamSwitch + t.SSW }

// CrossSearch returns the length of the UDT beam-refinement cross search
// over cb's narrow beams: each side sweeps its s narrow beams once while the
// other listens, each sweep followed by a turnaround (Sec. III-D).
func (t Timing) CrossSearch(cb Codebook) time.Duration {
	return 2*time.Duration(cb.RefinementBeams())*t.SectorSlot() + 2*t.SIFS
}

// Codebook is the multi-level beam codebook of a phased array: S sector-level
// wide positions for sweeping (width α for Tx, β for Rx) and a dense ring of
// narrow beams (pitch θ_min) for refinement.
type Codebook struct {
	// Sectors is the sector grid (paper: S = 24, pitch θ = 15°).
	Sectors geom.Sectors
	// TxWidth is the sector-sweep transmit beam width α (paper: 30°).
	TxWidth units.Radian
	// RxWidth is the sector-sense receive beam width β (paper: 12°).
	RxWidth units.Radian
	// NarrowWidth is the refined-beam width and pitch θ_min (DESIGN.md: 3°).
	NarrowWidth units.Radian
}

// DefaultCodebook returns the paper's beam configuration.
func DefaultCodebook() Codebook {
	return Codebook{
		Sectors:     geom.Sectors{Count: 24},
		TxWidth:     geom.Deg(30),
		RxWidth:     geom.Deg(12),
		NarrowWidth: geom.Deg(3),
	}
}

// Validate reports codebook configuration errors. Every beam width must lie
// in (0, 2π], the domain of the antenna pattern (channel.NewPattern); NaN
// and ±Inf fail.
func (c Codebook) Validate() error {
	if c.Sectors.Count <= 0 || c.Sectors.Count%2 != 0 {
		return fmt.Errorf("phy: sector count %d must be positive and even", c.Sectors.Count)
	}
	for _, bw := range [...]struct {
		name  string
		width units.Radian
	}{{"tx", c.TxWidth}, {"rx", c.RxWidth}, {"narrow", c.NarrowWidth}} {
		if !(bw.width > 0 && bw.width <= 2*math.Pi) {
			return fmt.Errorf("phy: %s beam width %v rad outside (0, 2π]", bw.name, bw.width)
		}
	}
	if c.NarrowWidth > c.Sectors.Pitch() {
		return fmt.Errorf("phy: narrow beam %v wider than sector pitch %v", c.NarrowWidth, c.Sectors.Pitch())
	}
	return nil
}

// RefinementBeams returns s = ⌊θ/θ_min⌋ + 1, the number of narrow beams each
// side searches during UDT beam refinement (Sec. III-D).
func (c Codebook) RefinementBeams() int {
	return int(math.Floor(c.Sectors.Pitch().Over(c.NarrowWidth))) + 1
}

// NarrowBeamBearing returns the bearing of the k-th refinement beam
// (k in [0, RefinementBeams())) centered around a coarse bearing: the beams
// tile ±θ/2 around it at θ_min pitch.
func (c Codebook) NarrowBeamBearing(coarse geom.Bearing, k int) geom.Bearing {
	s := c.RefinementBeams()
	offset := c.NarrowWidth.Times(float64(k) - float64(s-1)/2)
	return geom.NormalizeBearing(coarse + geom.Bearing(offset))
}

// Beam is a steered antenna configuration: a boresight bearing and a 3 dB
// width. A zero-width beam means quasi-omni.
type Beam struct {
	Bearing geom.Bearing
	Width   units.Radian
}

// Omni is the quasi-omni beam configuration.
var Omni = Beam{}

// IsOmni reports whether the beam is quasi-omni.
//
//mmv2v:exact zero-value sentinel: Omni is the literal Beam{} and real beams always have Width > 0
func (b Beam) IsOmni() bool { return b.Width == 0 }
