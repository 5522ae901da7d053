// Package analytic provides closed-form models of the mmV2V protocol's
// behaviour: the Theorem 2 discovery ratio, the frame airtime budget, the
// link budget of the Eq. 1/Eq. 2 channel (range ↔ SNR ↔ MCS), and the
// expected matching yield of random mutual-choice matching (the ROP
// baseline). The simulator cross-validates against these models in tests;
// users can size deployments (how many rounds? which beam widths? what
// demand fits a frame?) without running simulations.
package analytic

import (
	"fmt"
	"math"
	"time"

	"mmv2v/internal/channel"
	"mmv2v/internal/phy"
	"mmv2v/internal/units"
)

// DiscoveryRatio returns Theorem 2's expected ratio of neighbors identified
// after k discovery rounds with transmitter probability p:
// 1 − [p² + (1−p)²]^k.
func DiscoveryRatio(p float64, k int) float64 {
	if k <= 0 {
		return 0
	}
	return 1 - math.Pow(p*p+(1-p)*(1-p), float64(k))
}

// OptimalRoleProbability returns the p that maximizes DiscoveryRatio for
// any K (Theorem 2: 0.5).
func OptimalRoleProbability() float64 { return 0.5 }

// RoundsForRatio returns the smallest K whose expected discovery ratio with
// p = 0.5 reaches the target (e.g. 0.875 → 3).
func RoundsForRatio(target float64) int {
	if target <= 0 {
		return 0
	}
	if target >= 1 {
		return math.MaxInt32
	}
	// 1 - 0.5^K ≥ target ⇔ K ≥ log2(1/(1-target)).
	return int(math.Ceil(math.Log2(1 / (1 - target))))
}

// FrameBudget decomposes one protocol frame into its phases.
type FrameBudget struct {
	SND        time.Duration
	DCM        time.Duration
	Refinement time.Duration
	UDT        time.Duration
	// UDTFraction is UDT / frame — the data-plane efficiency.
	UDTFraction float64
}

// Budget computes the frame airtime split for a timing + codebook + (K, M)
// operating point. It returns an error if the control plane does not fit
// the frame.
func Budget(t phy.Timing, cb phy.Codebook, k, m int) (FrameBudget, error) {
	if err := t.Validate(); err != nil {
		return FrameBudget{}, err
	}
	if err := cb.Validate(); err != nil {
		return FrameBudget{}, err
	}
	if k <= 0 || m <= 0 {
		return FrameBudget{}, fmt.Errorf("analytic: non-positive K=%d or M=%d", k, m)
	}
	var b FrameBudget
	b.SND = time.Duration(k) * 2 * time.Duration(cb.Sectors.Count) * t.SectorSlot()
	b.DCM = time.Duration(m) * t.NegotiationSlot
	b.Refinement = t.CrossSearch(cb)
	control := b.SND + b.DCM + b.Refinement
	if control >= t.Frame {
		return FrameBudget{}, fmt.Errorf("analytic: control plane %v exceeds frame %v", control, t.Frame)
	}
	b.UDT = t.Frame - control
	b.UDTFraction = float64(b.UDT) / float64(t.Frame)
	return b, nil
}

// LinkBudget evaluates the Eq. 1 + Eq. 2 link at one distance.
type LinkBudget struct {
	DistanceM  units.Meter
	PathLossDB units.DB
	TxGainDBi  units.DB
	RxGainDBi  units.DB
	RxPowerDBm units.DBm
	SNRdB      units.DB
	MCS        phy.MCS
	RateBps    float64
}

// Link computes the boresight-aligned link budget at a distance for given
// 3 dB beam widths, with no blockers and no interference.
func Link(params channel.Params, dist units.Meter, txWidth, rxWidth units.Radian) (LinkBudget, error) {
	model, err := channel.NewModel(params)
	if err != nil {
		return LinkBudget{}, err
	}
	tx := channel.NewPattern(txWidth, params.SideLobeDB)
	rx := channel.NewPattern(rxWidth, params.SideLobeDB)
	lb := LinkBudget{
		DistanceM:  dist,
		PathLossDB: model.PathLossDB(dist, 0),
		TxGainDBi:  tx.PeakGainDB(),
		RxGainDBi:  rx.PeakGainDB(),
	}
	lb.RxPowerDBm = params.TxPowerDBm.Plus(lb.TxGainDBi).Plus(lb.RxGainDBi).Plus(-lb.PathLossDB)
	lb.SNRdB = lb.RxPowerDBm.Minus(model.NoiseDBm())
	mcs, ok := phy.BestMCS(lb.SNRdB)
	if ok {
		lb.MCS = mcs
		lb.RateBps = phy.DataRate(lb.SNRdB)
	} else {
		lb.MCS = -1
	}
	return lb, nil
}

// RangeForSNR returns the largest distance at which the boresight-aligned
// link still reaches the given SNR, found by bisection on the monotone
// Eq. 1 loss. Returns 0 if even 1 m fails.
func RangeForSNR(params channel.Params, txWidth, rxWidth units.Radian, minSNR units.DB) (units.Meter, error) {
	lo, hi := units.Meter(1), units.Meter(2000)
	at := func(d units.Meter) (units.DB, error) {
		lb, err := Link(params, d, txWidth, rxWidth)
		if err != nil {
			return 0, err
		}
		return lb.SNRdB, nil
	}
	s, err := at(lo)
	if err != nil {
		return 0, err
	}
	if s < minSNR {
		return 0, nil
	}
	if s, _ := at(hi); s >= minSNR {
		return hi, nil
	}
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		s, err := at(mid)
		if err != nil {
			return 0, err
		}
		if s >= minSNR {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, nil
}

// RandomMatchYield returns the expected fraction of vehicles matched by one
// round of random mutual choice when every vehicle has degree d (each picks
// a uniform neighbor; a pair matches iff they pick each other):
// P(matched) = d · (1/d) · (1/d) = 1/d.
func RandomMatchYield(degree float64) float64 {
	if degree < 1 {
		return 0
	}
	return 1 / degree
}

// FrameThroughputBound returns the maximum data (bits) one matched pair can
// exchange in a frame at an MCS rate, given the frame budget — the quantity
// that decides how many frames a pair needs to complete the paper's 200 Mb
// HRIE unit.
func FrameThroughputBound(b FrameBudget, rateBps float64) float64 {
	return rateBps * b.UDT.Seconds()
}

// FramesToComplete returns the number of dedicated frames a pair needs to
// exchange demandBits at an MCS rate.
func FramesToComplete(b FrameBudget, rateBps, demandBits float64) int {
	perFrame := FrameThroughputBound(b, rateBps)
	if perFrame <= 0 {
		return math.MaxInt32
	}
	return int(math.Ceil(demandBits / perFrame))
}
