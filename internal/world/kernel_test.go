package world

import (
	"math"
	"testing"

	"mmv2v/internal/channel"
	"mmv2v/internal/geom"
	"mmv2v/internal/phy"
	"mmv2v/internal/units"
)

// FuzzGainKernel holds each Eq. 2 gain written out in RxPowerMwOn to
// channel.Pattern.Gain(geom.AngleDiff(boresight, toward)) bit for bit, on
// both sides of the link. The side under test is isolated in a world whose
// transmit power is exactly 1 mW, over an entry of path gain 1, with the
// other side quasi-omni (gain exactly 1): the kernel's product is then the
// gain itself, with no rounding. Every call checks the codebook's three
// widths, quasi-omni and, when it lies in (0, 2π], the fuzzed width.
func FuzzGainKernel(f *testing.F) {
	cb := phy.DefaultCodebook()
	params := channel.DefaultParams()
	params.TxPowerDBm = 0
	model, err := channel.NewModel(params)
	if err != nil {
		f.Fatal(err)
	}
	//mmv2v:exact the seeds' isolation needs the 0 dBm power to convert to exactly 1 mW
	if model.TxPowerMw() != 1 {
		f.Fatalf("0 dBm converts to %v mW, not exactly 1", model.TxPowerMw())
	}
	f.Add(0.0, math.Pi, 0.0)
	f.Add(0.0, -math.Pi, 0.0)
	f.Add(math.Pi, 0.0, 1.0)
	f.Add(1.25, 1.25, 2*math.Pi)
	for _, width := range []units.Radian{cb.TxWidth, cb.RxWidth, cb.NarrowWidth} {
		theta1 := channel.NewPattern(width, params.SideLobeDB).Theta1.Rad()
		f.Add(0.0, theta1, width.Rad())
		f.Add(1.0, 1.0-theta1, width.Rad())
		f.Add(0.0, math.Nextafter(theta1, 0), width.Rad())
	}
	f.Add(7.5, -5.0, 0.3)
	f.Add(-20.0, 40.0, 0.01)
	f.Add(1e17, -3.0, 6.0)
	f.Add(math.NaN(), 0.0, 0.5)
	f.Add(0.0, math.Inf(1), 0.5)
	f.Add(math.Inf(-1), 1.0, 0.5)
	f.Fuzz(func(t *testing.T, boresight, toward, width float64) {
		w := &World{model: model, patterns: channel.NewPatternCache(params.SideLobeDB), omni: channel.OmniPattern()}
		widths := []units.Radian{0, cb.TxWidth, cb.RxWidth, cb.NarrowWidth}
		if width > 0 && width <= 2*math.Pi {
			widths = append(widths, units.Radian(width))
		}
		omni := w.Aim(phy.Omni)
		for _, bw := range widths {
			beam := w.Aim(phy.Beam{Bearing: geom.Bearing(boresight), Width: bw})
			want := beam.pattern.Gain(geom.AngleDiff(beam.Bearing, geom.Bearing(toward)))
			l := Payload{Bearing: geom.Bearing(toward), BackBearing: geom.Bearing(toward), PathGainLin: 1}
			gTx := w.RxPowerMwOn(&l, beam, omni).MW()
			gRx := w.RxPowerMwOn(&l, omni, beam).MW()
			if math.Float64bits(gTx) != math.Float64bits(want) || math.Float64bits(gRx) != math.Float64bits(want) {
				t.Fatalf("width %v, boresight %v, toward %v: kernel gains tx %v, rx %v; Pattern.Gain %v",
					bw, boresight, toward, gTx, gRx, want)
			}
		}
	})
}
