package mmv2v_test

// One benchmark per paper table/figure (see DESIGN.md §4). Each bench runs
// a reduced-scale but structurally complete version of the experiment —
// same code paths as `mmv2v-experiments`, smaller trial counts and windows
// so `go test -bench=.` finishes in minutes. The absolute figures printed
// by the harness come from cmd/mmv2v-experiments at full scale.

import (
	"testing"

	"mmv2v"
)

// BenchmarkTheorem2Validation regenerates the Theorem 2 discovery-ratio
// check: empirical role-coin Monte Carlo vs 1 − [p²+(1−p)²]^K.
func BenchmarkTheorem2Validation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		opts := mmv2v.DefaultTheorem2Options()
		opts.Seed = uint64(i + 1)
		opts.Pairs = 5000
		opts.MeasureInSim = false
		if _, err := mmv2v.ValidateTheorem2(opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6CapacityVsSlots regenerates Fig. 6: capacity per vehicle as
// a function of negotiation slots for small/large CNS constants.
func BenchmarkFig6CapacityVsSlots(b *testing.B) {
	for i := 0; i < b.N; i++ {
		opts := mmv2v.Fig6Options{
			Run:       mmv2v.ExperimentRun{Seed: uint64(i + 1), Trials: 1},
			Densities: []float64{12},
			CValues:   []int{1, 7, 12},
			MaxSlots:  40,
			Frames:    1,
		}
		if _, err := mmv2v.ReproduceFig6(opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7DiscoveryRounds regenerates Fig. 7: OCR/ATP CDFs across
// discovery round counts K.
func BenchmarkFig7DiscoveryRounds(b *testing.B) {
	for i := 0; i < b.N; i++ {
		opts := mmv2v.Fig7Options{
			Run:         mmv2v.ExperimentRun{Seed: uint64(i + 1), Trials: 1},
			DensityVPL:  12,
			KValues:     []int{1, 3},
			M:           40,
			CurvePoints: 11,
		}
		if _, err := mmv2v.ReproduceFig7(opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8NegotiationSlots regenerates Fig. 8: OCR/ATP CDFs across
// negotiation slot counts M.
func BenchmarkFig8NegotiationSlots(b *testing.B) {
	for i := 0; i < b.N; i++ {
		opts := mmv2v.Fig8Options{
			Run:         mmv2v.ExperimentRun{Seed: uint64(i + 1), Trials: 1},
			DensityVPL:  12,
			MValues:     []int{20, 40},
			K:           3,
			CurvePoints: 11,
		}
		if _, err := mmv2v.ReproduceFig8(opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig9Comparison regenerates Fig. 9: the three-protocol comparison
// at one density (the full density sweep is cmd/mmv2v-experiments -fig 9).
func BenchmarkFig9Comparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		opts := mmv2v.Fig9Options{
			Run:       mmv2v.ExperimentRun{Seed: uint64(i + 1), Trials: 1},
			Densities: []float64{15},
		}
		if _, err := mmv2v.ReproduceFig9(opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation regenerates the design-choice ablation at reduced
// scale.
func BenchmarkAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		opts := mmv2v.AblationOptions{Run: mmv2v.ExperimentRun{Seed: uint64(i + 1), Trials: 1}, DensityVPL: 10}
		if _, err := mmv2v.RunAblation(opts); err != nil {
			b.Fatal(err)
		}
	}
}

// benchProtocolSecond measures the cost of simulating one full second of a
// protocol at a density — the simulator's core workload.
func benchProtocolSecond(b *testing.B, density float64, f mmv2v.Factory) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		cfg := mmv2v.DefaultScenario(density, uint64(i+1))
		if _, err := mmv2v.Run(cfg, f); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMMV2VSecond15vpl(b *testing.B) {
	benchProtocolSecond(b, 15, mmv2v.MMV2V(mmv2v.DefaultParams()))
}

func BenchmarkMMV2VSecond30vpl(b *testing.B) {
	benchProtocolSecond(b, 30, mmv2v.MMV2V(mmv2v.DefaultParams()))
}

func BenchmarkROPSecond15vpl(b *testing.B) {
	benchProtocolSecond(b, 15, mmv2v.ROP(mmv2v.DefaultROPParams()))
}

func BenchmarkADSecond15vpl(b *testing.B) {
	benchProtocolSecond(b, 15, mmv2v.AD(mmv2v.DefaultADParams()))
}

func BenchmarkOracleSecond15vpl(b *testing.B) {
	benchProtocolSecond(b, 15, mmv2v.Oracle(mmv2v.DefaultParams()))
}
