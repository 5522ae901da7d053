package traffic

import (
	"testing"

	"mmv2v/internal/xrand"
)

func benchStep(b *testing.B, density float64) {
	b.Helper()
	r, err := New(DefaultConfig(density), xrand.New(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Step(0.005)
	}
}

func BenchmarkStep15vpl(b *testing.B) { benchStep(b, 15) }
func BenchmarkStep30vpl(b *testing.B) { benchStep(b, 30) }

// BenchmarkStep60vpl matches the world bench ceiling: twice the paper's top
// density, exercising the per-lane group rebuild at its worst case.
func BenchmarkStep60vpl(b *testing.B) { benchStep(b, 60) }

// BenchmarkStepGrid10k measures one 5 ms mobility step of the 10k-vehicle
// city network — segment group rebuilds, IDM and intersection handoffs.
func BenchmarkStepGrid10k(b *testing.B) {
	nw, err := NewNetwork(DefaultGridConfig(10000).Network(), xrand.New(1))
	if err != nil {
		b.Fatal(err)
	}
	// Let the first steps grow the network's buffers before timing, so
	// B/op and allocs/op read the steady state rather than one-time growth
	// divided by b.N.
	for i := 0; i < 200; i++ {
		nw.Step(0.005)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nw.Step(0.005)
	}
}
