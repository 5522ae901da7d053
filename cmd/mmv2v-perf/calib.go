package main

import (
	"math"
	"time"
)

// The calibration loop is a fixed amount of scalar floating-point work of
// the kind the simulator's hot paths do — logarithms, exponentials and
// square roots over a cache-resident table. It takes about calNominal on an
// undisturbed 2-vCPU x86-64 host. Untraced runs run it at every 5 ms tick,
// at frame and window boundaries and through every set-up, and rescale each
// measured interval by calNominal over the loop's times around it. On a
// shared host the core's speed drifts by up to 2× as other tenants come and
// go, and that drift slows the loop and the simulator alike; a rescaled
// time is what the interval would have taken at the nominal speed.
const (
	calNominal = 100 * time.Microsecond
	calIters   = 6600
)

var calTable = func() (t [1024]float64) {
	for i := range t {
		t[i] = 1 + float64(i)/7
	}
	return t
}()

// calLoop runs the calibration work once and returns the thread CPU time it
// took. Adding the result to *sink keeps the compiler from dropping the
// work.
func calLoop(sink *float64) time.Duration {
	start := threadTime()
	s := 0.0
	for i := 0; i < calIters; i++ {
		x := calTable[(i*37)&1023]
		s += math.Log(x) + math.Sqrt(x) + math.Exp(-x)
	}
	*sink += s
	return threadTime() - start
}

// calSamples are the calibration loops of one trial: where each ran on the
// probe's clock and how long it took, in nanoseconds.
type calSamples struct {
	at, d []int64
	sink  float64
}

// rescale returns the nanoseconds the interval [a, b] of the probe's clock
// would have taken at the nominal speed. Between two loops the speed is
// taken as the mean of their two readings, before the first and after the
// last as that loop's reading. Without loops it returns b − a.
func (c *calSamples) rescale(a, b int64) float64 {
	n := len(c.at)
	if n == 0 || b <= a {
		return float64(b - a)
	}
	nominal := float64(calNominal)
	// piece adds the part of [a, b] inside [lo, hi] at the given loop time.
	var sum float64
	piece := func(lo, hi int64, loop float64) {
		lo, hi = max(lo, a), min(hi, b)
		if hi > lo {
			sum += float64(hi-lo) * nominal / loop
		}
	}
	piece(math.MinInt64, c.at[0], float64(c.d[0]))
	for k := 0; k+1 < n; k++ {
		piece(c.at[k], c.at[k+1], float64(c.d[k]+c.d[k+1])/2)
	}
	piece(c.at[n-1], math.MaxInt64, float64(c.d[n-1]))
	return sum
}
