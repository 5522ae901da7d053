package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime/pprof"
	"testing"
	"time"

	"mmv2v"
	"mmv2v/internal/phy"
	"mmv2v/internal/xrand"
)

// TestInstrumentedRunMatchesPlainRun pins that the wrapped fleet, the
// bracketing refresh hooks, the wrapped RunFrame and the window monitor never
// perturb the simulation: on every workload, at the first pool trial of the
// shipped and the held-out workload seed, the instrumented run (plain and
// traced) digests exactly like the uninstrumented one, which in turn matches
// the recorded reference.
func TestInstrumentedRunMatchesPlainRun(t *testing.T) {
	for _, w := range workloads() {
		for _, wseed := range []uint64{defaultWorkloadSeed, heldOutWorkloadSeed} {
			t.Run(fmt.Sprintf("%s/seed=%d", w.name, wseed), func(t *testing.T) {
				if testing.Short() && w.grid != nil {
					t.Skip("10k-vehicle drive is slow")
				}
				refs, err := loadDigests(w.name, wseed)
				if err != nil {
					t.Fatal(err)
				}
				want, err := plainDigest(w, wseed, 0)
				if err != nil {
					t.Fatal(err)
				}
				if want != refs[0] {
					t.Errorf("plain run digest %016x, recorded reference %016x", want, refs[0])
				}
				for _, traced := range []bool{false, true} {
					tr, err := runTrial(w, wseed, 0, traced)
					if err != nil {
						t.Fatalf("traced=%v: %v", traced, err)
					}
					if tr.digest != want {
						t.Errorf("traced=%v: instrumented digest %016x, plain %016x", traced, tr.digest, want)
					}
					checkSpans(t, w, tr)
				}
			})
		}
	}
}

// checkSpans sanity-checks one instrumented trial's layer accounting.
func checkSpans(t *testing.T, w workload, tr *trialRun) {
	t.Helper()
	sp := tr.probe.spans
	frames := int(time.Second / phy.DefaultTiming().Frame)
	if sp.frame.n != frames || len(tr.probe.frameMs) != frames || sp.window.n != 1 {
		t.Errorf("%d frames (%d durations) in %d windows, want %d in 1", sp.frame.n, len(tr.probe.frameMs), sp.window.n, frames)
	}
	if d := sp.dispatch(); d.ns < 0 {
		t.Errorf("dispatch remainder %d ns is negative", d.ns)
	}
	if sp.window.ns < sp.frame.ns || sp.frame.ns <= 0 {
		t.Errorf("window %d ns, frames %d ns", sp.window.ns, sp.frame.ns)
	}
	if w.grid == nil && (sp.runFrame.n != frames || sp.hook.n != 4*frames || sp.step.n != 4*frames-1) {
		t.Errorf("%d RunFrame calls, %d hook brackets, %d steps", sp.runFrame.n, sp.hook.n, sp.step.n)
	}
	// The road refreshes after every step, the city drive once per frame.
	stepsPerRefresh := 1
	if w.grid != nil {
		stepsPerRefresh = 4
	}
	if sp.refresh.n*stepsPerRefresh != sp.step.n {
		t.Errorf("%d refreshes for %d steps", sp.refresh.n, sp.step.n)
	}
}

// TestCityDriveMatchesGridWorld pins the city drive's set-up and frame loop
// to mmv2v.NewGridWorld driven the same way.
func TestCityDriveMatchesGridWorld(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-vehicle drive is slow")
	}
	w, err := findWorkload("city-drive-10k")
	if err != nil {
		t.Fatal(err)
	}
	seed := trialSeed(defaultWorkloadSeed, 0)
	b, err := setUp(w, seed, newProbe(false))
	if err != nil {
		t.Fatal(err)
	}
	driveSecond(b.world, newProbe(false))
	g, err := mmv2v.NewGridWorld(*w.grid, seed)
	if err != nil {
		t.Fatal(err)
	}
	timing := phy.DefaultTiming()
	for f := 0; f < int(time.Second/timing.Frame); f++ {
		for k := 0; k < int(timing.Frame/timing.PositionUpdate); k++ {
			g.StepTraffic()
		}
		g.RefreshLinks()
	}
	if got, want := b.world.TotalLinks(), g.TotalLinks(); got != want {
		t.Errorf("instrumented drive has %d links, NewGridWorld %d", got, want)
	}
	if got, want := b.world.AvgNeighborCount(), g.AvgNeighbors(); got != want {
		t.Errorf("instrumented drive averages %v neighbors, NewGridWorld %v", got, want)
	}
}

// TestAttribution checks the CPU-share rule on hand-built stacks (leaf
// first) and that the shares of all modules sum to 1.
func TestAttribution(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"math.log", "math.Log", "mmv2v/internal/channel.(*Model).PathGainLin",
			"mmv2v/internal/world.(*World).Refresh"}, "channel"},
		{[]string{"math.archExp", "math.Exp", "mmv2v/internal/world.(*World).RxPowerMw",
			"mmv2v/internal/medium.(*Medium).deliverGroup", "mmv2v/internal/des.(*Simulator).Run"}, "world"},
		{[]string{"runtime.mallocgc", "runtime.newobject", "mmv2v/internal/des.(*Simulator).ScheduleAt",
			"mmv2v/internal/core.(*Protocol).RunFrame"}, "des"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker", "runtime.goexit"}, gcModule},
		{[]string{"time.Now", "main.(*probe).stamp", "main.(*timedFleet).Step",
			"mmv2v/internal/sim.(*Env).DriveFrames.func1"}, "sim"},
		{[]string{"mmv2v/internal/obs/live.(*Server).Publish"}, "obs"},
		{nil, gcModule},
	}
	var c cpuShares
	for i, tc := range cases {
		got := attribute(tc.stack)
		if got != tc.want {
			t.Errorf("attribute(%q) = %q, want %q", tc.stack, got, tc.want)
		}
		c.add(got, int64(10*(i+1)))
	}
	sum := c.otherShare() + c.share(gcModule)
	for _, m := range shareModules {
		sum += c.share(m)
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("shares sum to %v, want 1", sum)
	}
	if got, want := c.share(gcModule), float64(40+70)/280; math.Abs(got-want) > 1e-12 {
		t.Errorf("gc share %v, want %v", got, want)
	}
	if got, want := c.otherShare(), 60.0/280; math.Abs(got-want) > 1e-12 {
		t.Errorf("other share %v, want %v", got, want)
	}
}

// TestProfileSharesDecodesRealProfile runs the profile decoder over a real
// runtime/pprof CPU profile of a loop spent in internal/xrand.
func TestProfileSharesDecodesRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	var sink uint64
	for start := time.Now(); time.Since(start) < 500*time.Millisecond; {
		for i := uint64(0); i < 1000; i++ {
			sink += xrand.Mix(sink, i)
		}
	}
	pprof.StopCPUProfile()
	c, err := profileShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if c.total <= 0 {
		t.Fatalf("no samples decoded (sink %d)", sink)
	}
	if got := float64(c.byModule["xrand"]) / float64(c.total); got < 0.5 {
		t.Errorf("xrand holds %.2f of the samples, want most of them", got)
	}
	if _, err := profileShares(buf.Bytes()[:buf.Len()/2]); err == nil {
		t.Error("truncated profile decoded without error")
	}
}

// TestHDQuantile checks the Harrell–Davis estimate: it recovers the middle
// of a symmetric sample and moves by a fraction of a gap, not the whole gap,
// when one frame crosses it.
func TestHDQuantile(t *testing.T) {
	sym := []float64{5, 1, 4, 2, 3}
	if got := hdQuantile(sym, 0.5); math.Abs(got-3) > 1e-9 {
		t.Errorf("median of 1..5 = %v, want 3", got)
	}
	// 50 fast frames at 50 ms and 51 slow ones at 80 ms: the plain median is
	// a slow frame; one slow frame turning fast flips it to 50 ms.
	var gap []float64
	for i := 0; i < 101; i++ {
		ms := 50.0
		if i >= 50 {
			ms = 80
		}
		gap = append(gap, ms)
	}
	before := hdQuantile(gap, 0.5)
	gap[len(gap)-1] = 50
	after := hdQuantile(gap, 0.5)
	if before <= 50 || before >= 80 || after >= before {
		t.Errorf("median %v before and %v after a frame crosses the gap", before, after)
	}
	if before-after > 10 {
		t.Errorf("one frame crossing the gap moved the median by %v ms", before-after)
	}
	if got := hdQuantile(nil, 0.9); got != 0 {
		t.Errorf("quantile of no samples = %v, want 0", got)
	}
}

// TestRescale checks how calibration loops rescale an interval: at a loop
// time of twice the nominal every interval halves, between two readings the
// speed is their mean, and without loops nothing changes.
func TestRescale(t *testing.T) {
	nominal := int64(calNominal)
	slow := calSamples{at: []int64{0, 1000, 2000}, d: []int64{2 * nominal, 2 * nominal, 2 * nominal}}
	for _, iv := range [][2]int64{{0, 2000}, {-500, 500}, {1500, 4000}} {
		if got, want := slow.rescale(iv[0], iv[1]), float64(iv[1]-iv[0])/2; math.Abs(got-want) > 1e-9 {
			t.Errorf("rescale%v at half speed = %v, want %v", iv, got, want)
		}
	}
	// Loops of 1× and 3× the nominal around [0, 1000]: mean loop time 2×.
	mixed := calSamples{at: []int64{0, 1000}, d: []int64{nominal, 3 * nominal}}
	if got := mixed.rescale(0, 1000); math.Abs(got-500) > 1e-9 {
		t.Errorf("rescale between 1x and 3x loops = %v, want 500", got)
	}
	if got := mixed.rescale(1000, 1300); math.Abs(got-100) > 1e-9 {
		t.Errorf("rescale after the last loop = %v, want 100", got)
	}
	var none calSamples
	if got := none.rescale(10, 110); got != 100 {
		t.Errorf("rescale without loops = %v, want 100", got)
	}
	var sink float64
	if d := calLoop(&sink); d <= 0 {
		t.Errorf("calibration loop took %v", d)
	}
}

// TestMetricTablesMatchBenchmarkJSON keeps the emitted metrics and the
// workloads in step with the repository's BENCHMARK.json.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads() {
		want = append(want, w.name)
	}
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, want)
	}
	var e2e, layer []metricDef
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range spec.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit, m.Better})
	}
	if fmt.Sprint(e2e) != fmt.Sprint(endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end\n%v\nbenchmark emits\n%v", e2e, endToEnd)
	}
	if fmt.Sprint(layer) != fmt.Sprint(perLayer) {
		t.Errorf("BENCHMARK.json per_layer\n%v\nbenchmark emits\n%v", layer, perLayer)
	}
	// Every metric gets a value even from a run without samples.
	if got := endToEndMetrics(&runStats{}); len(got) != len(endToEnd) {
		t.Errorf("%d end-to-end metrics, want %d", len(got), len(endToEnd))
	}
	for _, w := range workloads() {
		if got := perLayerMetrics(w, &runStats{}, &runStats{}); len(got) != len(perLayer) {
			t.Errorf("%s: %d per-layer metrics, want %d", w.name, len(got), len(perLayer))
		}
	}
}
