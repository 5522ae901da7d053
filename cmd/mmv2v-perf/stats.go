package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"time"

	"mmv2v/internal/obs"
	"mmv2v/internal/phy"
	"mmv2v/internal/sim"
	"mmv2v/internal/traffic"
	"mmv2v/internal/world"
	"mmv2v/internal/xrand"
)

// metricDef names one reported metric; BENCHMARK.json lists the same
// names, units and directions.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the simulator sees, reported with
// tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"sim_s_per_host_s", "sim-s/s", "higher"},
	{"frame_p50_ms", "ms", "lower"},
	{"frame_p90_ms", "ms", "lower"},
	{"alloc_mb_per_sim_s", "MB/sim-s", "lower"},
	{"heap_live_mb", "MB", "lower"},
}

// perLayer are the traced run's metrics.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"traffic.step_us", "us", "lower"},
		{"traffic.share", "ratio", "lower"},
		{"traffic.warmup_s", "s", "lower"},
		{"traffic.allocs_per_step", "count", "lower"},
		{"world.build_s", "s", "lower"},
		{"world.refresh_ms", "ms", "lower"},
		{"world.share", "ratio", "lower"},
		{"world.allocs_per_refresh", "count", "lower"},
		{"udt.rate_adapt_us", "us", "lower"},
		{"core.run_frame_us", "us", "lower"},
		{"baseline.run_frame_us", "us", "lower"},
		{"des.dispatch_ms_per_frame", "ms", "lower"},
		{"des.share", "ratio", "lower"},
		{"des.events_per_sim_s", "1/sim-s", "lower"},
		{"des.host_ns_per_event", "ns", "lower"},
		{"des.allocs_per_event", "count", "lower"},
		{"sim.window_ms", "ms", "lower"},
	}
	for _, m := range shareModules {
		defs = append(defs, metricDef{m + ".cpu_share", "ratio", "lower"})
	}
	defs = append(defs,
		metricDef{"other.cpu_share", "ratio", "lower"},
		metricDef{"runtime.gc_share", "ratio", "lower"},
	)
	for _, c := range counters {
		defs = append(defs, metricDef{c.name, "1/sim-s", c.better})
	}
	for _, y := range yields {
		defs = append(defs, metricDef{y.name, "ratio", "higher"})
	}
	return append(defs,
		metricDef{"world.links_per_refresh", "count", "lower"},
		metricDef{"bench.trace_overhead", "ratio", "lower"},
	)
}()

// counters are the Result.Obs counters reported per simulated second. They
// are exact: a change that only makes the simulator faster leaves them
// equal.
var counters = []struct{ name, better string }{
	{"medium.control_tx", "lower"},
	{"medium.control_delivered", "higher"},
	{"medium.control_lost_sinr", "lower"},
	{"medium.rx_beam_aims", "lower"},
	{"medium.stream_starts", "lower"},
	{"snd.ssw_tx", "lower"},
	{"snd.discoveries", "higher"},
	{"dcm.neg_tx", "lower"},
	{"dcm.break_tx", "lower"},
	{"dcm.matches", "higher"},
	{"udt.sessions", "lower"},
	{"udt.pairs_started", "higher"},
	{"udt.completions", "higher"},
	{"rop.sweep_tx", "lower"},
	{"rop.discoveries", "higher"},
	{"rop.matches", "higher"},
	{"ad.beacon_tx", "lower"},
	{"ad.assoc_tx", "lower"},
	{"ad.associations", "higher"},
	{"world.refreshes", "lower"},
	{"world.nlos_links", "lower"},
}

// yields are useful outcomes over attempts, both Result.Obs counters.
var yields = []struct{ name, num, den string }{
	{"medium.decode_per_tx", "medium.control_delivered", "medium.control_tx"},
	{"snd.discovery_yield", "snd.discoveries", "snd.ssw_tx"},
	{"dcm.match_yield", "dcm.matches", "dcm.neg_tx"},
	{"udt.completion_yield", "udt.completions", "udt.pairs_started"},
}

// runStats pools the trials of one run (the plain or the traced passes).
type runStats struct {
	setups, warmups, worldBuilds []float64 // seconds
	frameMs                      []float64
	heapLive                     []float64 // bytes
	simSec                       float64
	measure                      time.Duration
	// The same at the calibration loop's nominal speed (set-ups and frames
	// in seconds and milliseconds, the measured phase in nanoseconds).
	rescaledSetups, rescaledFrameMs []float64
	rescaledMeasure                 float64
	allocBytes                      uint64
	events                          uint64
	spans                           layerSpans
	rows                            map[string]obs.Row
	cpu                             cpuShares
}

// add pools one trial that passed its output check; set-up times are pooled
// by the caller.
func (s *runStats) add(tr *trialRun) {
	s.warmups = append(s.warmups, tr.setup.warmup.Seconds())
	s.worldBuilds = append(s.worldBuilds, tr.setup.world.Seconds())
	s.frameMs = append(s.frameMs, tr.probe.frameMs...)
	for _, f := range tr.probe.frameNs {
		s.rescaledFrameMs = append(s.rescaledFrameMs, tr.probe.cal.rescale(f[0], f[1])/1e6)
	}
	s.rescaledMeasure += tr.rescaled
	s.heapLive = append(s.heapLive, float64(tr.heapLive))
	s.simSec += tr.simSec
	s.measure += tr.measure
	s.allocBytes += tr.allocBytes
	s.events += tr.events
	s.spans.merge(tr.probe.spans)
	s.cpu.merge(tr.cpu)
	for _, r := range tr.rows {
		if s.rows == nil {
			s.rows = make(map[string]obs.Row)
		}
		acc := s.rows[r.Name]
		acc.Count += r.Count
		acc.Sum += r.Sum
		s.rows[r.Name] = acc
	}
}

// addSetup times one set-up that is not measured further.
func (s *runStats) addSetup(w workload, seed uint64) (time.Duration, error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	runtime.GC()
	b, err := setUp(w, seed, newProbe(false))
	if err != nil {
		return 0, err
	}
	s.addSetupTimes(b.times)
	return b.times.total(), nil
}

// addSetupTimes pools one set-up's time, as measured and rescaled.
func (s *runStats) addSetupTimes(t setupTimes) {
	s.setups = append(s.setups, t.total().Seconds())
	s.rescaledSetups = append(s.rescaledSetups, t.rescaled/1e9)
}

// report prints the run's sample counts, and its times as measured, to
// stderr.
func (s *runStats) report(w workload, passes int, stderr io.Writer) {
	p90 := hdQuantile(s.rescaledFrameMs, 0.9)
	beyond := 0
	for _, f := range s.rescaledFrameMs {
		if f > p90 {
			beyond++
		}
	}
	fmt.Fprintf(stderr, "%s: %d passes over %d trials, %.1f sim-s in %.2f host-s; %d frames, %d beyond p90; %d set-ups\n",
		w.name, passes, w.pool, s.simSec, s.measure.Seconds(), len(s.frameMs), beyond, len(s.setups))
	fmt.Fprintf(stderr, "%s: as measured, not rescaled: setup_s %.4f, sim_s_per_host_s %.4f, frame_p50_ms %.3f, frame_p90_ms %.3f\n",
		w.name, hdQuantile(s.setups, 0.5), ratio(s.simSec, s.measure.Seconds()), hdQuantile(s.frameMs, 0.5), hdQuantile(s.frameMs, 0.9))
}

func endToEndMetrics(s *runStats) map[string]metric {
	return emit(endToEnd, map[string]float64{
		"setup_s":            hdQuantile(s.rescaledSetups, 0.5),
		"sim_s_per_host_s":   ratio(s.simSec, s.rescaledMeasure/1e9),
		"frame_p50_ms":       hdQuantile(s.rescaledFrameMs, 0.5),
		"frame_p90_ms":       hdQuantile(s.rescaledFrameMs, 0.9),
		"alloc_mb_per_sim_s": ratio(float64(s.allocBytes)/1e6, s.simSec),
		"heap_live_mb":       median(s.heapLive) / 1e6,
	})
}

// perLayerMetrics splits the traced passes' windows by layer; shares are
// of the windows' host time. plain holds the same trials run untraced, for
// the tracing overhead.
func perLayerMetrics(w workload, plain, tr *runStats) map[string]metric {
	sp := tr.spans
	d := sp.dispatch()
	measureNs := float64(sp.window.ns)
	events := float64(tr.events)
	v := map[string]float64{
		"traffic.step_us":           ratio(float64(sp.step.ns)/1e3, float64(sp.step.n)),
		"traffic.share":             ratio(float64(sp.step.ns), measureNs),
		"traffic.warmup_s":          median(tr.warmups),
		"traffic.allocs_per_step":   ratio(float64(sp.step.objs), float64(sp.step.n)),
		"world.build_s":             median(tr.worldBuilds),
		"world.refresh_ms":          ratio(float64(sp.refresh.ns)/1e6, float64(sp.refresh.n)),
		"world.share":               ratio(float64(sp.refresh.ns), measureNs),
		"world.allocs_per_refresh":  ratio(float64(sp.refresh.objs), float64(sp.refresh.n)),
		"udt.rate_adapt_us":         ratio(float64(sp.hook.ns)/1e3, float64(sp.hook.n)),
		"core.run_frame_us":         0,
		"baseline.run_frame_us":     0,
		"des.dispatch_ms_per_frame": ratio(float64(d.ns)/1e6, float64(sp.frame.n)),
		"des.share":                 ratio(float64(d.ns), measureNs),
		"des.events_per_sim_s":      ratio(events, tr.simSec),
		"des.host_ns_per_event":     ratio(float64(d.ns), events),
		"des.allocs_per_event":      ratio(float64(d.objs), events),
		"sim.window_ms":             ratio(float64(sp.window.ns-sp.frame.ns)/1e6, float64(sp.window.n)),
		"other.cpu_share":           tr.cpu.otherShare(),
		"runtime.gc_share":          tr.cpu.share(gcModule),
		"world.links_per_refresh":   ratio(tr.rows["world.refresh_links"].Sum, float64(tr.rows["world.refresh_links"].Count)),
		"bench.trace_overhead": 1 - ratio(ratio(tr.simSec, tr.measure.Seconds()),
			ratio(plain.simSec, plain.measure.Seconds())),
	}
	if w.layer != "" {
		v[w.layer+".run_frame_us"] = ratio(float64(sp.runFrame.ns)/1e3, float64(sp.runFrame.n))
	}
	for _, m := range shareModules {
		v[m+".cpu_share"] = tr.cpu.share(m)
	}
	for _, c := range counters {
		v[c.name] = ratio(float64(tr.rows[c.name].Count), tr.simSec)
	}
	for _, y := range yields {
		v[y.name] = ratio(float64(tr.rows[y.num].Count), float64(tr.rows[y.den].Count))
	}
	return emit(perLayer, v)
}

// emit pairs every defined metric with its value. A value that cannot be
// computed (no samples) reads 0, since JSON has no NaN.
func emit(defs []metricDef, values map[string]float64) map[string]metric {
	if len(values) != len(defs) {
		panic(fmt.Sprintf("mmv2v-perf: %d metric values for %d definitions", len(values), len(defs)))
	}
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		x, ok := values[d.name]
		if !ok {
			panic("mmv2v-perf: no value for metric " + d.name)
		}
		if math.IsNaN(x) || math.IsInf(x, 0) {
			x = 0
		}
		out[d.name] = metric{Value: x, Unit: d.unit}
	}
	return out
}

// ratio is a/b, or 0 when b is not positive.
func ratio(a, b float64) float64 {
	if b <= 0 {
		return 0
	}
	return a / b
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between order statistics; 0 without
// samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// hdQuantile is the Harrell–Davis estimate of the q-quantile: the mean of
// all order statistics weighted by the Beta((n+1)q, (n+1)(1-q)) mass over
// each one's rank interval. Frame times cluster by what a frame does, and
// a single order statistic jumps across any gap between the clusters when
// frames near the quantile trade ranks; this estimate moves smoothly.
// 0 without samples.
func hdQuantile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	a, b := float64(n+1)*q, float64(n+1)*(1-q)
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	density := func(x float64) float64 {
		if x <= 0 || x >= 1 {
			return 0
		}
		return math.Exp((a-1)*math.Log(x) + (b-1)*math.Log1p(-x) - la - lb + lab)
	}
	// Simpson's rule over each rank interval; dividing by the summed weights
	// absorbs the integration error.
	const steps = 16
	var sum, total float64
	for i, x := range s {
		lo := float64(i) / float64(n)
		h := 1 / float64(n*steps)
		w := density(lo) + density(lo+steps*h)
		for k := 1; k < steps; k++ {
			w += float64(2+2*(k%2)) * density(lo+float64(k)*h)
		}
		sum += w * x
		total += w
	}
	return sum / total
}

// plainDigest runs one pool trial through the uninstrumented path — sim.Run
// for a protocol workload, the NewGridWorld construction for the city
// drive — and returns its digest. It is the reference the recorded digests
// come from.
func plainDigest(w workload, wseed uint64, idx int) (uint64, error) {
	seed := trialSeed(wseed, idx)
	if w.grid == nil {
		res, err := sim.Run(w.scenario(seed), w.factory())
		if err != nil {
			return 0, err
		}
		if len(res.Windows) != 1 {
			return 0, fmt.Errorf("ran %d windows, want 1", len(res.Windows))
		}
		return sim.WindowDigest(idx, res.Windows[0]), nil
	}
	nw, err := traffic.NewNetwork(w.grid.Network(), xrand.New(seed))
	if err != nil {
		return 0, err
	}
	wld, err := world.New(world.DefaultConfig(), nw)
	if err != nil {
		return 0, err
	}
	timing := phy.DefaultTiming()
	dt := timing.PositionUpdate.Seconds()
	for f := 0; f < int(time.Second/timing.Frame); f++ {
		for k := 0; k < int(timing.Frame/timing.PositionUpdate); k++ {
			nw.Step(dt)
		}
		wld.Refresh()
	}
	return linksDigest(idx, wld), nil
}
