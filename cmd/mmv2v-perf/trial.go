package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"time"

	"mmv2v/internal/obs"
	"mmv2v/internal/phy"
	"mmv2v/internal/sim"
	"mmv2v/internal/traffic"
	"mmv2v/internal/world"
	"mmv2v/internal/xrand"
)

// setupTimes splits one trial's set-up: traffic generation, the warm-up
// loop, world.New and the environment (medium, ledger, DES). rescaled is
// the whole set-up's time at the calibration loop's nominal speed, in
// nanoseconds; it equals total() on traced trials.
type setupTimes struct {
	gen, warmup, world, env time.Duration
	rescaled                float64
}

func (s setupTimes) total() time.Duration { return s.gen + s.warmup + s.world + s.env }

// trialRun is everything one trial reports. A trial is one 1 s measurement
// window after its set-up.
type trialRun struct {
	setup   setupTimes
	measure time.Duration
	// rescaled is measure at the calibration loop's nominal speed, in
	// nanoseconds.
	rescaled   float64
	simSec     float64
	allocBytes uint64
	heapLive   uint64
	events     uint64
	digest     uint64
	probe      *probe
	rows       []obs.Row
	cpu        cpuShares
}

// built is a set-up trial ready to measure.
type built struct {
	times setupTimes
	cfg   sim.Config
	world *world.World
	env   *sim.Env // nil for the city drive
}

// setUp builds one trial's scenario with the fleet wrapped by p. It mirrors
// sim.NewEnv (protocol workloads) or mmv2v.NewGridWorld (the city drive)
// step for step, so the instrumented run is the plain run.
func setUp(w workload, seed uint64, p *probe) (*built, error) {
	b := &built{}
	t0 := p.clock()
	p.calibrate()
	var fleet traffic.Fleet
	if w.grid != nil {
		nw, err := traffic.NewNetwork(w.grid.Network(), xrand.New(seed))
		if err != nil {
			return nil, err
		}
		fleet = nw
		b.times.gen = time.Duration(p.clock() - t0)
	} else {
		b.cfg = w.scenario(seed)
		// Traced trials record the layers' exact work counters.
		b.cfg.Stats = p.traced
		if err := b.cfg.Validate(); err != nil {
			return nil, err
		}
		road, err := traffic.New(b.cfg.Traffic, xrand.New(seed))
		if err != nil {
			return nil, err
		}
		fleet = road
		b.times.gen = time.Duration(p.clock() - t0)
		t1 := p.clock()
		dt := b.cfg.Timing.PositionUpdate.Seconds()
		for t, k := 0.0, 0; t < b.cfg.WarmupSec; t, k = t+dt, k+1 {
			if k%warmupCalSteps == 0 {
				p.calibrate()
			}
			road.Step(dt)
		}
		b.times.warmup = time.Duration(p.clock() - t1)
	}
	t2 := p.clock()
	p.calibrate()
	cfg := world.DefaultConfig()
	if w.grid == nil {
		cfg = b.cfg.World
	}
	wld, err := world.New(cfg, &timedFleet{Fleet: fleet, p: p})
	if err != nil {
		return nil, err
	}
	b.world = wld
	b.times.world = time.Duration(p.clock() - t2)
	if w.grid == nil {
		t3 := p.clock()
		if b.env, err = sim.NewEnvWithWorld(b.cfg, wld); err != nil {
			return nil, err
		}
		b.times.env = time.Duration(p.clock() - t3)
	}
	p.calibrate()
	b.times.rescaled = p.cal.rescale(t0, t0+int64(b.times.total()))
	return b, nil
}

// warmupCalSteps is how many warm-up steps run between two calibration
// loops: ten loops over the 2000-step warm-up.
const warmupCalSteps = 200

// runTrial sets up and measures pool trial idx on the calling goroutine's
// OS thread, whose CPU clock times it. A panic anywhere in the program
// becomes the trial's error.
func runTrial(w workload, workloadSeed uint64, idx int, traced bool) (tr *trialRun, err error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	defer func() {
		if r := recover(); r != nil {
			// A no-op unless the panic hit while the profile was running.
			pprof.StopCPUProfile()
			tr, err = nil, fmt.Errorf("trial %d panicked: %v", idx, r)
		}
	}()
	// Collect the previous trial's garbage first, as addSetup does, so no
	// set-up pays for it.
	runtime.GC()
	p := newProbe(traced)
	b, err := setUp(w, trialSeed(workloadSeed, idx), p)
	if err != nil {
		return nil, err
	}
	tr = &trialRun{setup: b.times, probe: p}
	if w.grid != nil && traced {
		// The world's statistics handles are passive counters, like the
		// registry a protocol trial gets from Config.Stats.
		reg := obs.New()
		b.world.SetObs(reg)
		defer func() {
			if tr != nil {
				tr.rows = reg.Rows("")
			}
		}()
	}
	runtime.GC()

	heap := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/live:bytes"}}
	metrics.Read(heap)
	allocs0 := heap[0].Value.Uint64()
	var prof bytes.Buffer
	if traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, fmt.Errorf("start CPU profile: %w", err)
		}
	}
	start, calTime, clock := threadTime(), p.calTime, p.clock()
	var res *sim.Result
	if w.grid != nil {
		driveSecond(b.world, p)
	} else {
		cfg := b.cfg
		cfg.Monitor = windowMonitor{p}
		p.start()
		res, err = sim.RunOnEnv(cfg, b.env, p.instrument(w.factory()))
	}
	tr.measure = threadTime() - start - time.Duration(p.calTime-calTime)
	tr.rescaled = p.cal.rescale(clock, p.clock())
	if traced {
		pprof.StopCPUProfile()
		if tr.cpu, err = profileShares(prof.Bytes()); err != nil {
			return nil, fmt.Errorf("read CPU profile: %w", err)
		}
	}
	if err != nil {
		return nil, err
	}
	metrics.Read(heap)
	tr.allocBytes = heap[0].Value.Uint64() - allocs0
	runtime.GC()
	metrics.Read(heap)
	tr.heapLive = heap[1].Value.Uint64()
	runtime.KeepAlive(b)

	if w.grid != nil {
		tr.simSec = 1
		tr.digest = linksDigest(idx, b.world)
		return tr, nil
	}
	if len(res.Windows) != 1 {
		return nil, fmt.Errorf("trial %d ran %d windows, want 1", idx, len(res.Windows))
	}
	tr.simSec = b.cfg.WindowSec
	tr.events = res.Events
	tr.digest = sim.WindowDigest(idx, res.Windows[0])
	if traced {
		tr.rows = res.Obs.Rows("")
	}
	return tr, nil
}

// driveSecond is the city drive's measured phase: one simulated second of
// 20 ms frames, each four 5 ms traffic steps and one link-table refresh.
func driveSecond(wld *world.World, p *probe) {
	timing := phy.DefaultTiming()
	ticks := int(timing.Frame / timing.PositionUpdate)
	frames := int(time.Second / timing.Frame)
	dt := timing.PositionUpdate.Seconds()
	fleet := wld.Fleet()
	p.start()
	for f := 0; f < frames; f++ {
		p.frameStarts = append(p.frameStarts, p.stamp())
		for k := 0; k < ticks; k++ {
			fleet.Step(dt)
		}
		s := p.stamp()
		p.calibrate()
		wld.Refresh()
		p.spans.refresh.add(s, p.stamp())
	}
	p.windowDone()
}

// linksDigest hashes the world's whole link table in canonical order,
// prefixed with the pool index like sim.WindowDigest.
func linksDigest(idx int, wld *world.World) uint64 {
	h := fnv.New64a()
	var buf []byte
	buf = binary.LittleEndian.AppendUint64(buf, uint64(idx))
	for i := 0; i < wld.NumVehicles(); i++ {
		ls := wld.Links(i)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(len(ls)))
		for _, l := range ls {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(l.J))
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(l.Dist.M()))
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(float64(l.Bearing)))
			buf = binary.LittleEndian.AppendUint64(buf, uint64(l.Blockers))
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(l.PathGainLin))
		}
		// fnv's Write never fails; the hash.Hash interface just carries error.
		_, _ = h.Write(buf)
		buf = buf[:0]
	}
	return h.Sum64()
}
