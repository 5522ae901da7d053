package medium

import (
	"bytes"
	"fmt"
	"math"
	"testing"
	"time"

	"mmv2v/internal/des"
	"mmv2v/internal/geom"
	"mmv2v/internal/obs"
	"mmv2v/internal/phy"
	"mmv2v/internal/traffic"
	"mmv2v/internal/units"
	"mmv2v/internal/world"
	"mmv2v/internal/xrand"
)

// resolveAllPairs is resolve over the all-pairs reference resolution. It
// retires with resolve's own step: this oracle checks deliverGroup, and
// TestExactRetirementMatchesGrace checks the retirement.
func (m *Medium) resolveAllPairs() {
	now := m.sim.Now()
	delete(m.resolveAt, now)
	var group []*transmission
	for _, tx := range m.active {
		if tx.end == now && !tx.stream && !tx.resolved {
			tx.resolved = true
			group = append(group, tx)
		}
	}
	if len(group) > 0 {
		m.deliverGroupAllPairs(group)
	}
	m.retire(now)
}

// deliverGroupAllPairs is the plain resolution deliverGroup replaced, kept
// as the reference it must match bit for bit: every listener walks every
// active transmission and evaluates RxPowerMw once for its interference
// total and again for each batch frame's desired signal. A frame below
// silentBelow is counted as silent, as decode counts it.
func (m *Medium) deliverGroupAllPairs(group []*transmission) {
	noise := m.w.Channel().NoiseMw()
	n := m.w.NumVehicles()
	now := m.sim.Now()
	for j := 0; j < n; j++ {
		l := &m.listeners[j]
		if !l.active {
			continue
		}
		if m.faults != nil && !m.faults.RadioUp(j, now) {
			continue
		}
		groupStart := group[0].start
		for _, g := range group {
			if g.start < groupStart {
				groupStart = g.start
			}
		}
		total := units.MilliWatt(0)
		selfBusy := false
		evals := uint64(0)
		for _, tx := range m.active {
			if !overlaps(tx.start, tx.end, groupStart, now) {
				continue
			}
			if int(tx.from) == j {
				selfBusy = true
				continue
			}
			from := int(tx.from)
			if m.faults != nil && !m.faults.RadioUp(from, now) {
				continue
			}
			// RxPowerMw runs the gain kernel only for a pair in range.
			if _, ok := m.w.Link(j, from); ok {
				evals++
			}
			total += m.w.RxPowerMw(from, j, tx.beam, l.beam)
		}
		if selfBusy {
			continue
		}
		// The work counters count each interference term once: the
		// desired signals below are the same evaluations again. A listener
		// with no live batch frame in range decodes nothing, so its terms
		// count as no evaluations.
		m.obsListenerVisit.Inc()
		for _, g := range group {
			if _, ok := m.w.Link(j, int(g.from)); ok && (m.faults == nil || m.faults.RadioUp(int(g.from), now)) {
				m.obsPowerEvals.Add(evals)
				break
			}
		}
		for _, g := range group {
			from := int(g.from)
			if from == j {
				continue
			}
			if l.since > g.start {
				continue
			}
			if m.faults != nil && !m.faults.RadioUp(from, now) {
				continue
			}
			desired := m.w.RxPowerMw(from, j, g.beam, l.beam)
			//mmv2v:exact RxPowerMw returns exactly 0 as its out-of-range/beam-miss sentinel
			if desired == 0 {
				continue
			}
			rest := noise + (total - desired)
			if desired < rest.Times(silentBelow) {
				m.obsControlSilent.Inc()
				continue
			}
			sinr := units.RatioDB(desired, rest)
			m.obsControlSINRdB.Observe(sinr.Decibels())
			if phy.ControlDecodable(sinr) {
				if m.faults != nil && m.faults.DropControl(from, j, now) {
					m.obsControlFault.Inc()
					continue
				}
				m.obsControlDeliv.Inc()
				h := l.handler
				h(Delivery{
					From:   from,
					To:     j,
					Frame:  g.frame,
					SINRdB: sinr,
					SNRdB:  units.RatioDB(desired, noise),
					At:     m.sim.Now(),
				})
				if !l.active {
					break
				}
			} else if sinr > -10 {
				m.obsControlLost.Inc()
			}
		}
	}
}

// fakeFaults is a pure fault model: every verdict is a hash of its
// arguments. A non-nil asked records each (vehicle, time) whose radio was
// asked about.
type fakeFaults struct {
	seed  uint64
	asked map[[2]int64]bool
}

func (f *fakeFaults) RadioUp(i int, at des.Time) bool {
	if f.asked != nil {
		f.asked[[2]int64{int64(i), int64(at)}] = true
	}
	return xrand.Mix(f.seed, 1, uint64(i), uint64(at))%4 != 0
}

func (f *fakeFaults) DropControl(from, to int, at des.Time) bool {
	return xrand.Mix(f.seed, 2, uint64(from), uint64(to), uint64(at))%4 == 0
}

func (f *fakeFaults) TxDelay(from int, at des.Time) time.Duration {
	return time.Duration(xrand.Mix(f.seed, 3, uint64(from), uint64(at)) % 2000)
}

// oracleCase is one randomized resolution: a medium state at instant now
// and the seed of the handlers' side effects.
type oracleCase struct {
	now       des.Time
	listeners []listener // handler nil: installed per run
	active    []transmission
	faults    bool
	seed      uint64
}

// randomBeam draws a beam of a protocol width (or quasi-omni) for vehicle
// v: half the time aimed at one of its link partners, otherwise at a
// random bearing.
func randomBeam(rng *xrand.Source, w *world.World, v int) phy.Beam {
	widths := []units.Radian{0, geom.Deg(3), geom.Deg(12), geom.Deg(30)}
	b := phy.Beam{Bearing: geom.Bearing(rng.Float64() * 2 * math.Pi), Width: widths[rng.Intn(len(widths))]}
	if ls := w.Links(v); len(ls) > 0 && rng.Bool(0.5) {
		b.Bearing = ls[rng.Intn(len(ls))].Bearing
	}
	return b
}

// newOracleCase draws listeners with random beams and aim times, a batch of
// control frames ending at now with distinct starts (the slot-jitter case),
// frames still on the air or already resolved, streams, and transmissions
// that miss the batch window, in random m.active order.
func newOracleCase(rng *xrand.Source, w *world.World) oracleCase {
	n := w.NumVehicles()
	now := des.At(time.Millisecond + time.Duration(rng.Intn(1000))*time.Microsecond)
	us := func(lo, hi int) time.Duration { return time.Duration(lo*1000 + rng.Intn((hi-lo)*1000)) }
	c := oracleCase{now: now, listeners: make([]listener, n), faults: rng.Bool(0.5), seed: rng.Uint64()}
	// Some cases have only a listener or two, so that under faults no
	// listener may be live at all.
	listenP := 0.6
	if rng.Bool(0.2) {
		listenP = 0.02
	}
	for j := range c.listeners {
		if rng.Bool(listenP) {
			c.listeners[j] = listener{beam: randomBeam(rng, w, j), since: now.Add(-us(0, 40)), active: true}
		}
	}
	add := func(from int, start, end des.Time, stream, resolved bool) {
		c.active = append(c.active, transmission{
			from: int32(from), beam: randomBeam(rng, w, from), start: start, end: end,
			frame: Frame{Index: int32(len(c.active))}, stream: stream, resolved: resolved,
		})
	}
	for v := 0; v < n; v++ {
		switch r := rng.Float64(); {
		case r < 0.4: // batch frame, jittered start
			add(v, now.Add(-us(13, 17)), now, false, false)
		case r < 0.47: // overlapping frame that ends later
			add(v, now.Add(-us(1, 30)), now.Add(us(1, 30)), false, false)
		case r < 0.52: // resolved frame lingering in its grace window
			add(v, now.Add(-us(20, 40)), now.Add(-us(1, 12)), false, true)
		case r < 0.6: // data stream
			add(v, now.Add(-us(1, 5000)), des.Infinity, true, false)
		case r < 0.65: // misses the window: ended long before, or starts now
			add(v, now.Add(-us(200, 300)), now.Add(-us(150, 199)), false, true)
		case r < 0.7:
			add(v, now, now.Add(us(1, 20)), false, false)
		}
		if rng.Bool(0.05) { // a second signal from the same vehicle
			add(v, now.Add(-us(1, 5000)), des.Infinity, true, false)
		}
	}
	rng.Shuffle(len(c.active), func(a, b int) { c.active[a], c.active[b] = c.active[b], c.active[a] })
	return c
}

// oracleRun is what one resolution did, in comparable form.
type oracleRun struct {
	calls []string
	// outcomes tallies delivered, SINR-lost and fault-lost frames, the
	// handlers' StopStream removals and Resets (each forces a re-index), and
	// the silent frames, heard below the near-miss floor. All but the
	// removals are read from the registry, and are 0 when statistics are
	// off.
	outcomes  [5]uint64
	stats     []byte
	asked     map[[2]int64]bool
	active    []string
	listeners []string
}

// runOracleCase installs c on a fresh medium over w and resolves it with
// resolve, with a statistics registry installed or not. Handlers log every
// call bit for bit, then draw a side effect from a per-run RNG: re-aim or
// stop their own receiver, start or stop another vehicle's, transmit, start
// or stop a stream, or reset the medium.
func runOracleCase(w *world.World, c oracleCase, resolve func(*Medium), stats bool) oracleRun {
	sim := des.New()
	m := New(sim, w)
	var reg *obs.Registry
	if stats {
		reg = obs.New()
		m.SetObs(reg)
	}
	var ff *fakeFaults
	if c.faults {
		ff = &fakeFaults{seed: c.seed, asked: map[[2]int64]bool{}}
		m.SetFaults(ff)
	}
	var run oracleRun
	rng := xrand.New(c.seed)
	n := w.NumVehicles()
	var streams []StreamID
	var handler func(j int) Handler
	handler = func(j int) Handler {
		return func(d Delivery) {
			run.calls = append(run.calls, fmt.Sprintf("rx%d %d->%d %+v sinr=%016x snr=%016x at=%d",
				j, d.From, d.To, d.Frame, math.Float64bits(d.SINRdB.Decibels()),
				math.Float64bits(d.SNRdB.Decibels()), d.At))
			other := rng.Intn(n)
			switch r := rng.Float64(); {
			case r < 0.1:
				m.StartListen(j, randomBeam(rng, w, j), handler(j))
			case r < 0.15:
				m.StopListen(j)
			case r < 0.2:
				m.StopListen(other)
			case r < 0.25:
				m.StartListen(other, randomBeam(rng, w, other), handler(other))
			case r < 0.3:
				m.Transmit(j, randomBeam(rng, w, j), 15*time.Microsecond, Frame{Kind: KindNeg, Dest: int32(d.From)})
			case r < 0.35 && len(streams) > 0:
				m.StopStream(streams[rng.Intn(len(streams))])
			case r < 0.38:
				m.StartStream(other, randomBeam(rng, w, other))
			case r < 0.39:
				m.Reset()
			}
		}
	}
	for j, l := range c.listeners {
		if l.active {
			l.handler = handler(j)
			m.listeners[j] = l
		}
	}
	for k := range c.active {
		tx := c.active[k] // each run owns its copies
		tx.id = m.nextID
		m.nextID++
		m.active = append(m.active, &tx)
		if tx.stream {
			streams = append(streams, StreamID(tx.id))
		}
	}
	sim.ScheduleAt(c.now, "resolve", func() { resolve(m) })
	sim.Run(c.now + 1)

	count := func(name string) uint64 { return reg.Counter(name).Value() }
	run.outcomes = [5]uint64{count("medium.control_delivered"), count("medium.control_lost_sinr"),
		count("medium.control_fault_lost"), m.removals, count("medium.control_silent")}
	if reg != nil {
		rows := reg.Rows("")
		var buf bytes.Buffer
		if err := obs.WriteCSV(&buf, rows); err != nil {
			panic(err)
		}
		run.stats = buf.Bytes()
	}
	if ff != nil {
		run.asked = ff.asked
	}
	for _, tx := range m.active {
		run.active = append(run.active, fmt.Sprintf("%d resolved=%v", tx.id, tx.resolved))
	}
	for j, l := range m.listeners {
		if l.active {
			run.listeners = append(run.listeners, fmt.Sprintf("%d %v %v", j, l.beam, l.since))
		}
	}
	return run
}

// namedWorld is a world the differential test draws cases on.
type namedWorld struct {
	name string
	w    *world.World
}

// oracleWorlds builds the paper's straight road at two densities (1-D
// geometry) and a small city grid (2-D geometry).
func oracleWorlds(t *testing.T) []namedWorld {
	t.Helper()
	var worlds []namedWorld
	for _, density := range []float64{8, 20} {
		road, err := traffic.New(traffic.DefaultConfig(density), xrand.New(uint64(density)))
		if err != nil {
			t.Fatal(err)
		}
		w, err := world.New(world.DefaultConfig(), road)
		if err != nil {
			t.Fatal(err)
		}
		worlds = append(worlds, namedWorld{fmt.Sprintf("road%g", density), w})
	}
	grid := traffic.DefaultGridConfig(120)
	grid.Rows, grid.Cols, grid.BlockM = 3, 3, 150
	nw, err := traffic.NewNetwork(grid.Network(), xrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	w, err := world.New(world.DefaultConfig(), nw)
	if err != nil {
		t.Fatal(err)
	}
	return append(worlds, namedWorld{"grid", w})
}

// TestDeliverGroupMatchesAllPairs drives the neighbor-indexed resolution and
// the all-pairs reference over randomized cases and requires the same
// handler calls (SINR and SNR compared bit for bit), statistics (every
// counter, and the SINR histogram's float sum), fault-model queries, and
// final medium state. Each case runs the resolution a second time with
// statistics off: everything but the statistics must still match the
// reference.
func TestDeliverGroupMatchesAllPairs(t *testing.T) {
	cases := 150
	if testing.Short() {
		cases = 30
	}
	for _, nw := range oracleWorlds(t) {
		rng := xrand.New(xrand.HashString(nw.name))
		var outcomes [5]uint64
		for k := 0; k < cases; k++ {
			c := newOracleCase(rng, nw.w)
			label := fmt.Sprintf("%s case %d (faults=%v)", nw.name, k, c.faults)
			got := runOracleCase(nw.w, c, (*Medium).resolve, true)
			want := runOracleCase(nw.w, c, (*Medium).resolveAllPairs, true)
			compareOracleRuns(t, label, got, want)
			quiet := runOracleCase(nw.w, c, (*Medium).resolve, false)
			wantQuiet := want
			wantQuiet.stats = nil
			compareOracleRuns(t, label+" statistics off", quiet, wantQuiet)
			for i, v := range want.outcomes {
				outcomes[i] += v
			}
		}
		// The cases must reach every branch: decoded, lost to SINR, lost to
		// the fault model, re-indexed after a handler's StopStream, and heard
		// below the near-miss floor.
		for i, what := range []string{"delivered", "SINR-lost", "fault-lost", "re-index", "below-floor"} {
			if outcomes[i] == 0 {
				t.Errorf("%s: no %s outcome over %d cases", nw.name, what, cases)
			}
		}
		t.Logf("%s: %d cases, delivered/lost/fault-lost/removals/below-floor %v", nw.name, cases, outcomes)
	}
}

// compareOracleRuns compares a run with its reference run.
func compareOracleRuns(t *testing.T, label string, got, want oracleRun) {
	t.Helper()
	if len(got.calls) != len(want.calls) {
		t.Errorf("%s: %d handler calls, reference made %d", label, len(got.calls), len(want.calls))
	}
	for i := 0; i < len(got.calls) && i < len(want.calls); i++ {
		if got.calls[i] != want.calls[i] {
			t.Errorf("%s: handler call %d\n got  %s\n want %s", label, i, got.calls[i], want.calls[i])
			break
		}
	}
	if !bytes.Equal(got.stats, want.stats) {
		t.Errorf("%s: statistics differ\n got\n%s want\n%s", label, got.stats, want.stats)
	}
	if len(got.asked) != len(want.asked) {
		t.Errorf("%s: fault model asked about %d radios, reference %d", label, len(got.asked), len(want.asked))
	}
	for q := range want.asked {
		if !got.asked[q] {
			t.Errorf("%s: radio %d at %d never asked", label, q[0], q[1])
			break
		}
	}
	if fmt.Sprint(got.active) != fmt.Sprint(want.active) {
		t.Errorf("%s: active list %v, reference %v", label, got.active, want.active)
	}
	if fmt.Sprint(got.listeners) != fmt.Sprint(want.listeners) {
		t.Errorf("%s: listeners %v, reference %v", label, got.listeners, want.listeners)
	}
}
