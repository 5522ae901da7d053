package medium

import (
	"bytes"
	"fmt"
	"math"
	"testing"
	"time"

	"mmv2v/internal/des"
	"mmv2v/internal/obs"
	"mmv2v/internal/world"
	"mmv2v/internal/xrand"
)

// retireGraceOnly is the retirement retire replaced, kept as its reference:
// a resolved frame stays for retireGrace after it ended, whatever is still
// pending, and dropped records go to the collector.
func (m *Medium) retireGraceOnly(now des.Time) {
	kept := m.active[:0]
	cutoff := now.Add(-retireGrace)
	for _, tx := range m.active {
		if tx.end > now || (tx.resolved && tx.end > cutoff) {
			kept = append(kept, tx)
		}
	}
	m.active = kept
}

// retireAction is one scheduled step of a randomized medium schedule.
type retireAction struct {
	at   des.Time
	kind int // aimAction, txAction, streamAction or stopAction
	v    int
	seed uint64 // the beam and duration draws of the action
}

const (
	aimAction = iota
	txAction
	streamAction
	stopAction
)

// retireCase is a randomized schedule over a world: sector-slot-like
// bursts of aims and frames, frames longer than retireGrace, and streams
// that start and stop, under fault jitter half the time.
type retireCase struct {
	actions []retireAction
	faults  bool
	seed    uint64
	horizon des.Time
}

func newRetireCase(rng *xrand.Source, w *world.World) retireCase {
	n := w.NumVehicles()
	c := retireCase{faults: rng.Bool(0.5), seed: rng.Uint64()}
	slot := 20 * time.Microsecond
	slots := 30 + rng.Intn(40)
	for k := 0; k < slots; k++ {
		at := des.At(time.Duration(k) * slot)
		for v := 0; v < n; v++ {
			switch r := rng.Float64(); {
			case r < 0.3:
				c.actions = append(c.actions, retireAction{at: at, kind: aimAction, v: v, seed: rng.Uint64()})
			case r < 0.5:
				// Transmit a beat after the aims, as the protocols do.
				c.actions = append(c.actions, retireAction{at: at.Add(time.Microsecond), kind: txAction, v: v, seed: rng.Uint64()})
			case r < 0.51:
				c.actions = append(c.actions, retireAction{at: at, kind: streamAction, v: v, seed: rng.Uint64()})
			case r < 0.52:
				c.actions = append(c.actions, retireAction{at: at, kind: stopAction, v: v, seed: rng.Uint64()})
			}
		}
	}
	c.horizon = des.At(time.Duration(slots)*slot + time.Millisecond)
	return c
}

// frameDuration draws a control-frame length: mostly SSW and preamble
// lengths, sometimes longer than retireGrace.
func frameDuration(rng *xrand.Source) time.Duration {
	switch r := rng.Float64(); {
	case r < 0.6:
		return 15 * time.Microsecond
	case r < 0.8:
		return 4300 * time.Nanosecond
	case r < 0.9:
		return time.Duration(1000 + rng.Intn(40000))
	default:
		return time.Duration(120000 + rng.Intn(300000))
	}
}

// runRetireCase plays c on a fresh medium over w, resolving with retire,
// and returns what it did and the ids in the active list after each
// resolution. After each resolution it probes SINRNow for a few pairs, and
// checks the exact rule when t is non-nil. Handlers log every call bit for
// bit, then draw a side effect: re-aim or stop their receiver, transmit,
// start or stop a stream, or reset the medium. The final active lists of
// two runs may differ; run.active stays nil.
func runRetireCase(t *testing.T, w *world.World, c retireCase, retire func(*Medium, des.Time)) (oracleRun, [][]int64) {
	sim := des.New()
	m := New(sim, w)
	reg := obs.New()
	m.SetObs(reg)
	var ff *fakeFaults
	if c.faults {
		ff = &fakeFaults{seed: c.seed, asked: map[[2]int64]bool{}}
		m.SetFaults(ff)
	}
	var run oracleRun
	var active [][]int64
	rng := xrand.New(c.seed)
	probe := xrand.New(c.seed).Child("probe")
	n := w.NumVehicles()
	var streams []StreamID
	stopStream := func(k int) {
		if len(streams) > 0 {
			m.StopStream(streams[k%len(streams)])
		}
	}
	var handler func(j int) Handler
	handler = func(j int) Handler {
		return func(d Delivery) {
			run.calls = append(run.calls, fmt.Sprintf("rx%d %d->%d %v sinr=%016x snr=%016x at=%d",
				j, d.From, d.To, d.Payload, math.Float64bits(d.SINRdB.Decibels()),
				math.Float64bits(d.SNRdB.Decibels()), d.At))
			switch r := rng.Float64(); {
			case r < 0.1:
				m.StartListen(j, randomBeam(rng, w, j), handler(j))
			case r < 0.15:
				m.StopListen(j)
			case r < 0.25:
				m.Transmit(j, randomBeam(rng, w, j), frameDuration(rng), "reply")
			case r < 0.3:
				stopStream(rng.Intn(n))
			case r < 0.33:
				streams = append(streams, m.StartStream(j, randomBeam(rng, w, j)))
			case r < 0.34:
				m.Reset()
			}
		}
	}
	m.resolveFn = func() {
		now := sim.Now()
		m.deliverBatch(now)
		retire(m, now)
		for k := 0; k < 3; k++ {
			tx := probe.Intn(n)
			ls := w.Links(tx)
			if len(ls) == 0 {
				continue
			}
			rx := int(ls[probe.Intn(len(ls))].J)
			sinr := m.SINRNow(tx, rx, randomBeam(probe, w, tx), randomBeam(probe, w, rx))
			run.calls = append(run.calls, fmt.Sprintf("sinr %d->%d at=%d %016x", tx, rx, now, math.Float64bits(sinr.Decibels())))
		}
		ids := make([]int64, 0, len(m.active))
		for _, tx := range m.active {
			ids = append(ids, tx.id)
		}
		active = append(active, ids)
		if t != nil {
			checkExactRetirement(t, m, now)
		}
	}
	for _, a := range c.actions {
		sim.ScheduleAt(a.at, "action", func() {
			arng := xrand.New(a.seed)
			switch a.kind {
			case aimAction:
				m.StartListen(a.v, randomBeam(arng, w, a.v), handler(a.v))
			case txAction:
				m.Transmit(a.v, randomBeam(arng, w, a.v), frameDuration(arng), a.v)
			case streamAction:
				streams = append(streams, m.StartStream(a.v, randomBeam(arng, w, a.v)))
			case stopAction:
				stopStream(arng.Intn(n))
			}
		})
	}
	sim.Run(c.horizon)

	var buf bytes.Buffer
	if err := obs.WriteCSV(&buf, reg.Rows("")); err != nil {
		panic(err)
	}
	run.stats = buf.Bytes()
	if ff != nil {
		run.asked = ff.asked
	}
	for j, l := range m.listeners {
		if l.active {
			run.listeners = append(run.listeners, fmt.Sprintf("%d %v %v", j, l.beam, l.since))
		}
	}
	return run, active
}

// checkExactRetirement states the rule retire keeps, after a resolution at
// now: no resolved frame lingers once no control frame still to resolve
// started before it ended. Streams never count as still to resolve.
func checkExactRetirement(t *testing.T, m *Medium, now des.Time) {
	t.Helper()
	pending := des.Infinity
	for _, tx := range m.active {
		if !tx.stream && tx.end > now && tx.start < pending {
			pending = tx.start
		}
	}
	for _, tx := range m.active {
		if tx.end <= now && (tx.end <= pending || tx.end <= now.Add(-retireGrace)) {
			t.Fatalf("at %v: frame %d (end %v) kept, though nothing pending started before it ended (pending %v)",
				now, tx.id, tx.end, pending)
		}
	}
}

// TestExactRetirementMatchesGrace drives resolve with the exact retirement
// (and its record reuse) and with the grace-only reference over randomized
// schedules with fault jitter, frames longer than retireGrace, streams, and
// handlers that transmit, stop streams or reset. The two must make the same
// handler calls (SINR and SNR bit for bit), counters, statistics, fault
// queries and SINRNow readings after each resolution, and the exact list
// must be a subset of the reference's, holding no frame the rule retires.
func TestExactRetirementMatchesGrace(t *testing.T) {
	cases := 20
	if testing.Short() {
		cases = 5
	}
	for _, nw := range oracleWorlds(t) {
		rng := xrand.New(xrand.HashString(nw.name)).Child("retire")
		early, calls := 0, 0
		for k := 0; k < cases; k++ {
			c := newRetireCase(rng, nw.w)
			got, gotActive := runRetireCase(t, nw.w, c, (*Medium).retire)
			want, wantActive := runRetireCase(nil, nw.w, c, (*Medium).retireGraceOnly)
			label := fmt.Sprintf("%s case %d (faults=%v)", nw.name, k, c.faults)
			compareOracleRuns(t, label, got, want)
			if len(gotActive) != len(wantActive) {
				t.Fatalf("%s: %d resolutions, grace-only %d", label, len(gotActive), len(wantActive))
			}
			for r := range gotActive {
				kept := map[int64]bool{}
				for _, id := range wantActive[r] {
					kept[id] = true
				}
				for _, id := range gotActive[r] {
					if !kept[id] {
						t.Fatalf("%s: resolution %d keeps frame %d, which grace-only retired", label, r, id)
					}
				}
				early += len(wantActive[r]) - len(gotActive[r])
			}
			calls += len(got.calls)
		}
		// The exact rule must actually retire earlier, or the comparison
		// proves nothing.
		if early == 0 || calls == 0 {
			t.Errorf("%s: %d frames retired early and %d calls over %d cases", nw.name, early, calls, cases)
		}
		t.Logf("%s: %d cases, %d calls, %d frame-resolutions retired early", nw.name, cases, calls, early)
	}
}
