// Package medium arbitrates the shared 60 GHz wireless channel. Control
// frames (SSW, negotiation, beacons) are short timed transmissions whose
// reception is decided by Eq. 3 SINR at each listening vehicle — so
// collisions, deafness (receiver aimed elsewhere), capture and side-lobe
// interference all emerge from geometry rather than being assumed.
//
// Two planes share the medium:
//
//   - Control frames via Transmit + StartListen: reception resolves at the
//     frame's end against all transmissions that overlapped it in time.
//   - Data streams via StartStream/StopStream: long-lived directional
//     transmissions (the UDT phase) that both generate interference for
//     control frames and are rate-adapted by querying SINRNow each link
//     refresh.
//
// The co-channel deployment, uniform transmit power and half-duplex
// constraints of the paper's system model are enforced here.
package medium

import (
	"fmt"
	"time"

	"mmv2v/internal/des"
	"mmv2v/internal/obs"
	"mmv2v/internal/phy"
	"mmv2v/internal/units"
	"mmv2v/internal/world"
)

// Delivery reports a successfully decoded control frame.
type Delivery struct {
	From    int
	To      int
	Payload any
	// SINRdB is the signal-to-interference-plus-noise ratio the frame was
	// decoded at (Eq. 3).
	SINRdB units.DB
	// SNRdB is the interference-free link quality (RSSI over noise) — what
	// a receiver's range/admission filter sees.
	SNRdB units.DB
	At    des.Time
}

// Handler consumes decoded control frames at a listening vehicle.
type Handler func(d Delivery)

// StreamID identifies a data-plane stream.
type StreamID int64

// transmission is one on-air signal, either a control frame (finite End,
// resolved on completion) or a data stream (End = Infinity until stopped).
type transmission struct {
	id      int64
	from    int
	beam    phy.Beam
	start   des.Time
	end     des.Time
	payload any
	stream  bool
	// resolved marks a delivered control frame kept around only so that
	// later partially-overlapping frames still see its interference.
	resolved bool
}

// listener is a vehicle's receive state.
type listener struct {
	beam    phy.Beam
	since   des.Time
	handler Handler
	active  bool
}

// FaultModel is the medium's fault-injection hook (see internal/faults).
// When installed, the medium consults it on every transmission and
// delivery; protocols never see it, so any scheme running on this medium is
// stressed without code changes. A nil model is the clean channel.
type FaultModel interface {
	// RadioUp reports whether vehicle i's radio is alive at time `at`. A
	// down radio neither transmits, receives nor interferes.
	RadioUp(i int, at des.Time) bool
	// DropControl reports whether the control frame from → to resolving at
	// time `at` is lost despite a decodable SINR.
	DropControl(from, to int, at des.Time) bool
	// TxDelay returns the slot-timing jitter added to a control
	// transmission by vehicle `from` at time `at`.
	TxDelay(from int, at des.Time) time.Duration
}

// Medium is the shared channel. Create with New; not safe for concurrent
// use (the DES is single-threaded).
type Medium struct {
	sim *des.Simulator
	w   *world.World

	active    []*transmission
	listeners []listener
	// nextID starts at 1 so the zero StreamID is never a live stream.
	nextID int64
	// resolveAt de-duplicates end-of-frame resolution events.
	resolveAt map[des.Time]bool

	// faults, when non-nil, injects radio churn, control-frame loss and
	// slot jitter into every transmission and delivery.
	faults FaultModel

	// Delivered counts decoded control frames (diagnostics).
	Delivered uint64
	// Lost counts control frames that at least one aligned listener failed
	// to decode due to SINR (diagnostics; deaf listeners don't count).
	Lost uint64
	// FaultLost counts decodable control frames killed by the fault model's
	// loss process, and FaultMutedTx counts transmissions suppressed because
	// the transmitter's radio was down (diagnostics).
	FaultLost    uint64
	FaultMutedTx uint64

	// Statistics handles (nil-safe no-ops until SetObs installs a live
	// registry).
	obsControlTx     *obs.Counter
	obsControlDeliv  *obs.Counter
	obsControlLost   *obs.Counter
	obsControlFault  *obs.Counter
	obsFaultMuted    *obs.Counter
	obsRxAims        *obs.Counter
	obsStreamStarts  *obs.Counter
	obsControlSINRdB *obs.Histogram
}

// SetFaults installs a fault model; nil restores the clean channel.
func (m *Medium) SetFaults(f FaultModel) { m.faults = f }

// SetObs installs the statistics registry. A nil registry (the default)
// hands out nil handles, so every instrumented path stays a no-op.
func (m *Medium) SetObs(r *obs.Registry) {
	m.obsControlTx = r.Counter("medium.control_tx")
	m.obsControlDeliv = r.Counter("medium.control_delivered")
	m.obsControlLost = r.Counter("medium.control_lost_sinr")
	m.obsControlFault = r.Counter("medium.control_fault_lost")
	m.obsFaultMuted = r.Counter("medium.fault_muted_tx")
	m.obsRxAims = r.Counter("medium.rx_beam_aims")
	m.obsStreamStarts = r.Counter("medium.stream_starts")
	m.obsControlSINRdB = r.Histogram("medium.control_sinr_db", obs.LinearBuckets(-10, 5, 9))
}

// New builds a Medium over a world and simulator.
func New(sim *des.Simulator, w *world.World) *Medium {
	return &Medium{
		sim:       sim,
		w:         w,
		nextID:    1,
		listeners: make([]listener, w.NumVehicles()),
		resolveAt: make(map[des.Time]bool),
	}
}

// StartListen aims vehicle i's receive beam and registers a handler for
// decodable frames. Re-aiming mid-frame makes the earlier frame undecodable
// for i (the receiver moved away). A nil handler panics.
func (m *Medium) StartListen(i int, beam phy.Beam, h Handler) {
	if h == nil {
		panic(fmt.Sprintf("medium: nil handler for listener %d", i))
	}
	m.listeners[i] = listener{beam: beam, since: m.sim.Now(), handler: h, active: true}
	m.obsRxAims.Inc()
}

// StopListen clears vehicle i's receive state.
func (m *Medium) StopListen(i int) {
	m.listeners[i].active = false
	m.listeners[i].handler = nil
}

// Listening reports whether vehicle i currently has an active receiver.
func (m *Medium) Listening(i int) bool { return m.listeners[i].active }

// Transmit puts a control frame on the air from vehicle `from` for the given
// duration. Reception resolves when the frame ends. Under a fault model the
// frame may start late (slot jitter) or not at all (radio down).
func (m *Medium) Transmit(from int, beam phy.Beam, dur time.Duration, payload any) {
	if dur <= 0 {
		panic(fmt.Sprintf("medium: non-positive frame duration %v", dur))
	}
	now := m.sim.Now()
	start := now
	if m.faults != nil {
		if !m.faults.RadioUp(from, now) {
			m.FaultMutedTx++
			m.obsFaultMuted.Inc()
			return
		}
		start = now.Add(m.faults.TxDelay(from, now))
	}
	tx := &transmission{
		id:      m.nextID,
		from:    from,
		beam:    beam,
		start:   start,
		end:     start.Add(dur),
		payload: payload,
	}
	m.nextID++
	m.active = append(m.active, tx)
	m.obsControlTx.Inc()
	if !m.resolveAt[tx.end] {
		m.resolveAt[tx.end] = true
		m.sim.ScheduleAt(tx.end, "medium.resolve", m.resolve)
	}
}

// StartStream opens a persistent directional data transmission (UDT). The
// stream interferes with control frames and other streams until stopped.
func (m *Medium) StartStream(from int, beam phy.Beam) StreamID {
	now := m.sim.Now()
	tx := &transmission{
		id:     m.nextID,
		from:   from,
		beam:   beam,
		start:  now,
		end:    des.Infinity,
		stream: true,
	}
	m.nextID++
	m.active = append(m.active, tx)
	m.obsStreamStarts.Inc()
	return StreamID(tx.id)
}

// StopStream removes a data stream. Stopping an unknown id is a no-op.
func (m *Medium) StopStream(id StreamID) {
	for k, tx := range m.active {
		if tx.id == int64(id) && tx.stream {
			m.active = append(m.active[:k], m.active[k+1:]...)
			return
		}
	}
}

// ActiveTransmissions returns the number of signals currently on the air.
func (m *Medium) ActiveTransmissions() int { return len(m.active) }

// overlaps reports whether two [start, end) intervals intersect.
func overlaps(aStart, aEnd, bStart, bEnd des.Time) bool {
	return aStart < bEnd && bStart < aEnd
}

// retireGrace is how long an ended control frame stays in the active list
// after delivery: frames that started before it ended (possible under clock
// jitter) must still count its interference at their own resolution.
const retireGrace = 100 * time.Microsecond

// resolve delivers every control frame ending now, then retires frames old
// enough that nothing still on the air overlapped them.
func (m *Medium) resolve() {
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
		m.deliverGroup(group)
	}
	kept := m.active[:0]
	cutoff := now.Add(-retireGrace)
	for _, tx := range m.active {
		if tx.end > now || (tx.resolved && tx.end > cutoff) {
			kept = append(kept, tx)
		}
	}
	m.active = kept
}

// deliverGroup resolves reception of a batch of frames sharing an end time.
// For each listening vehicle the total incident power is computed once; each
// frame's SINR then counts every other overlapping signal as interference
// (Eq. 3).
func (m *Medium) deliverGroup(group []*transmission) {
	noise := m.w.Channel().NoiseMw()
	n := m.w.NumVehicles()
	now := m.sim.Now()
	for j := 0; j < n; j++ {
		l := &m.listeners[j]
		if !l.active {
			continue
		}
		// A listener whose radio is down hears nothing (and, not being
		// aligned in any meaningful sense, does not count toward Lost).
		if m.faults != nil && !m.faults.RadioUp(j, now) {
			continue
		}
		// Incident power from every signal overlapping the group window,
		// and whether j itself was transmitting (half-duplex: cannot hear).
		groupStart := group[0].start
		for _, g := range group {
			if g.start < groupStart {
				groupStart = g.start
			}
		}
		total := units.MilliWatt(0)
		selfBusy := false
		for _, tx := range m.active {
			if !overlaps(tx.start, tx.end, groupStart, now) {
				continue
			}
			if tx.from == j {
				selfBusy = true
				continue
			}
			// A transmitter whose radio died mid-frame radiates nothing.
			if m.faults != nil && !m.faults.RadioUp(tx.from, now) {
				continue
			}
			total += m.w.RxPowerMw(tx.from, j, tx.beam, l.beam)
		}
		if selfBusy {
			continue
		}
		for _, g := range group {
			if g.from == j {
				continue
			}
			// The listener must have been aimed for the whole frame.
			if l.since > g.start {
				continue
			}
			// A frame whose sender's radio died mid-air is gone.
			if m.faults != nil && !m.faults.RadioUp(g.from, now) {
				continue
			}
			desired := m.w.RxPowerMw(g.from, j, g.beam, l.beam)
			//mmv2v:exact RxPowerMw returns exactly 0 as its out-of-range/beam-miss sentinel
			if desired == 0 {
				continue
			}
			sinr := units.RatioDB(desired, noise+(total-desired))
			m.obsControlSINRdB.Observe(sinr.Decibels())
			if phy.ControlDecodable(sinr) {
				if m.faults != nil && m.faults.DropControl(g.from, j, now) {
					m.FaultLost++
					m.obsControlFault.Inc()
					continue
				}
				m.Delivered++
				m.obsControlDeliv.Inc()
				// Handler may re-aim or stop the listener; re-check.
				h := l.handler
				h(Delivery{
					From:    g.from,
					To:      j,
					Payload: g.payload,
					SINRdB:  sinr,
					SNRdB:   units.RatioDB(desired, noise),
					At:      m.sim.Now(),
				})
				if !l.active {
					break
				}
			} else if sinr > -10 {
				// Near-miss: an aligned listener lost a decodable-class
				// frame to interference or blockage.
				m.Lost++
				m.obsControlLost.Inc()
			}
		}
	}
}

// SINRNow returns the instantaneous data-plane SINR from tx to rx with the
// given beams. All active signals except those transmitted by tx or rx
// count as interference (rx cannot receive while transmitting — callers
// handle TDD — and tx's own stream is the desired signal).
//
//mmv2v:hotpath the per-refresh SINR accumulation the UDT rate adapter queries
func (m *Medium) SINRNow(tx, rx int, txBeam, rxBeam phy.Beam) units.DB {
	now := m.sim.Now()
	if m.faults != nil && (!m.faults.RadioUp(tx, now) || !m.faults.RadioUp(rx, now)) {
		return -300
	}
	desired := m.w.RxPowerMw(tx, rx, txBeam, rxBeam)
	//mmv2v:exact RxPowerMw returns exactly 0 as its out-of-range/beam-miss sentinel
	if desired == 0 {
		return -300
	}
	interference := units.MilliWatt(0)
	for _, t := range m.active {
		if t.from == tx || t.from == rx {
			continue
		}
		if t.end <= now {
			continue // retired frame lingering in its grace window
		}
		if m.faults != nil && !m.faults.RadioUp(t.from, now) {
			continue
		}
		interference += m.w.RxPowerMw(t.from, rx, t.beam, rxBeam)
	}
	return units.RatioDB(desired, m.w.Channel().NoiseMw()+interference)
}

// Reset clears all transmissions and listeners (used between frames or
// trials sharing a medium).
func (m *Medium) Reset() {
	m.active = m.active[:0]
	for i := range m.listeners {
		m.listeners[i] = listener{}
	}
	// Pending resolve events will find empty groups and are harmless.
}
