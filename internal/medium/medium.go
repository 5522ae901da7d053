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
	"math/bits"
	"time"

	"mmv2v/internal/des"
	"mmv2v/internal/obs"
	"mmv2v/internal/phy"
	"mmv2v/internal/units"
	"mmv2v/internal/world"
)

// Kind names a control frame's message.
type Kind uint8

// The control messages of mmV2V and the two baselines. The zero Kind is no
// message.
const (
	// KindSSW is an SND sector-sweep frame (Sec. III-B2).
	KindSSW Kind = iota + 1
	// KindNeg is a DCM candidate-information message (Sec. III-C2).
	KindNeg
	// KindBreak is a DCM break-up notification to a previous candidate.
	KindBreak
	// KindProbe is an explicit-refinement narrow-beam training probe.
	KindProbe
	// KindFeedback reports the best received probe back to the prober.
	KindFeedback
	// KindSweep is a ROP random discovery sweep.
	KindSweep
	// KindBeacon is an 802.11ad DMG beacon swept during the BTI.
	KindBeacon
	// KindAssoc is an 802.11ad A-BFT association frame toward a PCP.
	KindAssoc
)

// Frame is the content of a control frame. The sender is the delivery's
// From; the fields a message does not use stay zero.
type Frame struct {
	Kind Kind
	// HasCand marks a candidate-information message whose sender holds a
	// candidate link, of quality CandSNR.
	HasCand bool
	// Dest is the vehicle the frame is addressed to, -1 for sweeps and
	// beacons, which are for whoever hears them.
	Dest int32
	// Index is the swept sector (SSW, sweep, beacon), the probe's beam, the
	// best probe a feedback reports (-1 when none was decoded), or an
	// association sender's sector toward its PCP.
	Index int32
	// LinkSNR is a candidate-information sender's SSW measurement of its
	// link to Dest, and CandSNR its current candidate's link quality.
	LinkSNR units.DB
	CandSNR units.DB
}

// Delivery reports a successfully decoded control frame.
type Delivery struct {
	From  int
	To    int
	Frame Frame
	// SINRdB is the signal-to-interference-plus-noise ratio the frame was
	// decoded at (Eq. 3).
	SINRdB units.DB
	// SNRdB is the interference-free link quality (RSSI over noise) — what
	// a receiver's range/admission filter sees.
	SNRdB units.DB
	At    des.Time
}

// Handler consumes decoded control frames at a listening vehicle. The
// vehicle is the delivery's To, so one handler can serve every vehicle.
type Handler func(d Delivery)

// StreamID identifies a data-plane stream.
type StreamID int64

// transmission is one on-air signal, either a control frame (finite End,
// resolved on completion) or a data stream (End = Infinity until stopped).
// StartStream allocates one per stream, so the record is kept within 80
// bytes: from is an int32 like the world's vehicle indexes, and the flags
// share its word.
type transmission struct {
	id     int64
	from   int32
	stream bool
	// resolved marks a delivered control frame kept around only so that
	// later partially-overlapping frames still see its interference.
	resolved bool
	beam     phy.Beam
	start    des.Time
	end      des.Time
	frame    Frame
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
	// transmission by vehicle `from` at time `at`. It is never negative: a
	// frame never starts before it is sent, which is what lets resolve
	// retire a frame once no frame still to resolve started before it
	// ended.
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
	// resolveAt de-duplicates end-of-frame resolution events, and
	// resolveFn is m.resolve bound once, so scheduling one allocates no
	// method value.
	resolveAt map[des.Time]bool
	resolveFn func()
	// free holds the records of control frames resolve retired, for
	// Transmit to reuse. Only resolve's retirement feeds it: StopStream and
	// Reset may run inside a handler while deliverGroup still reads the
	// batch, so the records they drop go to the collector.
	free []*transmission

	// faults, when non-nil, injects radio churn, control-frame loss and
	// slot jitter into every transmission and delivery.
	faults FaultModel

	// Resolution scratch, reused across resolutions (see deliverGroup).
	// group is resolve's batch of frames ending now. onAir lists the
	// transmissions overlapping the batch's window in m.active order;
	// firstOnAir[v] is the onAir index of vehicle v's first such
	// transmission (-1 when none), chained through onAir[k].next. heard is
	// a bitmap over onAir of the terms collected for the current listener,
	// and hits collect's list of them, each with its link entry's payload;
	// its pointers are cleared after each resolution.
	group      []*transmission
	onAir      []airTerm
	firstOnAir []int32
	heard      []uint64
	hits       []hit
	// removals counts StopStream removals and Resets, so deliverGroup can
	// tell when a handler shifted m.active under its onAir index.
	removals uint64

	// Statistics handles (nil-safe no-ops until SetObs installs a live
	// registry).
	obsControlTx     *obs.Counter
	obsControlDeliv  *obs.Counter
	obsControlLost   *obs.Counter
	obsControlSilent *obs.Counter
	obsControlFault  *obs.Counter
	obsFaultMuted    *obs.Counter
	obsRxAims        *obs.Counter
	obsStreamStarts  *obs.Counter
	obsPowerEvals    *obs.Counter
	obsListenerVisit *obs.Counter
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
	m.obsControlSilent = r.Counter("medium.control_silent")
	m.obsControlFault = r.Counter("medium.control_fault_lost")
	m.obsFaultMuted = r.Counter("medium.fault_muted_tx")
	m.obsRxAims = r.Counter("medium.rx_beam_aims")
	m.obsStreamStarts = r.Counter("medium.stream_starts")
	m.obsPowerEvals = r.Counter("medium.power_evals")
	m.obsListenerVisit = r.Counter("medium.listener_visits")
	m.obsControlSINRdB = r.Histogram("medium.control_sinr_db", obs.LinearBuckets(phy.NearMissSINR.Decibels(), 5, 9))
}

// New builds a Medium over a world and simulator.
func New(sim *des.Simulator, w *world.World) *Medium {
	m := &Medium{
		sim:        sim,
		w:          w,
		nextID:     1,
		listeners:  make([]listener, w.NumVehicles()),
		resolveAt:  make(map[des.Time]bool),
		firstOnAir: make([]int32, w.NumVehicles()),
	}
	m.resolveFn = m.resolve
	return m
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

// Transmit puts control frame f on the air from vehicle `from` for the given
// duration. Reception resolves when the frame ends. Under a fault model the
// frame may start late (slot jitter) or not at all (radio down).
func (m *Medium) Transmit(from int, beam phy.Beam, dur time.Duration, f Frame) {
	if dur <= 0 {
		panic(fmt.Sprintf("medium: non-positive frame duration %v", dur))
	}
	now := m.sim.Now()
	start := now
	if m.faults != nil {
		if !m.faults.RadioUp(from, now) {
			m.obsFaultMuted.Inc()
			return
		}
		start = now.Add(m.faults.TxDelay(from, now))
	}
	var tx *transmission
	if k := len(m.free) - 1; k >= 0 {
		tx = m.free[k]
		m.free[k] = nil
		m.free = m.free[:k]
	} else {
		tx = new(transmission)
	}
	*tx = transmission{
		id:    m.nextID,
		from:  int32(from),
		beam:  beam,
		start: start,
		end:   start.Add(dur),
		frame: f,
	}
	m.nextID++
	m.active = append(m.active, tx)
	m.obsControlTx.Inc()
	if !m.resolveAt[tx.end] {
		m.resolveAt[tx.end] = true
		m.sim.ScheduleAt(tx.end, "medium.resolve", m.resolveFn)
	}
}

// StartStream opens a persistent directional data transmission (UDT). The
// stream interferes with control frames and other streams until stopped.
func (m *Medium) StartStream(from int, beam phy.Beam) StreamID {
	now := m.sim.Now()
	tx := &transmission{
		id:     m.nextID,
		from:   int32(from),
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
			m.removals++
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

// retireGrace bounds how long an ended control frame stays in the active
// list after delivery: frames that started before it ended (possible under
// clock jitter) must still count its interference at their own resolution.
const retireGrace = 100 * time.Microsecond

// resolve delivers every control frame ending now, then retires the frames
// no later resolution can see (see retire).
//
//mmv2v:hotpath the per-slot control-frame resolution; pinned by BenchmarkSectorSlotResolution
func (m *Medium) resolve() {
	now := m.sim.Now()
	m.deliverBatch(now)
	m.retire(now)
}

// deliverBatch delivers every control frame ending now.
func (m *Medium) deliverBatch(now des.Time) {
	delete(m.resolveAt, now)
	// Size the reused batch slice exactly: m.active also holds streams,
	// frames still on the air and resolved frames not yet retired.
	size := 0
	for _, tx := range m.active {
		if tx.end == now && !tx.stream && !tx.resolved {
			size++
		}
	}
	if cap(m.group) < size {
		//mmv2v:alloc amortized: regrown only when a batch outgrows every earlier one
		m.group = make([]*transmission, 0, size)
	}
	group := m.group[:0]
	for _, tx := range m.active {
		if tx.end == now && !tx.stream && !tx.resolved {
			tx.resolved = true
			//mmv2v:alloc never grows: the capacity was sized to the batch above
			group = append(group, tx)
		}
	}
	if len(group) > 0 {
		m.deliverGroup(group)
	}
	clear(group)
	m.group = group[:0]
}

// retire drops the ended control frames no resolution can observe any more
// and recycles their records. A resolved frame f stays while some control
// frame still to resolve started before f ended, since that frame's window
// overlaps f, but never longer than retireGrace after f ended. Dropping the
// others is unobservable: a later Transmit starts at or after now
// (TxDelay ≥ 0), SINRNow skips ended frames, and the fault model is asked
// only about signals overlapping a resolution window. Streams never end
// here and do not hold frames back.
func (m *Medium) retire(now des.Time) {
	pending := des.Infinity
	for _, tx := range m.active {
		if !tx.stream && tx.end > now && tx.start < pending {
			pending = tx.start
		}
	}
	cutoff := now.Add(-retireGrace)
	kept := m.active[:0]
	for _, tx := range m.active {
		if tx.end > now || (tx.resolved && tx.end > cutoff && tx.end > pending) {
			//mmv2v:alloc in-place filter: kept shares m.active's backing array and never outgrows it
			kept = append(kept, tx)
			continue
		}
		//mmv2v:alloc amortized: the free list regrows only when a retirement outnumbers every earlier pool
		m.free = append(m.free, tx)
	}
	clear(m.active[len(kept):]) // the tail holds stale copies of kept and retired records
	m.active = kept
}

// airTerm is one transmission on the air during a resolution window.
type airTerm struct {
	tx *transmission
	// aim is tx's beam, resolved once per indexing.
	aim world.Aim
	// rxMw is tx's received power at the listener being resolved; valid
	// where that listener's heard bit is set.
	rxMw units.MilliWatt
	// next is the onAir index of the sender's next term (-1 ends the chain).
	next int32
	// live caches the fault model's verdict on the sender's radio at the
	// resolution instant.
	live bool
	// group marks the frames being resolved.
	group bool
}

// hit is one term a listener hears and the payload of the listener's link
// entry for its sender.
type hit struct {
	term    *airTerm
	payload *world.Payload
}

// deliverGroup resolves reception of a batch of frames sharing an end time
// (Eq. 3): a listener's SINR for a frame counts every other signal that
// overlapped the batch's window as interference. The resolution contract,
// held bit for bit against the all-pairs reference by
// TestDeliverGroupMatchesAllPairs:
//
//   - A listener takes its interferers from its own link slice
//     (world.Entries), so pairs beyond the interference range are never
//     evaluated. The all-pairs sum added exactly +0 for them, so skipping
//     them changes no bit.
//   - Each (transmitter, listener) received power is evaluated once. It is
//     an interference term and, for a batch frame, the desired signal.
//   - A listener's interference terms are summed in m.active order, never
//     link-slice order: float addition is not associative.
//   - Handlers run for listeners in ascending order, then for batch frames
//     in m.active order. The listener is re-read after every handler, which
//     may re-aim or stop it.
//   - The fault model is asked about the same (vehicle, now) set as the
//     all-pairs form: every active listener and, once some listener's
//     radio is live, every sender on the air in the window.
//   - A listener that hears no live batch frame would decode nothing, so
//     it evaluates no power once its link slice is walked. Under slot
//     jitter a batch is about one frame, and most listeners are such.
func (m *Medium) deliverGroup(group []*transmission) {
	noise := m.w.Channel().NoiseMw()
	now := m.sim.Now()
	groupStart := group[0].start
	for _, g := range group {
		if g.start < groupStart {
			groupStart = g.start
		}
	}
	removals := m.removals
	m.indexOnAir(group, groupStart, now)
	asked := m.faults == nil
	visits, evals := 0, 0
	for j := range m.listeners {
		l := &m.listeners[j]
		if !l.active {
			continue
		}
		// A listener whose radio is down hears nothing (and, not being
		// aligned in any meaningful sense, does not count toward Lost).
		if m.faults != nil && !m.faults.RadioUp(j, now) {
			continue
		}
		// A handler's StopStream or Reset shifted m.active: re-index.
		if m.removals != removals {
			removals = m.removals
			m.indexOnAir(group, groupStart, now)
			asked = m.faults == nil
		}
		// The all-pairs form asks about every overlapping sender while
		// summing the first live listener's interference (that listener's
		// own radio was just asked): settle them all once.
		if !asked {
			m.askRadios(now)
			asked = true
		}
		// Half-duplex: a vehicle transmitting during the window cannot hear.
		if m.firstOnAir[j] >= 0 {
			continue
		}
		total, n, batch := m.collect(j, l.beam)
		visits++
		evals += n
		if batch {
			m.decode(j, l, total, noise, now)
		}
		clear(m.heard)
	}
	clear(m.onAir) // let retired frames be collected
	clear(m.hits[:cap(m.hits)])
	m.obsListenerVisit.Add(uint64(visits))
	m.obsPowerEvals.Add(uint64(evals))
}

// indexOnAir rebuilds onAir, firstOnAir and heard from m.active for the
// window [groupStart, now). Under a fault model, the terms' live flags are
// unset until askRadios.
func (m *Medium) indexOnAir(group []*transmission, groupStart, now des.Time) {
	for v := range m.firstOnAir {
		m.firstOnAir[v] = -1
	}
	size := 0
	for _, tx := range m.active {
		if overlaps(tx.start, tx.end, groupStart, now) {
			size++
		}
	}
	if cap(m.onAir) < size {
		//mmv2v:alloc amortized: regrown only when a window's signals outnumber every earlier one's
		m.onAir = make([]airTerm, 0, size)
	}
	on := m.onAir[:0]
	gi := 0
	for _, tx := range m.active {
		// group is a subsequence of m.active, in order.
		inGroup := gi < len(group) && tx == group[gi]
		if inGroup {
			gi++
		}
		if !overlaps(tx.start, tx.end, groupStart, now) {
			continue
		}
		k := int32(len(on))
		//mmv2v:alloc never grows: the capacity was sized to the window's signals above
		on = append(on, airTerm{tx: tx, aim: m.w.Aim(tx.beam), next: m.firstOnAir[tx.from], live: m.faults == nil, group: inGroup})
		m.firstOnAir[tx.from] = k
	}
	m.onAir = on
	if cap(m.hits) < len(on) {
		//mmv2v:alloc amortized: a listener hears each term at most once, so hits is regrown only with onAir
		m.hits = make([]hit, 0, len(on))
	}
	words := (len(on) + 63) / 64
	if cap(m.heard) < words {
		//mmv2v:alloc amortized: one bit per term, regrown only past the largest window so far
		m.heard = make([]uint64, words)
	}
	m.heard = m.heard[:words]
	clear(m.heard)
}

// askRadios asks the fault model whether each term's sender is on the air.
func (m *Medium) askRadios(now des.Time) {
	for k := range m.onAir {
		a := &m.onAir[k]
		a.live = m.faults.RadioUp(int(a.tx.from), now)
	}
}

// collect evaluates the power listener j receives from every live term on
// the air whose sender is in j's link slice, marks each in heard, and
// returns their sum in onAir (that is, m.active) order with the number of
// powers evaluated. Each power reads only the payload of j's own link
// entry, completed only if its sender is on the air. A first pass walks
// the link slice and gathers the hits; a second runs the gain kernel over
// them, unless no hit is a batch frame, which batch reports.
func (m *Medium) collect(j int, rxBeam phy.Beam) (total units.MilliWatt, evals int, batch bool) {
	slots, payloads := m.w.Entries(j)
	hits := m.hits[:0]
	for i := range slots {
		first := m.firstOnAir[slots[i].J]
		if first < 0 {
			continue
		}
		if slots[i].Pending() {
			m.w.Complete(j, i)
		}
		for k := first; k >= 0; k = m.onAir[k].next {
			a := &m.onAir[k]
			// A transmitter whose radio died mid-frame radiates nothing.
			if a.live {
				//mmv2v:alloc never grows: indexOnAir sized hits to onAir, and each term is heard at most once
				hits = append(hits, hit{term: a, payload: &payloads[i]})
				m.heard[k/64] |= 1 << (k % 64)
				batch = batch || a.group
			}
		}
	}
	m.hits = hits
	if !batch {
		return 0, 0, false
	}
	rx := m.w.Aim(rxBeam)
	for _, h := range hits {
		h.term.rxMw = m.w.RxPowerMwOn(h.payload, h.term.aim, rx)
	}
	for w, word := range m.heard {
		for ; word != 0; word &= word - 1 {
			total += m.onAir[w*64+bits.TrailingZeros64(word)].rxMw
		}
	}
	return total, len(hits), true
}

// silentBelow is the linear SINR under which a heard frame can neither
// decode nor count as a near miss: the lower of the two thresholds decode
// compares, less 0.01 dB. The margin is far above the rounding error of the
// ratio and of Log10, so a frame below the bound would also fall below both
// thresholds in dB.
var silentBelow = (min(phy.NearMissSINR, phy.MCS(0).MinSNRdB()) - 0.01).Linear()

// decode delivers the batch frames listener j heard, in onAir order, given
// j's total incident power. A frame below silentBelow is counted as silent
// and skipped before its logarithm.
func (m *Medium) decode(j int, l *listener, total, noise units.MilliWatt, now des.Time) {
	for w, word := range m.heard {
		for ; word != 0; word &= word - 1 {
			a := &m.onAir[w*64+bits.TrailingZeros64(word)]
			g := a.tx
			// The listener must have been aimed for the whole frame.
			if !a.group || l.since > g.start {
				continue
			}
			desired := a.rxMw
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
				if m.faults != nil && m.faults.DropControl(int(g.from), j, now) {
					m.obsControlFault.Inc()
					continue
				}
				m.obsControlDeliv.Inc()
				l.handler(Delivery{
					From:   int(g.from),
					To:     j,
					Frame:  g.frame,
					SINRdB: sinr,
					SNRdB:  units.RatioDB(desired, noise),
					At:     now,
				})
				// The handler may have re-aimed or stopped the listener.
				if !l.active {
					return
				}
			} else if sinr > phy.NearMissSINR {
				// Near-miss: an aligned listener lost a decodable-class
				// frame to interference or blockage.
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
	lnk := m.w.Entry(rx, tx)
	if lnk == nil {
		return -300
	}
	rxAim := m.w.Aim(rxBeam)
	desired := m.w.RxPowerMwOn(lnk, m.w.Aim(txBeam), rxAim)
	//mmv2v:exact the kernel returns exactly 0 only when a gain or the path gain underflows
	if desired == 0 {
		m.obsPowerEvals.Inc()
		return -300
	}
	// Pairs beyond interference range add nothing: the all-active sum
	// added exactly +0 for them.
	evals := uint64(1)
	interference := units.MilliWatt(0)
	for _, t := range m.active {
		if int(t.from) == tx || int(t.from) == rx {
			continue
		}
		if t.end <= now {
			continue // resolved frame not yet retired
		}
		if m.faults != nil && !m.faults.RadioUp(int(t.from), now) {
			continue
		}
		if l := m.w.Entry(rx, int(t.from)); l != nil {
			interference += m.w.RxPowerMwOn(l, m.w.Aim(t.beam), rxAim)
			evals++
		}
	}
	m.obsPowerEvals.Add(evals)
	return units.RatioDB(desired, m.w.Channel().NoiseMw()+interference)
}

// Reset clears all transmissions and listeners (used between frames or
// trials sharing a medium).
func (m *Medium) Reset() {
	clear(m.active)
	m.active = m.active[:0]
	m.removals++
	for i := range m.listeners {
		m.listeners[i] = listener{}
	}
	// Pending resolve events will find empty groups and are harmless.
}
