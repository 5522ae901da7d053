package core

import (
	"time"

	"mmv2v/internal/des"
	"mmv2v/internal/medium"
	"mmv2v/internal/phy"
	"mmv2v/internal/trace"
)

// sswMsg is the payload of a Sector Sweep frame: the sector the transmitter
// is currently sweeping (Sec. III-B2: "a transmitter sends out its ID (e.g.,
// MAC address) and the sector ID"). The transmitter's ID is the delivery's
// From. An integer below 256 boxes into a Delivery payload without
// allocating.
type sswMsg int

// scheduleSND schedules the Synchronized Neighbor Discovery phase
// (Sec. III-B): K independent rounds, each with probabilistic role
// selection, a synchronized sweep/sense half-round, and a role-swapped
// second half-round.
//
// With perfect GPS synchronization (SyncJitter = 0) all vehicles share each
// slot's two events; with jitter, every vehicle's aim/sweep is shifted by
// its private clock offset, so misaligned sweep/sense windows emerge.
func (p *Protocol) scheduleSND(start des.Time) {
	slot := p.env.Timing.SectorSlot()
	s := p.cfg.Codebook.Sectors.Count
	for round := 0; round < p.cfg.K; round++ {
		roundStart := start.Add(time.Duration(round) * p.SNDRoundDuration())
		round := round
		p.env.Sim.ScheduleAt(roundStart, "mmv2v.snd.roles", func() { p.selectRoles(round) })
		for half := 0; half < 2; half++ {
			for sector := 0; sector < s; sector++ {
				slotStart := roundStart.Add(time.Duration(half*s+sector) * slot)
				half, sector := half, sector
				// Both sides spend the beam-switch time retuning, so
				// receivers aim at slotStart+BeamSwitch — scheduled before
				// the sweep at the same instant, and after the previous
				// slot's frame has resolved at slotStart.
				aimAt := slotStart.Add(p.env.Timing.BeamSwitch)
				if p.cfg.SyncJitter == 0 {
					p.env.Sim.ScheduleAt(aimAt, "mmv2v.snd.aim", func() { p.sndAim(half, sector) })
					p.env.Sim.ScheduleAt(aimAt, "mmv2v.snd.sweep", func() { p.sndSweep(half, sector) })
					continue
				}
				// Under clock jitter each vehicle acts on its own clock:
				// receivers retune halfway through the beam-switch guard
				// (so they are settled before a well-synchronized peer's
				// SSW begins), transmitters fire after the full guard.
				for i := 0; i < p.env.N(); i++ {
					i := i
					off := p.clockOffset(i)
					rxAt := slotStart.Add(p.env.Timing.BeamSwitch / 2).Add(off)
					txAt := slotStart.Add(p.env.Timing.BeamSwitch).Add(off)
					p.env.Sim.ScheduleAt(rxAt, "mmv2v.snd.aim1", func() { p.sndAimOne(i, half, sector) })
					p.env.Sim.ScheduleAt(txAt, "mmv2v.snd.sweep1", func() { p.sndSweepOne(i, half, sector) })
				}
			}
		}
	}
}

// clockOffset returns vehicle i's fixed clock error, a uniform draw in
// [-SyncJitter, +SyncJitter] clamped so no event lands before frame start.
func (p *Protocol) clockOffset(i int) time.Duration {
	if p.cfg.SyncJitter == 0 {
		return 0
	}
	// Offsets are drawn in [0, 2·SyncJitter): relative offsets are what
	// matter, and the DES cannot schedule into the past.
	j := float64(p.cfg.SyncJitter)
	return time.Duration(p.env.Rand.Child("mmv2v.clock", uint64(i)).UniformRange(0, 2*j))
}

// sndAimOne aims one receiver under clock jitter.
func (p *Protocol) sndAimOne(i, half, sector int) {
	if p.isTransmitter(i, half) {
		return
	}
	cb := p.cfg.Codebook
	senseSector := cb.Sectors.Opposite(sector)
	beam := phy.Beam{Bearing: cb.Sectors.Center(senseSector), Width: cb.RxWidth}
	p.listenSSW(i, beam, senseSector)
}

// sndSweepOne fires one transmitter's SSW under clock jitter.
func (p *Protocol) sndSweepOne(i, half, sector int) {
	if !p.isTransmitter(i, half) {
		return
	}
	cb := p.cfg.Codebook
	beam := phy.Beam{Bearing: cb.Sectors.Center(sector), Width: cb.TxWidth}
	p.env.Medium.Transmit(i, beam, p.env.Timing.SSW, sswMsg(sector))
	p.obsSSWTx.Inc()
}

// selectRoles performs Probabilistic Role Selection (Sec. III-B1): each
// vehicle independently becomes a transmitter with probability P. The coin
// is a private per-(vehicle, frame, round) stream — no coordination.
func (p *Protocol) selectRoles(round int) {
	for i := 0; i < p.env.N(); i++ {
		coin := p.env.Rand.Child("mmv2v.role", uint64(i), uint64(p.frame), uint64(round))
		p.roleTx[i] = coin.Bool(p.cfg.P)
	}
}

// isTransmitter reports vehicle i's effective role in a half-round: roles
// swap in the second half (Sec. III-B4).
func (p *Protocol) isTransmitter(i, half int) bool {
	if half == 0 {
		return p.roleTx[i]
	}
	return !p.roleTx[i]
}

// sndAim points every receiver's sensing beam at the opposite sector
// (Sec. III-B3: if the sweeping sector is i, the sensing sector is
// (i + S/2) mod S). Receivers must be aimed before the SSW frame starts.
func (p *Protocol) sndAim(half, sector int) {
	cb := p.cfg.Codebook
	senseSector := cb.Sectors.Opposite(sector)
	beam := phy.Beam{Bearing: cb.Sectors.Center(senseSector), Width: cb.RxWidth}
	for i := 0; i < p.env.N(); i++ {
		if p.isTransmitter(i, half) {
			continue
		}
		p.listenSSW(i, beam, senseSector)
	}
}

// listenSSW aims vehicle i's receiver at a sensing sector for SSW frames.
// The sector is recorded for i's handler: a frame is delivered only to a
// listener aimed for its whole duration, so the handler always reads the
// sector of the aim that heard the frame.
func (p *Protocol) listenSSW(i int, beam phy.Beam, senseSector int) {
	p.senseSector[i] = senseSector
	p.env.Medium.StartListen(i, beam, p.sswRx[i])
}

// sndSweep fires every transmitter's SSW frame on the current sweep sector.
func (p *Protocol) sndSweep(half, sector int) {
	cb := p.cfg.Codebook
	beam := phy.Beam{Bearing: cb.Sectors.Center(sector), Width: cb.TxWidth}
	for i := 0; i < p.env.N(); i++ {
		if !p.isTransmitter(i, half) {
			continue
		}
		p.env.Medium.Transmit(i, beam, p.env.Timing.SSW, sswMsg(sector))
		p.obsSSWTx.Inc()
	}
}

// onSSW records a decoded SSW frame: the receiver now knows the transmitter,
// the link SNR and which of its own sectors points at the transmitter
// (the sensing sector it was aimed at).
func (p *Protocol) onSSW(me int, d medium.Delivery) {
	if _, ok := d.Payload.(sswMsg); !ok {
		return // other protocol traffic
	}
	if d.SINRdB < p.cfg.MinLinkSNRdB {
		return // too weak to be a one-hop neighbor (out of the task disk)
	}
	info := p.discovered[me][d.From]
	if info == nil {
		info = &neighborInfo{}
		p.discovered[me][d.From] = info
		p.DiscoveredTotal++
		p.obsDiscoveries.Inc()
		p.env.Trace.Emit(trace.Event{
			At: d.At, Frame: p.frame, Kind: trace.KindDiscovery,
			A: me, B: d.From, Value: d.SNRdB.Decibels(),
		})
	}
	// A sweep can be heard on adjacent sensing sectors through the Gaussian
	// roll-off; keep the strongest reception of the frame — that sector is
	// the true pointing direction (what a real receiver selects from an SLS
	// sweep).
	if info.lastFrame == p.frame && info.snrDB >= d.SINRdB {
		return
	}
	info.snrDB = d.SINRdB
	info.towardSector = p.senseSector[me]
	info.lastFrame = p.frame
}
