package medium

import (
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

// lineWorld builds a deterministic world with vehicles placed at the given
// eastbound arc positions in the given lanes (parallel same-direction
// traffic, stationary for the duration of a test).
func lineWorld(t *testing.T, lanes []int, positions []float64) (*world.World, *des.Simulator, *Medium) {
	t.Helper()
	if len(lanes) != len(positions) {
		t.Fatal("lanes and positions length mismatch")
	}
	cfg := traffic.DefaultConfig(0)
	cfg.LaneChangeCheckEvery = 0
	road, err := traffic.New(cfg, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	for k := range positions {
		road.Add(&traffic.Vehicle{Dir: traffic.Eastbound, Lane: lanes[k], S: positions[k], V: 0, DesiredV: 15})
	}
	w, err := world.New(world.DefaultConfig(), road)
	if err != nil {
		t.Fatal(err)
	}
	sim := des.New()
	return w, sim, New(sim, w)
}

// aim returns beams pointing from i to j and from j to i with given widths.
func aim(w *world.World, i, j int, txW, rxW units.Radian) (phy.Beam, phy.Beam) {
	l, ok := w.Link(i, j)
	if !ok {
		panic("no link")
	}
	back, _ := w.Link(j, i)
	return phy.Beam{Bearing: l.Bearing, Width: txW}, phy.Beam{Bearing: back.Bearing, Width: rxW}
}

func TestAlignedFrameDelivered(t *testing.T) {
	w, sim, m := lineWorld(t, []int{1, 1}, []float64{0, 40})
	reg := obs.New()
	m.SetObs(reg)
	txBeam, rxBeam := aim(w, 0, 1, geom.Deg(30), geom.Deg(12))
	var got []Delivery
	m.StartListen(1, rxBeam, func(d Delivery) { got = append(got, d) })
	f := Frame{Kind: KindSSW, Dest: -1, Index: 7}
	m.Transmit(0, txBeam, 15*time.Microsecond, f)
	sim.RunAll()
	if len(got) != 1 {
		t.Fatalf("deliveries = %d, want 1", len(got))
	}
	d := got[0]
	if d.From != 0 || d.To != 1 || d.Frame != f {
		t.Errorf("delivery = %+v", d)
	}
	if d.SINRdB < 10 {
		t.Errorf("SINR = %v dB, want strong at 40 m", d.SINRdB)
	}
	if d.At != des.At(15*time.Microsecond) {
		t.Errorf("delivered at %v", d.At)
	}
	if n := reg.Counter("medium.control_delivered").Value(); n != 1 {
		t.Errorf("medium.control_delivered = %d", n)
	}
}

func TestMisalignedListenerHearsNothing(t *testing.T) {
	w, sim, m := lineWorld(t, []int{1, 1}, []float64{0, 40})
	txBeam, rxBeam := aim(w, 0, 1, geom.Deg(30), geom.Deg(12))
	// Aim the receiver 180° away.
	rxBeam.Bearing = geom.NormalizeBearing(rxBeam.Bearing + geom.Bearing(math.Pi))
	delivered := 0
	m.StartListen(1, rxBeam, func(Delivery) { delivered++ })
	m.Transmit(0, txBeam, 15*time.Microsecond, Frame{})
	sim.RunAll()
	if delivered != 0 {
		t.Errorf("misaligned listener decoded %d frames", delivered)
	}
}

func TestNotListeningHearsNothing(t *testing.T) {
	w, sim, m := lineWorld(t, []int{1, 1}, []float64{0, 40})
	reg := obs.New()
	m.SetObs(reg)
	txBeam, _ := aim(w, 0, 1, geom.Deg(30), geom.Deg(12))
	m.Transmit(0, txBeam, 15*time.Microsecond, Frame{})
	sim.RunAll()
	if n := reg.Counter("medium.control_delivered").Value(); n != 0 {
		t.Errorf("medium.control_delivered = %d without listeners", n)
	}
}

func TestStopListen(t *testing.T) {
	w, sim, m := lineWorld(t, []int{1, 1}, []float64{0, 40})
	txBeam, rxBeam := aim(w, 0, 1, geom.Deg(30), geom.Deg(12))
	delivered := 0
	m.StartListen(1, rxBeam, func(Delivery) { delivered++ })
	m.StopListen(1)
	if m.Listening(1) {
		t.Error("still listening after StopListen")
	}
	m.Transmit(0, txBeam, 15*time.Microsecond, Frame{})
	sim.RunAll()
	if delivered != 0 {
		t.Errorf("delivered = %d after StopListen", delivered)
	}
}

func TestLateListenerMissesFrame(t *testing.T) {
	w, sim, m := lineWorld(t, []int{1, 1}, []float64{0, 40})
	txBeam, rxBeam := aim(w, 0, 1, geom.Deg(30), geom.Deg(12))
	delivered := 0
	m.Transmit(0, txBeam, 15*time.Microsecond, Frame{})
	// Listener tunes in 5 µs into the frame: must not decode.
	sim.ScheduleAt(des.At(5*time.Microsecond), "tune", func() {
		m.StartListen(1, rxBeam, func(Delivery) { delivered++ })
	})
	sim.RunAll()
	if delivered != 0 {
		t.Errorf("late listener decoded %d frames", delivered)
	}
}

func TestCollisionNeitherDecodedWhenComparable(t *testing.T) {
	// Two transmitters equidistant from the listener transmit
	// simultaneously into its beam: mutual interference must kill both.
	w, sim, m := lineWorld(t, []int{1, 1, 1}, []float64{0, 40, 80})
	reg := obs.New()
	m.SetObs(reg)
	tx0, _ := aim(w, 0, 1, geom.Deg(30), geom.Deg(12))
	tx2, _ := aim(w, 2, 1, geom.Deg(30), geom.Deg(12))
	// Listener uses a wide (quasi-omni) beam to hear both directions.
	delivered := 0
	m.StartListen(1, phy.Omni, func(Delivery) { delivered++ })
	m.Transmit(0, tx0, 15*time.Microsecond, Frame{})
	m.Transmit(2, tx2, 15*time.Microsecond, Frame{})
	sim.RunAll()
	if delivered != 0 {
		t.Errorf("comparable collision still delivered %d frames", delivered)
	}
	if reg.Counter("medium.control_lost_sinr").Value() == 0 {
		t.Error("collision not recorded as loss")
	}
}

func TestCaptureEffect(t *testing.T) {
	// A much closer transmitter should be captured despite a far interferer.
	w, sim, m := lineWorld(t, []int{1, 1, 1}, []float64{0, 10, 220})
	tx0, rx := aim(w, 0, 1, geom.Deg(30), geom.Deg(12))
	tx2, _ := aim(w, 2, 1, geom.Deg(30), geom.Deg(12))
	var froms []int
	m.StartListen(1, rx, func(d Delivery) { froms = append(froms, d.From) })
	m.Transmit(0, tx0, 15*time.Microsecond, Frame{})
	m.Transmit(2, tx2, 15*time.Microsecond, Frame{})
	sim.RunAll()
	if len(froms) != 1 || froms[0] != 0 {
		t.Errorf("captured froms = %v, want [0]", froms)
	}
}

func TestHalfDuplexTransmitterCannotReceive(t *testing.T) {
	w, sim, m := lineWorld(t, []int{1, 1}, []float64{0, 40})
	tx0, rx1 := aim(w, 0, 1, geom.Deg(30), geom.Deg(12))
	tx1, rx0 := aim(w, 1, 0, geom.Deg(30), geom.Deg(12))
	got := map[int]int{}
	m.StartListen(0, rx0, func(d Delivery) { got[0]++ })
	m.StartListen(1, rx1, func(d Delivery) { got[1]++ })
	// Both transmit simultaneously at each other: neither can decode
	// because both are busy transmitting (half duplex).
	m.Transmit(0, tx0, 15*time.Microsecond, Frame{})
	m.Transmit(1, tx1, 15*time.Microsecond, Frame{})
	sim.RunAll()
	if got[0] != 0 || got[1] != 0 {
		t.Errorf("half-duplex violated: %v", got)
	}
}

func TestSequentialFramesBothDelivered(t *testing.T) {
	w, sim, m := lineWorld(t, []int{1, 1, 1}, []float64{0, 40, 80})
	tx0, _ := aim(w, 0, 1, geom.Deg(30), geom.Deg(12))
	tx2, _ := aim(w, 2, 1, geom.Deg(30), geom.Deg(12))
	var froms []int
	m.StartListen(1, phy.Omni, func(d Delivery) { froms = append(froms, d.From) })
	m.Transmit(0, tx0, 15*time.Microsecond, Frame{})
	sim.ScheduleAt(des.At(16*time.Microsecond), "second", func() {
		m.Transmit(2, tx2, 15*time.Microsecond, Frame{})
	})
	sim.RunAll()
	if len(froms) != 2 {
		t.Fatalf("froms = %v, want two sequential deliveries", froms)
	}
}

func TestStreamInterferesWithControl(t *testing.T) {
	// An ongoing data stream aimed at the listener corrupts a control frame
	// that would otherwise decode.
	w, sim, m := lineWorld(t, []int{1, 1, 1}, []float64{0, 40, 80})
	tx0, rx := aim(w, 0, 1, geom.Deg(30), geom.Deg(12))
	streamBeam, _ := aim(w, 2, 1, geom.Deg(3), geom.Deg(3))
	delivered := 0
	m.StartListen(1, phy.Omni, func(Delivery) { delivered++ })
	id := m.StartStream(2, streamBeam)
	m.Transmit(0, tx0, 15*time.Microsecond, Frame{})
	sim.RunAll()
	if delivered != 0 {
		t.Errorf("control frame decoded through a data stream beam: %d", delivered)
	}
	m.StopStream(id)
	// Only the already-resolved control frame may linger in its retirement
	// grace window; the stream must be gone.
	if m.ActiveTransmissions() > 1 {
		t.Errorf("active = %d after stop", m.ActiveTransmissions())
	}
	// After the stream stops, a retry succeeds.
	m.StartListen(1, rx, func(Delivery) { delivered++ })
	m.Transmit(0, tx0, 15*time.Microsecond, Frame{})
	sim.RunAll()
	if delivered != 1 {
		t.Errorf("retry delivered = %d, want 1", delivered)
	}
}

func TestSINRNow(t *testing.T) {
	w, _, m := lineWorld(t, []int{1, 1, 1}, []float64{0, 40, 80})
	tx, rx := aim(w, 0, 1, geom.Deg(3), geom.Deg(3))
	clean := m.SINRNow(0, 1, tx, rx)
	if clean < 20 {
		t.Fatalf("clean SINR = %v, want strong", clean)
	}
	// Add an interfering stream pointed at the receiver.
	ib, _ := aim(w, 2, 1, geom.Deg(3), geom.Deg(3))
	m.StartStream(2, ib)
	dirty := m.SINRNow(0, 1, tx, rx)
	if dirty >= clean {
		t.Errorf("interference did not reduce SINR: %v vs %v", dirty, clean)
	}
}

func TestSINRNowExcludesEndpoints(t *testing.T) {
	w, _, m := lineWorld(t, []int{1, 1}, []float64{0, 40})
	tx, rx := aim(w, 0, 1, geom.Deg(3), geom.Deg(3))
	base := m.SINRNow(0, 1, tx, rx)
	// The pair's own streams (tx's forward stream, rx's reverse half) must
	// not self-interfere.
	m.StartStream(0, tx)
	back, fwd := aim(w, 1, 0, geom.Deg(3), geom.Deg(3))
	m.StartStream(1, back)
	_ = fwd
	if got := m.SINRNow(0, 1, tx, rx); got != base {
		t.Errorf("own streams changed SINR: %v vs %v", got, base)
	}
}

func TestSINRNowOutOfRange(t *testing.T) {
	_, _, m := lineWorld(t, []int{1, 1}, []float64{0, 900})
	if got := m.SINRNow(0, 1, phy.Omni, phy.Omni); got != -300 {
		t.Errorf("out-of-range SINR = %v, want -300 sentinel", got)
	}
}

func TestReset(t *testing.T) {
	w, sim, m := lineWorld(t, []int{1, 1}, []float64{0, 40})
	txBeam, rxBeam := aim(w, 0, 1, geom.Deg(30), geom.Deg(12))
	m.StartListen(1, rxBeam, func(Delivery) {})
	m.StartStream(0, txBeam)
	m.Reset()
	if m.ActiveTransmissions() != 0 || m.Listening(1) {
		t.Error("Reset did not clear state")
	}
	_ = sim
}

func TestNilHandlerPanics(t *testing.T) {
	_, _, m := lineWorld(t, []int{1}, []float64{0})
	defer func() {
		if recover() == nil {
			t.Error("nil handler should panic")
		}
	}()
	m.StartListen(0, phy.Omni, nil)
}

func TestNonPositiveDurationPanics(t *testing.T) {
	_, _, m := lineWorld(t, []int{1}, []float64{0})
	defer func() {
		if recover() == nil {
			t.Error("zero duration should panic")
		}
	}()
	m.Transmit(0, phy.Omni, 0, Frame{})
}

func TestBlockedFrameNotDelivered(t *testing.T) {
	// Three vehicles in a row, same lane: the middle body blocks 0→2.
	w, sim, m := lineWorld(t, []int{1, 1, 1}, []float64{0, 20, 40})
	l, ok := w.Link(0, 2)
	if !ok || l.Blockers == 0 {
		t.Fatalf("expected blocked link, got %+v ok=%v", l, ok)
	}
	txBeam, rxBeam := aim(w, 0, 2, geom.Deg(30), geom.Deg(12))
	delivered := 0
	m.StartListen(2, rxBeam, func(Delivery) { delivered++ })
	m.Transmit(0, txBeam, 15*time.Microsecond, Frame{})
	sim.RunAll()
	// One blocker costs 15 dB; at 40 m the link often survives one blocker,
	// so assert only consistency with the SINR math rather than a hard no.
	snr := w.SNRdB(0, 2, txBeam, rxBeam)
	wantDecodable := phy.ControlDecodable(snr)
	if (delivered == 1) != wantDecodable {
		t.Errorf("delivered=%d but SNR=%.1f dB decodable=%v", delivered, snr, wantDecodable)
	}
}

func TestListenerReaimLosesInFlightFrame(t *testing.T) {
	// A receiver that re-aims mid-frame (even to the same bearing) must not
	// decode the in-flight frame: its dwell was interrupted.
	w, sim, m := lineWorld(t, []int{1, 1}, []float64{0, 40})
	txBeam, rxBeam := aim(w, 0, 1, geom.Deg(30), geom.Deg(12))
	delivered := 0
	m.StartListen(1, rxBeam, func(Delivery) { delivered++ })
	m.Transmit(0, txBeam, 15*time.Microsecond, Frame{})
	sim.ScheduleAt(des.At(8*time.Microsecond), "reaim", func() {
		m.StartListen(1, rxBeam, func(Delivery) { delivered++ })
	})
	sim.RunAll()
	if delivered != 0 {
		t.Errorf("re-aimed listener decoded %d frames", delivered)
	}
}

func TestHandlerReaimAffectsLaterFramesOnly(t *testing.T) {
	// A handler that re-aims on delivery keeps receiving later frames.
	w, sim, m := lineWorld(t, []int{1, 1}, []float64{0, 40})
	txBeam, rxBeam := aim(w, 0, 1, geom.Deg(30), geom.Deg(12))
	var got []int
	var handler Handler
	handler = func(d Delivery) {
		got = append(got, int(d.Frame.Index))
		m.StartListen(1, rxBeam, handler) // re-aim from inside the handler
	}
	m.StartListen(1, rxBeam, handler)
	m.Transmit(0, txBeam, 15*time.Microsecond, Frame{Index: 1})
	sim.ScheduleAt(des.At(20*time.Microsecond), "second", func() {
		m.Transmit(0, txBeam, 15*time.Microsecond, Frame{Index: 2})
	})
	sim.RunAll()
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("got %v, want [1 2]", got)
	}
}

func TestStopListenInsideHandler(t *testing.T) {
	// Stopping the listener from a handler must halt further deliveries in
	// the same resolution group without panicking.
	w, sim, m := lineWorld(t, []int{1, 1, 1}, []float64{0, 40, 80})
	tx0, _ := aim(w, 0, 1, geom.Deg(30), geom.Deg(12))
	delivered := 0
	m.StartListen(1, phy.Omni, func(Delivery) {
		delivered++
		m.StopListen(1)
	})
	m.Transmit(0, tx0, 15*time.Microsecond, Frame{})
	sim.ScheduleAt(des.At(20*time.Microsecond), "later", func() {
		m.Transmit(0, tx0, 15*time.Microsecond, Frame{})
	})
	sim.RunAll()
	if delivered != 1 {
		t.Errorf("delivered = %d, want exactly 1", delivered)
	}
}

func TestStopUnknownStreamIsNoop(t *testing.T) {
	_, _, m := lineWorld(t, []int{1}, []float64{0})
	m.StopStream(999) // must not panic
	if m.ActiveTransmissions() != 0 {
		t.Error("phantom transmission appeared")
	}
}

func TestDeliveryCarriesBothSNRAndSINR(t *testing.T) {
	// With an interferer, SINR < SNR; without, they coincide.
	w, sim, m := lineWorld(t, []int{1, 1, 0}, []float64{0, 40, 20})
	txBeam, rxBeam := aim(w, 0, 1, geom.Deg(30), geom.Deg(12))
	var clean Delivery
	m.StartListen(1, rxBeam, func(d Delivery) { clean = d })
	m.Transmit(0, txBeam, 15*time.Microsecond, Frame{})
	sim.RunAll()
	if clean.SNRdB == 0 {
		t.Fatal("no delivery")
	}
	if math.Abs((clean.SNRdB - clean.SINRdB).Decibels()) > 1e-9 {
		t.Errorf("clean channel: SNR %v != SINR %v", clean.SNRdB, clean.SINRdB)
	}

	// Now add a stream from vehicle 2 pointed at the listener.
	ib, _ := aim(w, 2, 1, geom.Deg(12), geom.Deg(12))
	m.StartStream(2, ib)
	var dirty Delivery
	m.StartListen(1, rxBeam, func(d Delivery) { dirty = d })
	m.Transmit(0, txBeam, 15*time.Microsecond, Frame{})
	sim.RunAll()
	if dirty.SNRdB != 0 && dirty.SINRdB >= dirty.SNRdB {
		t.Errorf("interfered frame: SINR %v not below SNR %v", dirty.SINRdB, dirty.SNRdB)
	}
}

func TestPartialOverlapInterferenceCounted(t *testing.T) {
	// Frame B starts halfway through frame A and ends after it. At B's
	// resolution, A has already been delivered — but A's energy overlapped
	// B, so B must still fail if A was comparable. Both transmitters sit in
	// the listener's beam at similar range.
	w, sim, m := lineWorld(t, []int{1, 1, 1}, []float64{0, 40, 80})
	tx0, _ := aim(w, 0, 1, geom.Deg(30), geom.Deg(12))
	tx2, _ := aim(w, 2, 1, geom.Deg(30), geom.Deg(12))
	var froms []int
	m.StartListen(1, phy.Omni, func(d Delivery) { froms = append(froms, d.From) })
	m.Transmit(0, tx0, 15*time.Microsecond, Frame{}) // [0, 15µs)
	sim.ScheduleAt(des.At(8*time.Microsecond), "late", func() {
		m.Transmit(2, tx2, 15*time.Microsecond, Frame{}) // [8, 23µs)
	})
	sim.RunAll()
	// A itself is corrupted by B's second half; B is corrupted by A's
	// tail (which must still be visible at B's resolution at 23 µs).
	for _, f := range froms {
		if f == 2 {
			t.Error("late frame decoded despite overlap with the earlier frame")
		}
	}
}

func TestResolvedFramesEventuallyRetired(t *testing.T) {
	w, sim, m := lineWorld(t, []int{1, 1}, []float64{0, 40})
	txBeam, _ := aim(w, 0, 1, geom.Deg(30), geom.Deg(12))
	m.Transmit(0, txBeam, 15*time.Microsecond, Frame{})
	sim.RunAll()
	// Grace keeps it briefly; a later transmission's resolution prunes it.
	sim.ScheduleAt(des.At(time.Millisecond), "later", func() {
		m.Transmit(0, txBeam, 15*time.Microsecond, Frame{})
	})
	sim.RunAll()
	if m.ActiveTransmissions() > 1 {
		t.Errorf("stale frames retained: %d", m.ActiveTransmissions())
	}
}
