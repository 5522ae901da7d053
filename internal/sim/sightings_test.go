package sim_test

import (
	"testing"

	"mmv2v/internal/sim"
	"mmv2v/internal/units"
	"mmv2v/internal/xrand"
)

// refEntry is the per-neighbor record the protocols kept in maps before
// the shared table.
type refEntry struct {
	snr    units.DB
	sector int
	frame  int
}

// hearSweep is the mmV2V SND and ROP handler the table replaced: a first
// sighting adds a zeroed entry, and a reception replaces the entry unless
// the entry is from the same frame and at least as strong.
func hearSweep(m map[int]*refEntry, j int, snr units.DB, sector, frame int) bool {
	info := m[j]
	first := info == nil
	if first {
		info = &refEntry{}
		m[j] = info
	}
	if info.frame == frame && info.snr >= snr {
		return first
	}
	info.snr, info.sector, info.frame = snr, sector, frame
	return first
}

// hearBeacon is the 802.11ad beacon handler the table replaced: the first
// beacon makes the entry, and only a strictly stronger one replaces it.
func hearBeacon(m map[int]*refEntry, j int, snr units.DB, sector, frame int) bool {
	info := m[j]
	if info == nil {
		m[j] = &refEntry{snr: snr, sector: sector, frame: frame}
		return true
	}
	if snr > info.snr {
		info.snr, info.sector = snr, sector
	}
	return false
}

// TestSightingsMatchMapReference drives random reception sequences into a
// table and into each removed map handler, and after every reception
// compares Hear's first-sighting result, every Get, and the table's
// ascending ID order. Sequences hold ties and stronger and weaker
// receptions within a frame, weaker ones in a later frame, and IDs that
// arrive out of order.
//
// The sweep reference runs over non-decreasing frames from frame 0, with
// SNRs down to below 0 dB, so the zeroed first entry is exercised. The
// beacon reference runs within one frame: 802.11ad sweeps beacons only in
// re-association frames, which are also the frames that empty the table.
// Its SNRs are decodable (≥ 1 dB), as every delivered beacon's is.
func TestSightingsMatchMapReference(t *testing.T) {
	const ids, steps, sequences = 12, 80, 300
	for _, tc := range []struct {
		name     string
		hear     func(map[int]*refEntry, int, units.DB, int, int) bool
		oneFrame bool
		minSNR   int
	}{
		{"sweep", hearSweep, false, -3},
		{"beacon", hearBeacon, true, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for seq := 0; seq < sequences; seq++ {
				rng := xrand.New(uint64(seq)).Child(tc.name)
				var table sim.Sightings
				ref := map[int]*refEntry{}
				frame := 0
				if tc.oneFrame {
					frame = 10 * rng.Intn(3)
				}
				for step := 0; step < steps; step++ {
					if !tc.oneFrame && rng.Bool(0.2) {
						frame += 1 + rng.Intn(2)
					}
					j := rng.Intn(ids)
					// Whole-dB SNRs over a narrow range make ties common.
					snr := units.DB(tc.minSNR + rng.Intn(7))
					sector := rng.Intn(24)
					want := tc.hear(ref, j, snr, sector, frame)
					if got := table.Hear(j, snr, sector, frame); got != want {
						t.Fatalf("sequence %d step %d: Hear(%d, %v, %d, %d) first = %v, reference %v",
							seq, step, j, snr, sector, frame, got, want)
					}
					if len(table) != len(ref) {
						t.Fatalf("sequence %d step %d: %d entries, reference %d", seq, step, len(table), len(ref))
					}
					for k := 1; k < len(table); k++ {
						if table[k-1].ID >= table[k].ID {
							t.Fatalf("sequence %d step %d: IDs out of order at %d: %v", seq, step, k, table)
						}
					}
					for id := 0; id < ids; id++ {
						got, ok := table.Get(id)
						r := ref[id]
						if ok != (r != nil) {
							t.Fatalf("sequence %d step %d: Get(%d) ok = %v, reference has it = %v", seq, step, id, ok, r != nil)
						}
						if r == nil {
							continue
						}
						want := sim.Sighting{SNR: r.snr, ID: int32(id), Sector: int32(r.sector), Frame: int32(r.frame)}
						if got != want {
							t.Fatalf("sequence %d step %d: Get(%d) = %+v, reference %+v", seq, step, id, got, want)
						}
					}
				}
			}
		})
	}
}
