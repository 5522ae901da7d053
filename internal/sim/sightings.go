package sim

import (
	"slices"

	"mmv2v/internal/units"
)

// Sighting is what a vehicle knows about one neighbor it decoded: the link
// SNR, the owner's sector pointing at the neighbor, and the frame of the
// reception kept. The int32 fields hold an entry in 24 bytes.
type Sighting struct {
	SNR    units.DB
	ID     int32
	Sector int32
	Frame  int32
}

// Sightings is one vehicle's table of decoded neighbors in ascending ID
// order — the order every reader needs: mmV2V's working set ∪_f N_i^f,
// ROP's sweep discoveries and 802.11ad's heard PCPs. Entries are never
// pruned; readers skip stale ones by Frame.
type Sightings []Sighting

// Get returns the entry of neighbor j.
func (s Sightings) Get(j int) (Sighting, bool) {
	if k, ok := s.find(j); ok {
		return s[k], true
	}
	return Sighting{}, false
}

// Hear records a reception of neighbor j on the owner's sector in the
// given frame, and reports whether j is new to the table. A frame keeps
// its strongest reception: a reception replaces the entry unless the entry
// is from the same frame and at least as strong. A new entry starts zeroed
// (frame 0, 0 dB), so the first reception of j is kept unless it falls in
// frame 0 at or below 0 dB, which no decodable frame (SINR ≥ 1 dB) does.
func (s *Sightings) Hear(j int, snr units.DB, sector, frame int) (first bool) {
	k, ok := s.find(j)
	if !ok {
		*s = slices.Insert(*s, k, Sighting{ID: int32(j)})
		first = true
	}
	e := &(*s)[k]
	if int(e.Frame) == frame && e.SNR >= snr {
		return first
	}
	e.SNR, e.Sector, e.Frame = snr, int32(sector), int32(frame)
	return first
}

// find returns the index of neighbor j, or where it would be inserted. It
// is written out because slices.BinarySearchFunc calls its comparator
// indirectly: 39 ns against 14 ns per Get on a 16-entry table (2-vCPU
// x86-64).
func (s Sightings) find(j int) (int, bool) {
	lo, hi := 0, len(s)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if int(s[m].ID) < j {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(s) && int(s[lo].ID) == j
}

// Eligible appends to dst, in ascending order, the neighbors in s that
// vehicle i heard fewer than staleness frames before frame and whose
// exchange with i is not yet complete — the working set a protocol matches
// over — and returns the extended slice.
func (e *Env) Eligible(dst []int, i int, s Sightings, frame, staleness int) []int {
	for _, x := range s {
		j := int(x.ID)
		if frame-int(x.Frame) < staleness && !e.PairDone(i, j) {
			dst = append(dst, j)
		}
	}
	return dst
}
