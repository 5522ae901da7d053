package world

import (
	"testing"

	"mmv2v/internal/traffic"
	"mmv2v/internal/xrand"
)

// TestLinkLookupAllocFree pins the Link(i, j) zero-alloc contract
// independently of the alloccheck lint pass and the benchmark gate: the
// binary search of the rank-sorted link slice must never touch the heap,
// whatever the protocol layers do around it.
func TestLinkLookupAllocFree(t *testing.T) {
	road, err := traffic.New(traffic.DefaultConfig(30), xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	w, err := New(DefaultConfig(), road)
	if err != nil {
		t.Fatal(err)
	}
	var tx, rx int
	found := false
	for i := 0; i < w.NumVehicles() && !found; i++ {
		if ls := w.Links(i); len(ls) > 0 {
			tx, rx = i, int(ls[len(ls)/2].J)
			found = true
		}
	}
	if !found {
		t.Skip("no links")
	}
	if n := testing.AllocsPerRun(1000, func() {
		if _, ok := w.Link(tx, rx); !ok {
			t.Fatal("link vanished")
		}
	}); n != 0 {
		t.Errorf("Link lookup allocates %v times per run, want 0", n)
	}
}
