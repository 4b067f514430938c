package placement

import (
	"testing"

	"repro/internal/simnet"
)

func TestDominantRequiresThresholdAndMass(t *testing.T) {
	tr := NewTracker(Config{Threshold: 0.6, MinAccesses: 4, Cooldown: 8})
	const self = simnet.SiteID(1)

	// Below the mass floor: no move even at 100% share.
	for i := 0; i < 3; i++ {
		tr.Record("v1/f", 2)
	}
	if _, ok := tr.Dominant("v1/f", self); ok {
		t.Fatal("dominant below MinAccesses")
	}
	// Past the floor: site 2 dominates.
	for i := 0; i < 5; i++ {
		tr.Record("v1/f", 2)
	}
	if s, ok := tr.Dominant("v1/f", self); !ok || s != 2 {
		t.Fatalf("Dominant = %v,%v, want 2,true", s, ok)
	}
	// The dominant accessor being self means no move.
	if _, ok := tr.Dominant("v1/f", 2); ok {
		t.Fatal("self-dominant file reported movable")
	}
}

func TestDominantHysteresis(t *testing.T) {
	tr := NewTracker(Config{Threshold: 0.6, MinAccesses: 2, Cooldown: 4})
	const self = simnet.SiteID(1)
	// A 50/50 split never crosses a >0.5 threshold.
	for i := 0; i < 20; i++ {
		tr.Record("v1/f", 2)
		tr.Record("v1/f", 3)
	}
	if s, ok := tr.Dominant("v1/f", self); ok {
		t.Fatalf("tied accessors reported dominant %v", s)
	}
}

func TestCooldownBlocksRemove(t *testing.T) {
	tr := NewTracker(Config{Threshold: 0.6, MinAccesses: 2, Cooldown: 10})
	const self = simnet.SiteID(1)
	for i := 0; i < 5; i++ {
		tr.Record("v1/f", 2)
	}
	if _, ok := tr.Dominant("v1/f", self); !ok {
		t.Fatal("no dominant before move")
	}
	tr.NoteMove("v1/f")
	for i := 0; i < 9; i++ {
		tr.Record("v1/f", 2)
		if _, ok := tr.Dominant("v1/f", self); ok {
			t.Fatalf("dominant during cooldown at access %d", i)
		}
	}
	tr.Record("v1/f", 2)
	if _, ok := tr.Dominant("v1/f", self); !ok {
		t.Fatal("no dominant after cooldown elapsed")
	}
}

func TestDecayForgetsColdAccessor(t *testing.T) {
	// Short half-life: an old majority fades once a new site takes over.
	tr := NewTracker(Config{Threshold: 0.6, MinAccesses: 2, Cooldown: 1, HalfLife: 8})
	const self = simnet.SiteID(1)
	for i := 0; i < 40; i++ {
		tr.Record("v1/f", 2)
	}
	if s, _ := tr.Dominant("v1/f", self); s != 2 {
		t.Fatalf("initial dominant = %v", s)
	}
	// Site 3 becomes the sole accessor; site 2's mass halves every 8
	// accesses, so well under 40 accesses flips dominance.
	for i := 0; i < 40; i++ {
		tr.Record("v1/f", 3)
	}
	if s, ok := tr.Dominant("v1/f", self); !ok || s != 3 {
		t.Fatalf("after shift Dominant = %v,%v, want 3,true", s, ok)
	}
	shares := tr.Shares("v1/f")
	if shares[3] < 0.9 {
		t.Fatalf("site 3 share = %.3f after takeover, want > 0.9", shares[3])
	}
}

func TestForgetDropsHeat(t *testing.T) {
	tr := NewTracker(Config{MinAccesses: 1, Threshold: 0.51, Cooldown: 1})
	for i := 0; i < 10; i++ {
		tr.Record("v1/f", 2)
	}
	tr.Forget("v1/f")
	if _, ok := tr.Dominant("v1/f", 1); ok {
		t.Fatal("forgotten file still dominant")
	}
	if tr.Shares("v1/f") != nil {
		t.Fatal("forgotten file still has shares")
	}
}

func TestNilTrackerSafe(t *testing.T) {
	var tr *Tracker
	tr.Record("x", 1)
	tr.NoteMove("x")
	tr.Forget("x")
	if _, ok := tr.Dominant("x", 1); ok {
		t.Fatal("nil tracker dominant")
	}
	if tr.Shares("x") != nil {
		t.Fatal("nil tracker shares")
	}
}
