package bench

import (
	"testing"

	"repro/internal/workload"
)

// TestSkewPlacementLocalizes is the PR's acceptance gate: Zipf s=1.2
// with adaptive placement on, after warm-up at least 70% of
// transactions commit with zero remote participant sites; placement off
// stays fully remote and records no placement machinery activity.
func TestSkewPlacementLocalizes(t *testing.T) {
	off, err := SkewPlacement(SkewOpts{Pattern: workload.Zipfian})
	if err != nil {
		t.Fatal(err)
	}
	if off.LocalCommitFraction != 0 {
		t.Fatalf("placement off local fraction = %.3f, want 0 (all files remote)", off.LocalCommitFraction)
	}
	if off.OwnerMoves != 0 || off.RoutedCommits != 0 {
		t.Fatalf("placement off ran the machinery: %+v", off)
	}

	on, err := SkewPlacement(SkewOpts{Pattern: workload.Zipfian, Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	if on.Committed == 0 || on.Aborted != 0 {
		t.Fatalf("adaptive run: committed %d aborted %d", on.Committed, on.Aborted)
	}
	if on.LocalCommitFraction < 0.70 {
		t.Fatalf("adaptive local commit fraction = %.3f, want >= 0.70 (moves %d routed %d)",
			on.LocalCommitFraction, on.OwnerMoves, on.RoutedCommits)
	}
	if on.OwnerMoves == 0 {
		t.Fatal("adaptive run migrated no files")
	}
	if on.MsgsPerTxn >= off.MsgsPerTxn {
		t.Fatalf("adaptive msgs/txn %.2f not below baseline %.2f", on.MsgsPerTxn, off.MsgsPerTxn)
	}
}

// TestSkewDeterministic pins the experiment for the CI bench gate: the
// same options twice must yield identical counters.
func TestSkewDeterministic(t *testing.T) {
	for _, adaptive := range []bool{false, true} {
		a, err := SkewPlacement(SkewOpts{Pattern: workload.ShiftingHotspot, Adaptive: adaptive})
		if err != nil {
			t.Fatal(err)
		}
		b, err := SkewPlacement(SkewOpts{Pattern: workload.ShiftingHotspot, Adaptive: adaptive})
		if err != nil {
			t.Fatal(err)
		}
		if a.LocalCommitFraction != b.LocalCommitFraction || a.MsgsPerTxn != b.MsgsPerTxn ||
			a.ForcedPerTxn != b.ForcedPerTxn || a.OwnerMoves != b.OwnerMoves ||
			a.RoutedCommits != b.RoutedCommits || a.SimTime != b.SimTime {
			t.Fatalf("adaptive=%v runs diverge:\n%+v\n%+v", adaptive, a, b)
		}
	}
}
