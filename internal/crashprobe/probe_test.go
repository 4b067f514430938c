package crashprobe

import (
	"bytes"
	"testing"
)

// requireClean fails the test with the full report when any crash point
// of the matrix found a violation.
func requireClean(t *testing.T, res *Result) {
	t.Helper()
	if res.Points() == 0 {
		t.Fatal("matrix swept zero crash points")
	}
	if !res.OK() {
		t.Fatalf("crash matrix failed:\n%s", res.Report())
	}
}

// fireCount returns how many points actually tripped their armed fault.
func fireCount(res *Result) int {
	n := 0
	for _, w := range res.Workloads {
		for _, d := range w.Disks {
			for _, pt := range d.Points {
				if pt.Fired {
					n++
				}
			}
		}
	}
	return n
}

func TestSingleFileMatrix(t *testing.T) {
	res, err := Run(Options{Workload: "single"})
	if err != nil {
		t.Fatal(err)
	}
	requireClean(t, res)
	if fireCount(res) != res.Points() {
		t.Fatalf("only %d of %d armed crash points fired: the replay is not deterministic",
			fireCount(res), res.Points())
	}
	if !res.Workloads[0].Baseline.Confirmed {
		t.Fatal("counting run did not confirm its commit")
	}
}

func TestPageDifferencingMatrix(t *testing.T) {
	res, err := Run(Options{Workload: "diff"})
	if err != nil {
		t.Fatal(err)
	}
	requireClean(t, res)
}

func TestTwoPhaseCommitMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("full 3-site matrix is long; run without -short")
	}
	res, err := Run(Options{Workload: "tpc"})
	if err != nil {
		t.Fatal(err)
	}
	requireClean(t, res)
}

func TestTwoPhaseCommitMatrixBounded(t *testing.T) {
	res, err := Run(Options{Workload: "tpc", MaxPointsPerDisk: 6})
	if err != nil {
		t.Fatal(err)
	}
	requireClean(t, res)
	for _, d := range res.Workloads[0].Disks {
		if d.Swept > 6 {
			t.Fatalf("disk %s swept %d points, bound was 6", d.Volume, d.Swept)
		}
		if d.Writes > 6 && d.Swept < 2 {
			t.Fatalf("disk %s: stride sample too small (%d of %d)", d.Volume, d.Swept, d.Writes)
		}
	}
}

func TestMigrationCommitMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("full 2-site matrix is long; run without -short")
	}
	res, err := Run(Options{Workload: "migrate"})
	if err != nil {
		t.Fatal(err)
	}
	requireClean(t, res)
}

// TestReadOnlyVoteMatrix sweeps the fast-path 2PC whose remote
// participant only read.  The sweep doubles as the proof of the fast
// path itself: the read-only site must expose zero crash points,
// because a VoteReadOnly participant performs no stable write at all.
func TestReadOnlyVoteMatrix(t *testing.T) {
	res, err := Run(Options{Workload: "readonly"})
	if err != nil {
		t.Fatal(err)
	}
	requireClean(t, res)
	for _, d := range res.Workloads[0].Disks {
		if d.Volume == "v2" && d.Writes != 0 {
			t.Fatalf("read-only participant performed %d stable writes, want 0", d.Writes)
		}
	}
	if fireCount(res) != res.Points() {
		t.Fatalf("only %d of %d armed crash points fired", fireCount(res), res.Points())
	}
}

// TestOnePhaseCommitMatrix sweeps the single-participant one-phase
// commit: the commit point is the participant's own prepare-record
// force, and every crash on either side of it must self-resolve from
// the surviving record count (the coordinator, which never logged,
// has nothing to answer).  The coordinator site must expose zero
// crash points - its log is skipped entirely.
func TestOnePhaseCommitMatrix(t *testing.T) {
	res, err := Run(Options{Workload: "onephase"})
	if err != nil {
		t.Fatal(err)
	}
	requireClean(t, res)
	for _, d := range res.Workloads[0].Disks {
		if d.Volume == "v2" && d.Writes != 0 {
			t.Fatalf("one-phase coordinator performed %d stable writes, want 0", d.Writes)
		}
	}
}

// TestLeaseMatrix sweeps the sticky-lease workload: a commit through
// the lease-hit path (no lock message; the storage site materializes
// the descriptor from its retained lease) followed by a conflicting
// local commit that forces the callback revoke.  Every crash point
// must recover to one of the three serial images, confirmed commits
// must survive, and no lease entry may read as a residual lock.
func TestLeaseMatrix(t *testing.T) {
	res, err := Run(Options{Workload: "lease"})
	if err != nil {
		t.Fatal(err)
	}
	requireClean(t, res)
	if fireCount(res) == 0 {
		t.Fatal("no lease crash point fired")
	}
}

// TestPhase2AckDurabilityMatrix pins the coordinator's phase-two
// ordering: crashing a participant on any prepare-log write (the class
// that persists and clears its prepared state) must leave recovery able
// to re-drive phase two until both sites agree.  Before finishTxn made
// prepare-record deletion durable ahead of the phase-two ack, points in
// this sweep left one site committed and the other replaying stale
// intentions over it.
func TestPhase2AckDurabilityMatrix(t *testing.T) {
	res, err := Run(Options{Workload: "tpc", Kind: "preparelog"})
	if err != nil {
		t.Fatal(err)
	}
	requireClean(t, res)
	if fireCount(res) == 0 {
		t.Fatal("no preparelog crash point fired; the filter is not exercising phase two")
	}
}

// TestCoordinatorLogMatrix crashes on every coordinator-log write: the
// commit-point flip and the post-completion record deletion.  Presumed
// abort must keep both participants consistent on either side.
func TestCoordinatorLogMatrix(t *testing.T) {
	res, err := Run(Options{Workload: "tpc", Kind: "coordlog"})
	if err != nil {
		t.Fatal(err)
	}
	requireClean(t, res)
}

func TestJSONDeterministic(t *testing.T) {
	opts := Options{Workload: "single"}
	a, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	ja, err := a.JSON()
	if err != nil {
		t.Fatal(err)
	}
	jb, err := b.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ja, jb) {
		t.Fatalf("same options produced different JSON:\n--- first\n%s\n--- second\n%s", ja, jb)
	}
}

func TestSampleIndices(t *testing.T) {
	cases := []struct {
		n, max int
		want   []int
	}{
		{0, 0, nil},
		{3, 0, []int{0, 1, 2}},
		{3, 5, []int{0, 1, 2}},
		{10, 1, []int{9}},
		{10, 3, []int{0, 4, 9}},
	}
	for _, c := range cases {
		got := sampleIndices(c.n, c.max)
		if len(got) != len(c.want) {
			t.Fatalf("sampleIndices(%d,%d) = %v, want %v", c.n, c.max, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("sampleIndices(%d,%d) = %v, want %v", c.n, c.max, got, c.want)
			}
		}
	}
	// Bounded samples always include the first and last index.
	got := sampleIndices(100, 7)
	if got[0] != 0 || got[len(got)-1] != 99 {
		t.Fatalf("stride sample %v does not span [0,99]", got)
	}
}

func TestUnknownWorkloadAndKind(t *testing.T) {
	if _, err := Run(Options{Workload: "nope"}); err == nil {
		t.Fatal("unknown workload accepted")
	}
	if _, err := Run(Options{Workload: "single", Kind: "nope"}); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

// TestOwnerMoveMatrix sweeps the adaptive-placement workload: the
// probed commit's post-commit sweep migrates the hot file's primary
// copy inline, so crash points land inside the ownership move (source
// reclaim, hosted-volume adoption, the catalog commit between them)
// while a second commit from the old home races the moved file.  Every
// point must heal to exactly one primary copy with no committed data
// lost.
func TestOwnerMoveMatrix(t *testing.T) {
	res, err := Run(Options{Workload: "ownermove"})
	if err != nil {
		t.Fatal(err)
	}
	requireClean(t, res)
	if fireCount(res) == 0 {
		t.Fatal("no ownermove crash point fired")
	}
	// The sweep must include the hosted volume at the move target -
	// that is where the adoption's stable writes land.
	found := false
	for _, d := range res.Workloads[0].Disks {
		if d.Site == 2 && d.Volume == "v1" && d.Writes > 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("sweep did not cover the hosted v1 volume at site 2")
	}
}
