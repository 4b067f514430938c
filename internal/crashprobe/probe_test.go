package crashprobe

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/scenario"
)

// files names the probe scenario files of the workloads.
func files(workloads ...string) []string {
	var out []string
	for _, w := range workloads {
		out = append(out, filepath.Join("..", "..", "testdata", "scenarios", "probe-"+w+".scn"))
	}
	return out
}

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
	res, err := Run(Options{Files: files("single")})
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
	res, err := Run(Options{Files: files("diff")})
	if err != nil {
		t.Fatal(err)
	}
	requireClean(t, res)
}

func TestTwoPhaseCommitMatrix(t *testing.T) {
	res, err := Run(Options{Files: files("tpc")})
	if err != nil {
		t.Fatal(err)
	}
	requireClean(t, res)
}

func TestTwoPhaseCommitMatrixBounded(t *testing.T) {
	res, err := Run(Options{Files: files("tpc"), MaxPointsPerDisk: 6})
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
	res, err := Run(Options{Files: files("migrate")})
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
	res, err := Run(Options{Files: files("readonly")})
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
	res, err := Run(Options{Files: files("onephase")})
	if err != nil {
		t.Fatal(err)
	}
	requireClean(t, res)
	for _, d := range res.Workloads[0].Disks {
		if d.Volume == "v2" && d.Writes != 0 {
			t.Fatalf("one-phase coordinator performed %d stable writes, want 0", d.Writes)
		}
	}
	// Two written files keep the commit point in the prepare log.
	res, err = Run(Options{Files: files("onephase"), Kind: "preparelog"})
	if err != nil {
		t.Fatal(err)
	}
	requireClean(t, res)
}

// TestOneFileCommitMatrix sweeps the one-phase commit of a transaction
// that changed one file: that file's single-file commit is the whole
// protocol.  Site 1's crash points are exactly its data-page and inode
// writes, no log record is written on either disk, and the file is
// clean at every point.
func TestOneFileCommitMatrix(t *testing.T) {
	writes := map[string]map[string]int{} // kind -> volume -> writes
	for _, kind := range []string{"", "data", "inode", "preparelog", "coordlog"} {
		res, err := Run(Options{Files: files("onefile"), Kind: kind})
		if err != nil {
			t.Fatal(err)
		}
		if kind == "" {
			requireClean(t, res)
		} else if !res.OK() {
			t.Fatalf("%s sweep failed:\n%s", kind, res.Report())
		}
		writes[kind] = map[string]int{}
		for _, d := range res.Workloads[0].Disks {
			writes[kind][d.Volume] = d.Writes
		}
	}
	if all, data, inode := writes[""]["v1"], writes["data"]["v1"], writes["inode"]["v1"]; inode != 1 || data == 0 || data+inode != all {
		t.Errorf("site 1 writes %d: %d data and %d inode, want every one a data page or the one inode", all, data, inode)
	}
	for _, kind := range []string{"preparelog", "coordlog"} {
		for vol, n := range writes[kind] {
			if n != 0 {
				t.Errorf("%s: %d %s writes, want 0", vol, n, kind)
			}
		}
	}
	if n := writes[""]["v2"]; n != 0 {
		t.Errorf("the coordinator's disk took %d writes, want 0", n)
	}
}

// TestOneFileCommitUnderLayers sweeps the one-phase commits under every
// row of the layer matrix (testdata/matrix.txt, the rows make matrix
// sweeps chaos under): the one-file commit at its inode, the record path
// whose prepare records carry the pages (onephase), and a page written
// three times and forced once (oneforce).  The layers that batch its log
// forces, lease its locks and may move its file must leave every crash
// point clean.  A file's expect counter lines count its own spec's I/O,
// which a layer that moves the file changes, so the sweep drops them.
func TestOneFileCommitUnderLayers(t *testing.T) {
	rows, err := os.ReadFile(filepath.Join("..", "..", "testdata", "matrix.txt"))
	if err != nil {
		t.Fatal(err)
	}
	for _, file := range files("onefile", "onephase", "oneforce") {
		raw, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		var src []byte
		for _, line := range strings.SplitAfter(string(raw), "\n") {
			if !strings.HasPrefix(line, "expect counter ") {
				src = append(src, line...)
			}
		}
		n := 0
		for _, row := range strings.Split(strings.TrimSpace(string(rows)), "\n") {
			if strings.HasPrefix(row, "#") {
				continue
			}
			n++
			// The row's flags as spec lines: "-leases -placement" is
			// "leases\nplacement\n", and the row "-" a blank line.
			spec := strings.ReplaceAll(" "+row, " -", "\n")[1:] + "\n"
			wr, err := sweep(file, append([]byte(spec), src...), Options{})
			if err != nil {
				t.Fatal(err)
			}
			res := &Result{Workloads: []WorkloadResult{*wr}}
			if res.Points() == 0 || !res.OK() {
				t.Fatalf("%s, row %q: %d points:\n%s", filepath.Base(file), row, res.Points(), res.Report())
			}
			t.Logf("%s, row %q: %d points, clean", filepath.Base(file), row, res.Points())
		}
		if n != 12 {
			t.Fatalf("%d matrix rows, want 12 (none, each of four layers, every pair, all four)", n)
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
	res, err := Run(Options{Files: files("lease")})
	if err != nil {
		t.Fatal(err)
	}
	requireClean(t, res)
	if fireCount(res) == 0 {
		t.Fatal("no lease crash point fired")
	}
}

// TestReplicaMatrix crashes at every stable write of the replica
// workload: a commit at the primary and one from the replica's site, each
// ending with the primary shipping the new image to the replica.  At
// every crash point the primary must recover to pre, post or third, and
// a read at the replica's site must be forwarded or return exactly the
// primary's committed bytes (invariant.Replica).
func TestReplicaMatrix(t *testing.T) {
	res, err := Run(Options{Files: files("replica")})
	if err != nil {
		t.Fatal(err)
	}
	requireClean(t, res)
	if fireCount(res) == 0 {
		t.Fatal("no replica crash point fired")
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
	res, err := Run(Options{Files: files("tpc"), Kind: "preparelog"})
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
	res, err := Run(Options{Files: files("tpc"), Kind: "coordlog"})
	if err != nil {
		t.Fatal(err)
	}
	requireClean(t, res)
}

func TestJSONDeterministic(t *testing.T) {
	opts := Options{Files: files("single")}
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

// TestUnknownWorkloadAndKind: a missing file, a chaos file (a chaos.Run,
// with no words of its own to crash) and an unknown I/O kind are refused.
func TestUnknownWorkloadAndKind(t *testing.T) {
	if _, err := Run(Options{Files: files("nope")}); err == nil {
		t.Fatal("missing file accepted")
	}
	chaosFile := filepath.Join("..", "..", "testdata", "scenarios", "seed87.scn")
	if _, err := Run(Options{Files: []string{chaosFile}}); !errors.Is(err, scenario.ErrChaosFile) {
		t.Fatalf("chaos file: got %v, want %v", err, scenario.ErrChaosFile)
	}
	if _, err := Run(Options{Files: files("single"), Kind: "nope"}); err == nil {
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
	res, err := Run(Options{Files: files("ownermove")})
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

// sweepText probes a scenario file given as text and fails the test on a
// harness error or on any violation, the counting run's included.
func sweepText(t *testing.T, name, src string) *Result {
	t.Helper()
	wr, err := sweep(name, []byte(src), Options{})
	if err != nil {
		t.Fatal(err)
	}
	res := &Result{Workloads: []WorkloadResult{*wr}}
	if res.Points() == 0 || !res.OK() {
		t.Fatalf("%s: %d points:\n%s", name, res.Points(), res.Report())
	}
	return res
}

// TestProbeEndsLiveProcesses: a file whose words end with a process still
// holding a non-transaction lock and another inside a transaction that
// holds a Shared lock probes clean at its baseline and at every point.  A
// probe replay restarts only the crashed sites, so the processes are
// ended before the audit, as the restart of every site ends them under
// locus run.
func TestProbeEndsLiveProcesses(t *testing.T) {
	sweepText(t, "held.scn", `sites 2
proc s 2
begin s
fill s v1/f 0 1500 A
end s
close s v1/f
probe
proc p 2
begin p
fill p v1/f 0 2600 B
end p
lock p v1/f 0 8 x nontxn
proc q 1
begin q
lock q v1/f 16 8 s
expect atomic v1/f
`)
}

// TestProbeReadOnlyLastWord: a file whose last word is a read-only end
// under fastpaths and placement probes clean: the release that end left
// in flight lands during recovery, and no Shared lock is left behind.
func TestProbeReadOnlyLastWord(t *testing.T) {
	sweepText(t, "readonly-last.scn", `sites 2
fastpaths
placement
proc s 2
begin s
fill s v1/f 0 1500 A
end s
close s v1/f
probe
proc p 2
begin p
fill p v1/f 0 2600 B
end p
begin p
read p v1/f 0 8
end p
expect atomic v1/f
`)
}
