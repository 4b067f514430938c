package crashprobe

import (
	"bytes"
	"fmt"

	"repro/internal/core"
	"repro/internal/invariant"
	"repro/internal/scenario"
	"repro/internal/simnet"
)

// The eight workloads cover the commit shapes of the paper plus the
// optional layers (DESIGN.md sections 10, 13, 14):
//
//	single   - single-file commit on one site (Figure 4(a) direct path:
//	           shadow pages flushed, one inode write is the commit point)
//	diff     - commit of a page shared with a non-transaction co-owner's
//	           uncommitted bytes (Figure 4(b) page differencing: the
//	           committed image is merged onto the stable previous version)
//	tpc      - two files on two storage sites, committed from a third:
//	           full two-phase commit with a coordinator log
//	migrate  - a transaction whose member process forks to a second site
//	           and whose top-level process migrates there before EndTrans,
//	           so the coordinator is not the origin site
//	readonly - two-phase commit with fast paths on where the remote
//	           participant only read: it answers VoteReadOnly, forces
//	           nothing, and drops out of phase two
//	onephase - single remote participant site with fast paths on: the
//	           combined prepare-and-commit message puts the commit point
//	           in the participant's own prepare-record force
//	lease    - sticky lock leases on: the probed transaction commits a
//	           remote file through the lease-hit path (no lock message;
//	           the storage site materializes the descriptor), then a
//	           conflicting transaction at the storage site forces the
//	           callback revoke - crash points land inside the lease
//	           machinery and must never tear either commit
//	ownermove - locality-adaptive placement on with eager knobs: the
//	           probed commit's post-commit sweep migrates the hot file's
//	           primary copy to its dominant accessor, inline, so crash
//	           points land inside the ownership move itself (source
//	           reclaim, target adoption, the catalog commit between
//	           them) while a second commit races the moved file
//
// Each run is serial and deterministic: every replay performs the same
// stable writes in the same order until the armed crash fires.  (The
// lease workload's revoke callback is a network message, not a stable
// write, so it adds no crash points of its own.)
var workloads = []workload{
	{
		name:  "single",
		spec:  scenario.Spec{Volumes: scenario.PerSite(1)},
		paths: []string{"v1/f"},
		setup: func(h *harness) { h.create(1, preImage, "v1/f") },
		run:   func(h *harness) bool { return h.update(1, postImage, "v1/f") },
		check: func(h *harness, confirmed bool) (string, []string) {
			return checkAllOrNothing(h, "v1/f", confirmed)
		},
	},
	{
		name:  "diff",
		spec:  scenario.Spec{Volumes: scenario.PerSite(1)},
		paths: []string{"v1/f"},
		setup: setupDiff,
		run:   func(h *harness) bool { return h.update(1, diffPost, "v1/f") },
		check: checkDiff,
	},
	{
		// Two storage sites plus a third coordinator-only site.
		name:  "tpc",
		spec:  scenario.Spec{Volumes: scenario.PerSite(3)},
		paths: []string{"v1/f", "v2/f"},
		setup: func(h *harness) { h.create(3, preImage, "v1/f", "v2/f") },
		run:   func(h *harness) bool { return h.update(3, postImage, "v1/f", "v2/f") },
		check: checkBothOrNeither,
	},
	{
		name:  "migrate",
		spec:  scenario.Spec{Volumes: scenario.PerSite(2)},
		paths: []string{"v1/f", "v2/f"},
		setup: setupTwoFiles,
		run:   runMigrate,
		check: checkBothOrNeither,
	},
	{
		name:  "readonly",
		spec:  scenario.Spec{Volumes: scenario.PerSite(2), Layers: scenario.Layers{FastPaths: true}},
		paths: []string{"v1/f", "v2/f"},
		setup: setupTwoFiles,
		run:   runReadonly,
		check: checkReadonly,
	},
	{
		// The coordinator runs at site 2 but every touched file lives at
		// site 1: the combined prepare-and-commit message delegates the
		// commit point to site 1's prepare-record force, and the
		// coordinator log is never written.  A crash on either side of
		// that force must resolve from the record count alone (the
		// coordinator has nothing to answer a status query from).
		name:  "onephase",
		spec:  scenario.Spec{Volumes: scenario.PerSite(2), Layers: scenario.Layers{FastPaths: true}},
		paths: []string{"v1/f"},
		setup: func(h *harness) { h.create(2, preImage, "v1/f") },
		run:   func(h *harness) bool { return h.update(2, postImage, "v1/f") },
		check: func(h *harness, confirmed bool) (string, []string) {
			return checkAllOrNothing(h, "v1/f", confirmed)
		},
	},
	{
		name:  "lease",
		spec:  scenario.Spec{Volumes: scenario.PerSite(2), Layers: scenario.Layers{Leases: true}},
		paths: []string{"v2/f"},
		// The setup commit runs from site 1 against site 2's file, so it
		// leaves site 2 holding a lease for site 1 before any fault is
		// armed.
		setup: func(h *harness) { h.create(1, preImage, "v2/f") },
		// Probed transaction: the implicit write hits site 1's cached
		// lease, skips the lock message, and site 2 materializes the
		// descriptor.  Then a conflicting transaction at the storage site:
		// its lock acquisition must revoke site 1's lease before the
		// grant.  Its own crash points are part of the sweep; its outcome
		// is audited separately.
		run: func(h *harness) bool {
			confirmed := h.update(1, postImage, "v2/f")
			h.confirmed2 = h.update(2, thirdImage, "v2/f")
			return confirmed
		},
		check: func(h *harness, confirmed bool) (string, []string) {
			return checkMarch(h, "v2/f", confirmed)
		},
	},
	{
		name:  "ownermove",
		spec:  scenario.Spec{Volumes: scenario.PerSite(2), Layers: scenario.Layers{Placement: scenario.Eager}},
		paths: []string{"v1/f", "v1/warm"},
		// The hosted v1 volume at site 2 is the disk the adoption writes
		// land on; setup's warm move creates it before any fault is armed.
		disks: []diskRef{{Site: 1, Volume: "v1"}, {Site: 2, Volume: "v2"}, {Site: 2, Volume: "v1"}},
		setup: setupOwnermove,
		// Probed transaction from site 2: its commit is the third remote
		// access, so the post-commit sweep moves v1/f to site 2 inline -
		// the armed crash point can land anywhere inside commit or move.
		// Then a racing commit from the old home site: it resolves the
		// file's current home (waiting out the fence if the move is
		// mid-flight) and must land exactly once, wherever the bytes now
		// live.
		run: func(h *harness) bool {
			confirmed := h.update(2, postImage, "v1/f")
			h.confirmed2 = h.update(1, thirdImage, "v1/f")
			return confirmed
		},
		check: func(h *harness, confirmed bool) (string, []string) {
			state, violations := checkMarch(h, "v1/f", confirmed)
			if warm, err := readCommitted(h, "v1/warm"); err != nil || !bytes.Equal(warm, preImage) {
				violations = append(violations,
					fmt.Sprintf("v1/warm: committed bytes damaged by the sweep (err=%v len=%d)", err, len(warm)))
			}
			return state, violations
		},
	},
}

// Baseline and target images.  Sizes straddle page boundaries on
// purpose: pre is a page and a half, post two pages and change, so
// commits exercise partial-page tails and file extension.  thirdImage is
// the follow-up commit's target in the two-commit workloads: the file
// must march pre -> post -> third, and recovery may stop at any
// completed step but never between them.
var (
	preImage   = bytes.Repeat([]byte{'A'}, 1500)
	postImage  = bytes.Repeat([]byte{'B'}, 2600)
	thirdImage = bytes.Repeat([]byte{'D'}, 2600)
)

// create makes the files from a process at site and commits image into
// all of them in one transaction.
func (h *harness) create(site simnet.SiteID, image []byte, paths ...string) {
	p := scenario.Must(h.Sys.NewProcess(site))
	files := make([]*core.File, len(paths))
	for i, path := range paths {
		files[i] = scenario.Must(p.Create(path))
		defer files[i].Close() //nolint:errcheck
	}
	scenario.Ok(h.rewrite(p, image, files...))
}

// rewrite commits image over the open files in one transaction.
func (h *harness) rewrite(p *core.Process, image []byte, files ...*core.File) error {
	return h.Txn(p, func() error {
		for _, f := range files {
			if _, err := f.WriteAt(image, 0); err != nil {
				return err
			}
		}
		return nil
	})
}

// update is the probed transaction's common shape: a fresh process at
// site opens the files, writes image over each and commits.  It reports
// whether the commit was confirmed to the client.
func (h *harness) update(site simnet.SiteID, image []byte, paths ...string) bool {
	p, files, err := h.Open(site, paths...)
	return err == nil && h.rewrite(p, image, files...) == nil
}

// readCommitted returns a file's committed contents as site 1 reads them.
func readCommitted(h *harness, path string) ([]byte, error) {
	return invariant.ReadCommitted(h.Sys, 1, path)
}

// checkMarch audits a file that marches pre -> post -> third (the third
// image only in the two-commit workloads): the committed content must be
// one of the images whole, and a commit confirmed to its client must
// have survived recovery.  The commits are serial, so confirmation is
// monotonic: the follow-up commit implies its state, the probed commit
// at least its own.
func checkMarch(h *harness, path string, confirmed bool) (string, []string) {
	got, err := readCommitted(h, path)
	if err != nil {
		return "unreadable", []string{fmt.Sprintf("%s: committed read failed after recovery: %v", path, err)}
	}
	var violations []string
	var state string
	switch {
	case bytes.Equal(got, preImage):
		state = "pre"
	case bytes.Equal(got, postImage):
		state = "post"
	case bytes.Equal(got, thirdImage):
		state = "post2"
	default:
		state = fmt.Sprintf("torn(len=%d)", len(got))
		violations = append(violations,
			fmt.Sprintf("%s: committed content is none of the whole images (%s)", path, state))
	}
	if h.confirmed2 && state != "post2" {
		violations = append(violations,
			fmt.Sprintf("%s: follow-up commit was confirmed but recovery kept %q", path, state))
	}
	if confirmed && state == "pre" {
		violations = append(violations,
			fmt.Sprintf("%s: commit was confirmed to the client but recovery reverted it", path))
	}
	return state, violations
}

// checkAllOrNothing is checkMarch for a single-commit workload, where
// the third image is itself an anomaly.
func checkAllOrNothing(h *harness, path string, confirmed bool) (string, []string) {
	state, violations := checkMarch(h, path, confirmed)
	if state == "post2" {
		violations = append(violations, fmt.Sprintf("%s: holds an image no transaction wrote", path))
	}
	return state, violations
}

// checkBothOrNeither audits the two-site workloads: each file all or
// nothing, and both on the same side of the commit.
func checkBothOrNeither(h *harness, confirmed bool) (string, []string) {
	sa, va := checkAllOrNothing(h, "v1/f", confirmed)
	sb, vb := checkAllOrNothing(h, "v2/f", confirmed)
	violations := append(va, vb...)
	if sa != sb {
		return fmt.Sprintf("split(%s/%s)", sa, sb), append(violations, fmt.Sprintf(
			"cross-site atomicity torn: v1/f recovered %s but v2/f recovered %s", sa, sb))
	}
	return sa, violations
}

// setupTwoFiles commits the baseline into one file per site, each in
// its own transaction, from site 1.
func setupTwoFiles(h *harness) {
	h.create(1, preImage, "v1/f")
	h.create(1, preImage, "v2/f")
}

// ---------------------------------------------------------------------
// diff: commit of a page shared with a co-owner (Figure 4(b)).

const (
	coOff = 512 // co-owner's uncommitted range on the shared page
	coLen = 100
	txLen = 100 // transaction's range at offset 0 on the same page
)

var (
	// diffPre is exactly one page of 'A': the shared page.
	diffPre  = bytes.Repeat([]byte{'A'}, 1024)
	diffPost = bytes.Repeat([]byte{'B'}, txLen)
)

func setupDiff(h *harness) {
	h.create(1, diffPre, "v1/f")
	// The co-owner holds uncommitted bytes on the same page and keeps
	// the file open, forcing the transaction's commit onto the page-
	// differencing path: its committed image must merge only the
	// transaction's ranges onto the stable previous version.
	co, files, err := h.Open(1, "v1/f")
	scenario.Ok(err)
	scenario.Must(files[0].WriteAt(bytes.Repeat([]byte{'C'}, coLen), coOff))
	h.coOwner = co
}

func checkDiff(h *harness, confirmed bool) (string, []string) {
	got, err := readCommitted(h, "v1/f")
	if err != nil {
		return "unreadable", []string{fmt.Sprintf("v1/f: committed read failed after recovery: %v", err)}
	}
	var violations []string
	if len(got) != len(diffPre) {
		return fmt.Sprintf("torn(len=%d)", len(got)), []string{
			fmt.Sprintf("v1/f: committed size %d, want %d (neither image changes the size)", len(got), len(diffPre))}
	}
	head := got[:txLen]
	state := ""
	switch {
	case bytes.Equal(head, diffPre[:txLen]):
		state = "pre"
	case bytes.Equal(head, diffPost):
		state = "post"
	default:
		state = "torn(head)"
		violations = append(violations,
			"v1/f: transaction's range [0,100) is neither all-old nor all-new")
	}
	if confirmed && state == "pre" {
		violations = append(violations,
			"v1/f: commit was confirmed to the client but recovery reverted it")
	}
	// Everything outside the transaction's range must be the stable
	// previous version - in particular the co-owner's uncommitted 'C'
	// bytes must never reach committed storage.
	if i := bytes.IndexByte(got[txLen:], 'C'); i >= 0 {
		violations = append(violations,
			fmt.Sprintf("v1/f: co-owner's uncommitted byte committed at offset %d", txLen+i))
	} else if !bytes.Equal(got[txLen:], diffPre[txLen:]) {
		violations = append(violations,
			"v1/f: bytes outside the transaction's range changed across its commit")
	}
	return state, violations
}

// ---------------------------------------------------------------------
// migrate: the transaction commits from a site it migrated to.

func runMigrate(h *harness) bool {
	p, files, err := h.Open(1, "v1/f")
	if err != nil {
		return false
	}
	return h.Txn(p, func() error {
		if _, err := files[0].WriteAt(postImage, 0); err != nil {
			return err
		}
		// A member process forks to site 2, writes there, and exits (its
		// file list merges into the top-level process)...
		child, err := p.Fork(2)
		if err != nil {
			return err
		}
		f2, err := child.Open("v2/f")
		if err != nil {
			return err
		}
		if _, err := f2.WriteAt(postImage, 0); err != nil {
			return err
		}
		if err := child.Exit(); err != nil {
			return err
		}
		// ...then the top-level process migrates to site 2 and commits
		// from there: the coordinator site is not the transaction's origin.
		return p.Migrate(2)
	}) == nil
}

// ---------------------------------------------------------------------
// readonly: two-phase commit where the remote participant only read.

func runReadonly(h *harness) bool {
	p, files, err := h.Open(1, "v1/f", "v2/f")
	if err != nil {
		return false
	}
	return h.Txn(p, func() error {
		if _, err := files[0].WriteAt(postImage, 0); err != nil {
			return err
		}
		// The remote participant only takes a shared lock and reads: with
		// fast paths on it votes read-only at prepare time, forces no
		// prepare record, and receives no phase-two message.  Site 2's
		// sweep therefore learns zero crash points - the matrix itself is
		// the proof that the read-only voter performs no stable write.
		if err := files[1].LockRange(0, 8, core.Shared); err != nil {
			return err
		}
		_, err := files[1].ReadAt(make([]byte, 8), 0)
		return err
	}) == nil
}

func checkReadonly(h *harness, confirmed bool) (string, []string) {
	state, violations := checkAllOrNothing(h, "v1/f", confirmed)
	// The read-only file must be byte-identical to its baseline at
	// every crash point: a shared read never changes committed state.
	got, err := readCommitted(h, "v2/f")
	if err != nil {
		violations = append(violations,
			fmt.Sprintf("v2/f: committed read failed after recovery: %v", err))
	} else if !bytes.Equal(got, preImage) {
		violations = append(violations,
			fmt.Sprintf("v2/f: read-only participant's file changed across commit (len=%d)", len(got)))
	}
	return state, violations
}

// ---------------------------------------------------------------------
// ownermove: an ownership move fires inside the probed commit, racing a
// follow-up commit from the file's old home site.

func setupOwnermove(h *harness) {
	p := scenario.Must(h.Sys.NewProcess(2))
	// commitTimes creates and commits path, then commits it n-1 times
	// more through a second open.
	commitTimes := func(path string, n int) {
		f := scenario.Must(p.Create(path))
		for i := 0; i < n; i++ {
			scenario.Ok(h.rewrite(p, preImage, f))
			if i == 0 {
				scenario.Ok(f.Close())
				f = scenario.Must(p.Open(path))
			}
		}
		scenario.Ok(f.Close())
	}
	// Warm move: three remote commits on v1/warm migrate it to site 2
	// (the decayed access mass crosses MinAccesses=2 on the third),
	// creating the hosted v1 volume there so its disk is part of the
	// sweep from the first armed write.
	commitTimes("v1/warm", 3)
	if h.Sys.Cluster().Site(2).Volume("v1") == nil {
		scenario.Ok(fmt.Errorf("ownermove setup: warm move did not create hosted v1 at site 2"))
	}
	// The probed file: two committed remote accesses, one short of the
	// move threshold - the probed commit supplies the third.
	commitTimes("v1/f", 2)
	if home, err := h.Sys.Cluster().StorageSite("v1/f"); err != nil || home != 1 {
		scenario.Ok(fmt.Errorf("ownermove setup: v1/f moved early (home %v, err %v)", home, err))
	}
}
