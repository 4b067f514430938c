// Package crashprobe is a deterministic, exhaustive crash-schedule
// explorer for the commit machinery: for each workload it first runs a
// counting pass to learn N, the number of stable page writes each disk
// performs, then replays the workload N times, arming
// simdisk.CrashAfterWrites(i) for every index i (optionally restricted
// to one IOKind class).  Each replay is a scenario.Run whose only fault is
// that disk, armed before the workload starts; after the crash Run drives
// full site recovery (Site.Restart, ResolveInDoubt, coordinator phase-two
// retries) and mechanically checks the DESIGN.md section 5 invariants: per-file
// all-or-nothing, durability of confirmed commits, no torn log records,
// and consistent resolution of in-doubt transactions across sites.
//
// Unlike the randomized schedules of internal/chaos, a probe sweep is a
// complete enumeration: every instant at which a crash could separate
// one stable write from the next is visited exactly once, so a clean
// matrix is a proof over the workload's whole crash surface, not a
// sample of it.  Everything is deterministic - same options, same
// result, byte for byte.
package crashprobe

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/invariant"
	"repro/internal/scenario"
	"repro/internal/simdisk"
	"repro/internal/simnet"
)

// Options selects and bounds one probe sweep.
type Options struct {
	// Workload is one of "single", "diff", "tpc", "migrate",
	// "readonly", "onephase", "lease", "ownermove", or "all"/"" for
	// every workload.
	Workload string
	// Kind optionally restricts the sweep to one I/O class ("data",
	// "inode", "coordlog", "preparelog"): only stable writes of that
	// kind are counted and crashed on.  Empty sweeps every write.
	Kind string
	// MaxPointsPerDisk bounds the sweep per disk: when a disk exposes
	// more crash points than this, the indices are stride-sampled
	// (first and last always included).  Zero means exhaustive.
	MaxPointsPerDisk int
	// Forensics attaches the causal trace tail of the touched files to
	// each violation.
	Forensics bool
	// Logf reports per-point progress (nil = silent).
	Logf func(format string, args ...any)
}

// PointResult is the verdict of one crash point: the workload replayed
// with the named disk armed to fail its (Index+1)-th stable write.
// Index -1 is the counting run (no crash armed).
type PointResult struct {
	Site   int
	Volume string
	Index  int
	Kind   string `json:",omitempty"`
	// Fired reports whether the armed fault actually tripped.
	Fired bool
	// Confirmed reports whether the commit was confirmed to the client
	// (EndTrans returned nil).  Confirmed implies the committed state
	// must survive recovery.
	Confirmed bool
	// State summarizes the committed content the audit read back:
	// "pre", "post", or a workload-specific anomaly tag.
	State      string
	Violations []string `json:",omitempty"`
	Forensics  []string `json:",omitempty"`
}

// DiskSweep is the exhaustive (or stride-bounded) sweep of one disk.
type DiskSweep struct {
	Site   int
	Volume string
	// Writes is N, the stable write count the counting run learned.
	Writes int
	// Swept is how many of those indices were replayed (== Writes
	// unless MaxPointsPerDisk bounded the sweep).
	Swept  int
	Points []PointResult
}

// WorkloadResult is one workload's full crash matrix.
type WorkloadResult struct {
	Workload string
	Baseline PointResult
	Disks    []DiskSweep
}

// Result is a whole probe run.
type Result struct {
	Kind      string `json:",omitempty"`
	Workloads []WorkloadResult
}

// OK reports whether every point of every matrix passed.
func (r *Result) OK() bool { return len(r.Violations()) == 0 }

// Points returns the total number of crash points replayed.
func (r *Result) Points() int {
	n := 0
	for _, w := range r.Workloads {
		for _, d := range w.Disks {
			n += len(d.Points)
		}
	}
	return n
}

// Violations flattens every failing point's findings, each prefixed
// with its workload and crash point.
func (r *Result) Violations() []string {
	var out []string
	for _, w := range r.Workloads {
		for _, v := range w.Baseline.Violations {
			out = append(out, fmt.Sprintf("%s baseline: %s", w.Workload, v))
		}
		for _, d := range w.Disks {
			for _, pt := range d.Points {
				for _, v := range pt.Violations {
					out = append(out, fmt.Sprintf("%s %s@%d: %s", w.Workload, pt.Volume, pt.Index, v))
				}
			}
		}
	}
	return out
}

// JSON renders the result deterministically: same options, same bytes.
func (r *Result) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// Report renders the human-readable matrix summary.
func (r *Result) Report() string {
	var b strings.Builder
	for _, w := range r.Workloads {
		total, fired, bad := 0, 0, 0
		for _, d := range w.Disks {
			for _, pt := range d.Points {
				total++
				if pt.Fired {
					fired++
				}
				if len(pt.Violations) > 0 {
					bad++
				}
			}
		}
		fmt.Fprintf(&b, "workload %-8s", w.Workload)
		for _, d := range w.Disks {
			fmt.Fprintf(&b, "  %s:%d writes (%d swept)", d.Volume, d.Writes, d.Swept)
		}
		fmt.Fprintf(&b, "  points=%d fired=%d violations=%d\n", total, fired, bad)
		if len(w.Baseline.Violations) > 0 {
			fmt.Fprintf(&b, "  FAIL baseline (state=%s)\n", w.Baseline.State)
			for _, v := range w.Baseline.Violations {
				fmt.Fprintf(&b, "    - %s\n", v)
			}
		}
		for _, d := range w.Disks {
			for _, pt := range d.Points {
				if len(pt.Violations) == 0 {
					continue
				}
				fmt.Fprintf(&b, "  FAIL %s@%d (fired=%v confirmed=%v state=%s)\n",
					pt.Volume, pt.Index, pt.Fired, pt.Confirmed, pt.State)
				for _, v := range pt.Violations {
					fmt.Fprintf(&b, "    - %s\n", v)
				}
				for _, f := range pt.Forensics {
					fmt.Fprintf(&b, "      %s\n", f)
				}
			}
		}
	}
	if r.OK() {
		b.WriteString("verdict: PASS\n")
	} else {
		fmt.Fprintf(&b, "verdict: FAIL (%d violations)\n", len(r.Violations()))
	}
	return b.String()
}

// workload is one probed scenario: a deterministic, serial transaction
// whose crash surface the sweep enumerates.
type workload struct {
	name string
	// spec is the cluster the workload runs on: site i hosts volume
	// "v<i>", with whichever optional layers the workload probes.
	spec scenario.Spec
	// paths lists the files the audits read (and the objects forensics
	// are collected for).
	paths []string
	// disks overrides the sweep's default of each site's own mounted
	// volume (the ownermove workload adds the hosted volume an adopted
	// file lands on at its new home site).  Every listed volume must
	// exist once setup returns.
	disks []diskRef
	// setup commits the baseline state.  Stable writes here happen
	// before the fault is armed and are not crash points.
	setup func(h *harness)
	// run executes the probed transaction; confirmed reports whether
	// the commit was confirmed to the client.
	run func(h *harness) (confirmed bool)
	// check audits the committed content after recovery.
	check func(h *harness, confirmed bool) (state string, violations []string)
}

func selectWorkloads(name string) ([]workload, error) {
	if name == "" || name == "all" {
		return workloads, nil
	}
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return []workload{w}, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("crashprobe: unknown workload %q (want %s or all)",
		name, strings.Join(names, ", "))
}

// parseKind maps an Options.Kind name to its IOKind.
func parseKind(name string) (simdisk.IOKind, bool, error) {
	if name == "" {
		return 0, false, nil
	}
	for _, k := range []simdisk.IOKind{
		simdisk.IOData, simdisk.IOInode, simdisk.IOCoordLog,
		simdisk.IOPrepareLog, simdisk.IOWAL, simdisk.IOMeta,
	} {
		if k.String() == name {
			return k, true, nil
		}
	}
	return 0, false, fmt.Errorf("crashprobe: unknown I/O kind %q", name)
}

// harness is one replay's live run plus the replay's own bookkeeping.
type harness struct {
	*scenario.Env
	// coOwner is the diff workload's co-owning process, retired before
	// recovery so its locks and working pages do not read as residue.
	coOwner *core.Process
	// confirmed2 records whether the follow-up commit of a two-commit
	// workload (lease, ownermove) was confirmed to its client.
	confirmed2 bool
}

// diskRef names one disk of the sweep: the volume at a site.
type diskRef struct {
	Site   int
	Volume string
}

// sweepDisks returns the workload's disk list.
func (w workload) sweepDisks() []diskRef {
	if w.disks != nil {
		return w.disks
	}
	refs := make([]diskRef, len(w.spec.Volumes))
	for i, vol := range w.spec.Volumes {
		refs[i] = diskRef{Site: i + 1, Volume: vol}
	}
	return refs
}

// disk resolves a sweep disk ref; the volume may be a hosted one
// (created by an ownership-move adoption), as long as setup created it.
func (h *harness) disk(ref diskRef) *simdisk.Disk {
	vol := h.Sys.Cluster().Site(simnet.SiteID(ref.Site)).Volume(ref.Volume)
	if vol == nil {
		return nil
	}
	return vol.Disk()
}

// stableWrites reads the probe's write counter for a sweep disk.
func (h *harness) stableWrites(ref diskRef, kind simdisk.IOKind, useKind bool) int64 {
	d := h.disk(ref)
	if d == nil {
		return 0
	}
	if useKind {
		return d.StableWritesOfKind(kind)
	}
	return d.StableWrites()
}

// Run executes the sweep the options select.
func Run(opts Options) (*Result, error) {
	list, err := selectWorkloads(opts.Workload)
	if err != nil {
		return nil, err
	}
	if _, _, err := parseKind(opts.Kind); err != nil {
		return nil, err
	}
	res := &Result{Kind: opts.Kind}
	for _, w := range list {
		wr, err := sweepWorkload(w, opts)
		if err != nil {
			return nil, err
		}
		res.Workloads = append(res.Workloads, *wr)
	}
	return res, nil
}

func sweepWorkload(w workload, opts Options) (*WorkloadResult, error) {
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}

	// Counting run: learn each disk's stable write count, and audit the
	// crash-free path while we are at it.
	wr := &WorkloadResult{Workload: w.name}
	var counts []int
	var err error
	if wr.Baseline, counts, err = replay(w, opts, nil, -1); err != nil {
		return nil, err
	}
	if !wr.Baseline.Confirmed {
		wr.Baseline.Violations = append(wr.Baseline.Violations,
			"counting run did not confirm its commit: the workload is broken without any fault")
	}
	logf("%s: counting run confirmed=%v state=%s", w.name, wr.Baseline.Confirmed, wr.Baseline.State)

	// Replay matrix: one disk armed per replay, every index visited.
	for i, ref := range w.sweepDisks() {
		ds := DiskSweep{Site: ref.Site, Volume: ref.Volume, Writes: counts[i]}
		indices := sampleIndices(counts[i], opts.MaxPointsPerDisk)
		ds.Swept = len(indices)
		if ds.Swept < ds.Writes {
			logf("%s %s: bounding sweep to %d of %d crash points (stride sample)",
				w.name, ds.Volume, ds.Swept, ds.Writes)
		}
		for _, idx := range indices {
			pt, _, err := replay(w, opts, &ref, idx)
			if err != nil {
				return nil, err
			}
			ds.Points = append(ds.Points, pt)
			if len(pt.Violations) > 0 {
				logf("%s %s@%d: FAIL (%d violations)", w.name, ds.Volume, idx, len(pt.Violations))
			}
		}
		logf("%s %s: swept %d points", w.name, ds.Volume, ds.Swept)
		wr.Disks = append(wr.Disks, ds)
	}
	return wr, nil
}

// replay runs the workload once on a fresh cluster, recovers and audits.
// With arm set, that disk is armed to fail its (idx+1)-th stable write of
// the selected kind; with arm nil the run is fault-free.  Either way
// writes reports how many selected stable writes the run performed on
// each sweep disk.  The scenario keeps phase two synchronous with no
// retry timer: the only actor is the workload itself, so the i-th stable
// write is the same write on every replay.
func replay(w workload, opts Options, arm *diskRef, idx int) (pt PointResult, writes []int, err error) {
	kind, useKind, _ := parseKind(opts.Kind)
	pt = PointResult{Index: idx, Kind: opts.Kind}
	refs := w.sweepDisks()
	writes = make([]int, len(refs))
	h := &harness{}
	sc := scenario.Scenario{
		Spec: w.spec,
		// Setup's stable writes are not crash points: start each count at
		// minus what setup wrote, and add the total once the run is over.
		Setup: func(e *scenario.Env) {
			h.Env = e
			w.setup(h)
			for i, ref := range refs {
				writes[i] = -int(h.stableWrites(ref, kind, useKind))
			}
		},
		Clients: []func(*scenario.Env){func(*scenario.Env) {
			pt.Confirmed = w.run(h)
			for i, ref := range refs {
				writes[i] += int(h.stableWrites(ref, kind, useKind))
			}
			if arm != nil {
				pt.Fired = h.disk(*arm).Crashed()
			}
			if h.coOwner != nil {
				h.coOwner.Kill() //nolint:errcheck // best effort: the disk under it may have tripped
			}
		}},
		Recover: scenario.RestartCrashed,
		Files:   w.paths,
		// The content check follows the audit: the lock-table scan must
		// precede content reads, which themselves take and release locks.
		Check: func(_ *scenario.Env, out *scenario.Outcome) {
			var cv []string
			pt.State, cv = w.check(h, pt.Confirmed)
			pt.Violations = append(out.Checks.Violations(), cv...)
		},
	}
	sc.Seed, sc.Trace = 7, true
	if arm != nil {
		pt.Site, pt.Volume = arm.Site, arm.Volume
		sc.Armed = scenario.Schedule{{Kind: scenario.FaultArmDisk, Site: simnet.SiteID(arm.Site),
			Volume: arm.Volume, N: idx, Class: kind, ByClass: useKind}}
	}
	out, err := scenario.Run(sc)
	if err != nil {
		return pt, nil, fmt.Errorf("crashprobe: %s: %w", w.name, err)
	}
	if pt.State == "" { // a restart failed: there was nothing to check
		pt.State, pt.Violations = "unrecoverable", out.Checks.Violations()
	}
	if len(pt.Violations) > 0 && opts.Forensics {
		for _, path := range w.paths {
			pt.Forensics = append(pt.Forensics, invariant.Forensics(h.Trace, path)...)
		}
	}
	return pt, writes, nil
}

// sampleIndices returns the crash indices to replay for a disk exposing
// n stable writes: all of them, or max stride-sampled indices always
// including the first and last.
func sampleIndices(n, max int) []int {
	if n <= 0 {
		return nil
	}
	if max <= 0 || n <= max {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	if max == 1 {
		return []int{n - 1}
	}
	seen := make(map[int]bool)
	var out []int
	for k := 0; k < max; k++ {
		idx := k * (n - 1) / (max - 1)
		if !seen[idx] {
			seen[idx] = true
			out = append(out, idx)
		}
	}
	sort.Ints(out)
	return out
}
