// Package crashprobe is a deterministic, exhaustive crash-schedule
// explorer for the commit machinery.  A workload is a scenario file
// (testdata/scenarios; scenario.Script is its format): its words before
// the probe line are the set-up, the rest the probed run.  For each file
// a counting run learns N, the number of stable page writes each swept
// disk performs after the probe line, then the file is replayed N times
// per disk with the disk armed to fail its i-th write (optionally only
// writes of one IOKind class).  After the crash the replay drives full
// site recovery (Site.Restart, its recovery loop, coordinator phase-two
// retries) and mechanically checks the DESIGN.md section 5 invariants
// (invariant.Audit) and the file's expect atomic and replica lines:
// per-file all-or-nothing, durability of confirmed commits, cross-site
// agreement, no torn log records.
//
// Unlike the randomized schedules of internal/chaos, a probe sweep is a
// complete enumeration: every instant at which a crash could separate
// one stable write from the next is visited exactly once, so a clean
// matrix is a proof over the workload's whole crash surface, not a
// sample of it.  Everything is deterministic - same options, same
// result, byte for byte.
package crashprobe

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/scenario"
	"repro/internal/simdisk"
)

// Options selects and bounds one probe sweep.
type Options struct {
	// Files are the scenario files to sweep, in order; a file's workload
	// is its base name without "probe-" and ".scn".
	Files []string
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
// with the named disk armed to fail its (Index+1)-th stable write; Index
// -1 is the counting run (no crash armed).  The Verdict says whether the
// armed fault tripped, whether the first commit after the probe line was
// confirmed to its client (then it must survive recovery), and which step
// of the march the file's first expect atomic line found: "pre", "post",
// "post2" or an anomaly.
type PointResult struct {
	Site   int
	Volume string
	Index  int
	Kind   string `json:",omitempty"`
	scenario.Verdict
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

// parseKind maps an Options.Kind name to its IOKind.
func parseKind(name string) (simdisk.IOKind, bool, error) {
	if name == "" {
		return 0, false, nil
	}
	if k, ok := simdisk.KindByName(name); ok {
		return k, true, nil
	}
	return 0, false, fmt.Errorf("crashprobe: unknown I/O kind %q", name)
}

// Run executes the sweep the options select.
func Run(opts Options) (*Result, error) {
	if len(opts.Files) == 0 {
		return nil, errors.New("crashprobe: no scenario file to probe")
	}
	if _, _, err := parseKind(opts.Kind); err != nil {
		return nil, err
	}
	res := &Result{Kind: opts.Kind}
	for _, file := range opts.Files {
		src, err := os.ReadFile(file)
		if err != nil {
			return nil, fmt.Errorf("crashprobe: %w", err)
		}
		wr, err := sweep(file, src, opts)
		if err != nil {
			return nil, err
		}
		res.Workloads = append(res.Workloads, *wr)
	}
	return res, nil
}

// sweep runs one file's counting run and crash matrix.
func sweep(file string, src []byte, opts Options) (*WorkloadResult, error) {
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	name := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(file), "probe-"), ".scn")

	// Counting run: learn each disk's stable write count, and check the
	// crash-free run's expectations while we are at it.
	wr := &WorkloadResult{Workload: name}
	var counted *scenario.Probe
	var err error
	if wr.Baseline, counted, err = replay(file, src, opts, nil, -1); errors.As(err, new(*scenario.FileError)) {
		wr.Baseline.Violations = append(wr.Baseline.Violations, err.Error())
		return wr, nil
	} else if err != nil {
		return nil, err
	}
	logf("%s: counting run confirmed=%v state=%s", name, wr.Baseline.Confirmed, wr.Baseline.State)

	// Replay matrix: one disk armed per replay, every index visited.
	for i, disk := range counted.Disks {
		ds := DiskSweep{Site: int(disk.Site), Volume: disk.Volume, Writes: counted.Writes[i]}
		indices := sampleIndices(ds.Writes, opts.MaxPointsPerDisk)
		ds.Swept = len(indices)
		if ds.Swept < ds.Writes {
			logf("%s %s: bounding sweep to %d of %d crash points (stride sample)",
				name, ds.Volume, ds.Swept, ds.Writes)
		}
		for _, idx := range indices {
			pt, _, err := replay(file, src, opts, &disk, idx)
			if err != nil {
				return nil, err
			}
			ds.Points = append(ds.Points, pt)
			if len(pt.Violations) > 0 {
				logf("%s %s@%d: FAIL (%d violations)", name, ds.Volume, idx, len(pt.Violations))
			}
		}
		logf("%s %s: swept %d points", name, ds.Volume, ds.Swept)
		wr.Disks = append(wr.Disks, ds)
	}
	return wr, nil
}

// replay runs the file once on a fresh cluster, recovers and audits.
// With arm set, that disk is armed at the probe line to fail its
// (idx+1)-th stable write of the selected kind; with arm nil the run is
// the counting run, which also learns the probe line's disks and how many
// selected stable writes each performed.  Without "faults" in the file
// phase two is synchronous and nothing retries before a fault, so on a
// serial file the i-th stable write is the same write on every replay.
func replay(file string, src []byte, opts Options, arm *scenario.Disk, idx int) (PointResult, *scenario.Probe, error) {
	kind, useKind, _ := parseKind(opts.Kind)
	p := &scenario.Probe{Arm: arm, Index: idx, Class: kind, ByClass: useKind, Trace: opts.Forensics}
	pt := PointResult{Index: idx, Kind: opts.Kind}
	if arm != nil {
		pt.Site, pt.Volume = int(arm.Site), arm.Volume
	}
	err := (&scenario.Script{Name: file, In: bytes.NewReader(src), Out: io.Discard, Probe: p}).Run()
	if err != nil {
		return pt, nil, fmt.Errorf("crashprobe: %w", err)
	}
	pt.Verdict = p.Verdict
	return pt, p, nil
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
