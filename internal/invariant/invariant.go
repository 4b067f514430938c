// Package invariant holds the one audit of the DESIGN.md section 5
// recovery invariants that every harness runs against a recovered
// cluster - nothing in doubt, logs well-formed and reclaimed, lock tables
// empty, page allocators in agreement with their inodes, one primary copy
// per file - together with the quiesce (restart and drain) that brings a
// cluster to the state the audit expects and the trace-tail renderer
// failure reports attach.  scenario.Run calls them after every recovered
// run: a randomized chaos schedule or one enumerated crash point.
package invariant

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fs"
	"repro/internal/lockmgr"
	"repro/internal/shadow"
	"repro/internal/simnet"
	"repro/internal/tpc"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// Check is one invariant's verdict.
type Check struct {
	Name       string   // e.g. "lock-table"
	Detail     string   // deterministic scope summary, e.g. "3 sites"
	Violations []string // empty = PASS
	// Forensics holds, for each violation, the tail of the causal event
	// trace touching the offending object: what the transactions that
	// handled it did, fault injections included.  Empty when the check
	// passed or the run was untraced.
	Forensics []string
}

// Failf records one violation of the invariant.
func (c *Check) Failf(format string, args ...any) {
	c.Violations = append(c.Violations, fmt.Sprintf(format, args...))
}

// FailAt records one violation together with the trace tail of the
// object it concerns.
func (c *Check) FailAt(col *trace.Collector, object, format string, args ...any) {
	c.Failf(format, args...)
	c.Forensics = append(c.Forensics, Forensics(col, object)...)
}

// Report is an audit's verdicts, in the order the checks ran.
type Report []Check

// OK reports whether every invariant held.
func (r Report) OK() bool { return len(r.Violations()) == 0 }

// Violations flattens every failed check's findings, each prefixed with
// its check's name.
func (r Report) Violations() []string {
	var out []string
	for _, c := range r {
		for _, v := range c.Violations {
			out = append(out, c.Name+": "+v)
		}
	}
	return out
}

// Audit checks the recovery invariants on a drained cluster.  files are
// the workload's paths, for the single-primary check; col (nil when the
// run was untraced) supplies forensics.  Run it before any content read:
// reads take and release locks, and the lock-table scan must see only
// what recovery left behind.
func Audit(cl *cluster.Cluster, col *trace.Collector, files []string) Report {
	return Report{checkResolution(cl), checkLocks(cl), checkAllocators(cl), checkPlacement(cl, col, files)}
}

// checkResolution: after recovery plus resolution nothing may remain in
// doubt - no prepared participant awaiting an outcome, no coordinator
// with phase two outstanding - and every volume log must be readable (no
// torn record) and fully reclaimed (section 4.4: prepare and status
// records are deleted once the transaction completes everywhere).
func checkResolution(cl *cluster.Cluster) Check {
	c := Check{Name: "resolution", Detail: fmt.Sprintf("%d sites", len(cl.Sites()))}
	for _, id := range cl.Sites() {
		s := cl.Site(id)
		if n := s.InDoubtCount(); n != 0 {
			c.Failf("site %d: %d transactions still in doubt", id, n)
		}
		if coord, err := s.Coordinator(); err == nil {
			if n := coord.PendingCount(); n != 0 {
				c.Failf("site %d: coordinator has %d transactions pending phase two", id, n)
			}
		}
		for _, name := range s.Volumes() {
			vol := s.Volume(name)
			if _, err := vol.Log().Records(); err != nil {
				c.Failf("site %d %s: torn log record survived recovery: %v", id, name, err)
			}
			if recs, err := tpc.ReadPrepareRecords(vol); err != nil {
				c.Failf("site %d %s: reading prepare records: %v", id, name, err)
			} else if len(recs) != 0 {
				c.Failf("site %d %s: %d residual prepare records", id, name, len(recs))
			}
			if keys := vol.Log().Keys(); len(keys) != 0 {
				c.Failf("site %d %s: log not reclaimed: %v", id, name, keys)
			}
		}
	}
	return c
}

// transactionLocks calls fn with each of the site's lock lists, reduced
// to the granted entries that belong to processes or transactions.
// Lease entries are site grants, not transaction locks: they hold no
// uncommitted state, survive commits by design (a conflicting request
// revokes them) and overlap the materialized locks of their own site's
// transactions, so neither the audit nor the drain counts them.
func transactionLocks(s *cluster.Site, fn func(fid string, entries []lockmgr.EntryInfo)) {
	lm := s.Locks()
	for _, fid := range lm.Files() {
		fl := lm.Lookup(fid)
		if fl == nil {
			continue
		}
		var entries []lockmgr.EntryInfo
		for _, en := range fl.Entries() {
			if !en.Leased {
				entries = append(entries, en)
			}
		}
		fn(fid, entries)
	}
}

// checkLocks: the lock tables must be conflict-free (no two overlapping
// granted ranges from different groups unless both are shared, section
// 3.2) - and after full recovery with every transaction resolved they
// must in fact be empty, since retained locks exist only for live or
// in-doubt transactions (section 3.3).
func checkLocks(cl *cluster.Cluster) Check {
	c := Check{Name: "lock-table", Detail: fmt.Sprintf("%d sites", len(cl.Sites()))}
	for _, id := range cl.Sites() {
		transactionLocks(cl.Site(id), func(fid string, entries []lockmgr.EntryInfo) {
			for _, en := range entries {
				c.Failf("site %d %s: residual %v lock %s [%d,%d) after recovery",
					id, fid, en.Mode, en.Holder.Group(), en.Off, en.Off+en.Len)
			}
			for i, a := range entries {
				for _, b := range entries[i+1:] {
					if a.Holder.Group() == b.Holder.Group() ||
						(a.Mode != lockmgr.ModeExclusive && b.Mode != lockmgr.ModeExclusive) {
						continue
					}
					if a.Off < b.Off+b.Len && b.Off < a.Off+a.Len {
						c.Failf("site %d %s: conflicting grants %s %v [%d,%d) vs %s %v [%d,%d)", id, fid,
							a.Holder.Group(), a.Mode, a.Off, a.Off+a.Len,
							b.Holder.Group(), b.Mode, b.Off, b.Off+b.Len)
					}
				}
			}
		})
	}
	return c
}

// checkAllocators: every volume's page allocator must agree with its
// inodes - each referenced page in range and allocated, no page
// referenced twice, and no allocated page unreferenced (a commit or
// recovery that leaked pages would strand them forever).
func checkAllocators(cl *cluster.Cluster) Check {
	c := Check{Name: "allocator", Detail: fmt.Sprintf("%d volumes", len(cl.Sites()))}
	for _, id := range cl.Sites() {
		s := cl.Site(id)
		for _, name := range s.Volumes() {
			vol := s.Volume(name)
			geo := vol.Geometry()
			owner := inodeNames(vol)
			ref := map[int]int{} // physical page -> referencing inode
			for _, ino := range vol.Inodes() {
				node, err := vol.ReadInode(ino)
				if err != nil {
					c.Failf("site %d %s ino %d (%s): unreadable after recovery: %v", id, name, ino, owner(ino), err)
					continue
				}
				pages := node.Pages
				if node.Indirect >= 0 {
					pages = append(append([]int{}, pages...), node.Indirect)
				}
				for _, pg := range pages {
					if pg < 0 {
						continue // hole
					}
					if pg < geo.DataStart || pg >= geo.NumPages {
						c.Failf("site %d %s ino %d (%s): page %d outside data region [%d,%d)",
							id, name, ino, owner(ino), pg, geo.DataStart, geo.NumPages)
						continue
					}
					if prev, dup := ref[pg]; dup {
						c.Failf("site %d %s: page %d referenced by both ino %d (%s) and ino %d (%s)",
							id, name, pg, prev, owner(prev), ino, owner(ino))
					}
					ref[pg] = ino
					if !vol.PageAllocated(pg) {
						c.Failf("site %d %s ino %d (%s): references free page %d", id, name, ino, owner(ino), pg)
					}
				}
			}
			for pg := geo.DataStart; pg < geo.NumPages; pg++ {
				if _, ok := ref[pg]; !ok && vol.PageAllocated(pg) {
					c.Failf("site %d %s: page %d allocated but referenced by no inode", id, name, pg)
				}
			}
		}
	}
	return c
}

// inodeNames maps a volume's inodes to the directory names referencing
// them, so an allocator violation says which files collided.  Inode 0 is
// the directory itself; unmapped inodes render as "?".
func inodeNames(vol *fs.Volume) func(ino int) string {
	names := map[int]string{0: "<directory>"}
	for name, ino := range directory(vol) {
		names[ino] = name
	}
	return func(ino int) string {
		if n, ok := names[ino]; ok {
			return n
		}
		return "?"
	}
}

// directory reads the name -> inode map a volume's directory (inode 0)
// holds on stable storage; nil if it cannot be read.
func directory(vol *fs.Volume) map[string]int {
	f, err := shadow.Open(vol, 0)
	if err != nil || f.CommittedSize() == 0 {
		return nil
	}
	buf := make([]byte, f.CommittedSize())
	if _, err := f.ReadAt(buf, 0); err != nil {
		return nil
	}
	dir := map[string]int{}
	if err := gob.NewDecoder(bytes.NewReader(buf)).Decode(&dir); err != nil {
		return nil
	}
	return dir
}

// checkPlacement: whatever ownership moves the heat tracker performed -
// and wherever a crash or partition cut one short - every workload file
// must end with exactly one primary copy after recovery, held by the
// site the catalog names: a copy is a directory entry on stable storage
// in a volume of the file's name, and one the catalog records as a
// replica (section 5.2) is not a primary.  A shipped copy whose verdict
// never committed must be reclaimed; two primaries would let sites serve
// divergent committed bytes.  With placement off this degenerates to
// "every file still lives at its mount site", so it runs always.
func checkPlacement(cl *cluster.Cluster, col *trace.Collector, files []string) Check {
	c := Check{Name: "single-primary", Detail: fmt.Sprintf("%d files", len(files))}
	for _, path := range files {
		vol, name, ok := strings.Cut(path, "/")
		if !ok {
			c.Failf("%s: path has no volume component", path)
			continue
		}
		home, err := cl.StorageSite(path)
		if err != nil {
			c.FailAt(col, path, "%s: no storage site after recovery: %v", path, err)
			continue
		}
		var holders []simnet.SiteID
		for _, id := range cl.Sites() {
			if v := cl.Site(id).Volume(vol); v != nil {
				_, ok := directory(v)[name]
				if replica, _ := cl.ReplicaCopy(path, id); ok && !replica {
					holders = append(holders, id)
				}
			}
		}
		if len(holders) != 1 || holders[0] != home {
			c.FailAt(col, path, "%s: primary copies at sites %v, catalog says %v", path, holders, home)
		}
	}
	return c
}

// Restart crash-restarts every site with a tripped disk - a mounted
// volume's or one an install created (moves and replicas land there) -
// or, with all set, every site: the audit then sees only what stable
// storage and the recovery protocol preserve.
func Restart(cl *cluster.Cluster, all bool) error {
	for _, id := range cl.Sites() {
		s := cl.Site(id)
		crashed := all
		for _, name := range s.Volumes() {
			if vol := s.Volume(name); vol != nil && vol.Disk().Crashed() {
				crashed = true
			}
		}
		if crashed && s.Up() {
			s.Crash()
		}
	}
	for _, id := range cl.Sites() {
		if s := cl.Site(id); !s.Up() {
			if err := s.Restart(); err != nil {
				return fmt.Errorf("restart site %d: %w", id, err)
			}
		}
	}
	return nil
}

// Quiesce returns a run's cluster to the clean, fully recovered state
// Audit expects: injected network faults cleared, the sites whose disks
// tripped - or, with all, every site - crash-restarted, in-doubt
// participants resolved and phase two drained everywhere.  One round is
// enough: a copy is decided once, in the catalog, and a refused install
// reclaims its own copy, so a copy the catalog does not record survives
// only on a site whose crash or disk failure interrupted the install - and
// that site's boot, during the run or here, reclaims it (DESIGN.md
// section 14).
func Quiesce(cl *cluster.Cluster, clk vtime.Clock, all bool) error {
	net := cl.Net()
	net.SetDropRate(0)
	net.SetDupRate(0)
	net.SetLatency(0)
	net.SetFaultFilter(nil)
	net.Heal()
	if err := Restart(cl, all); err != nil {
		return err
	}
	// Recovery-driven commits can trigger ownership moves; the drain waits
	// those out too, so the single-primary audit races none.
	return Drain(cl, clk, 10*time.Second)
}

// ErrStuck marks a Drain that ran out of budget: the cluster is up but
// holds work it cannot finish.
var ErrStuck = errors.New("recovery never drained")

// Drain drives resolution on a recovered cluster until no work is
// pending: in-doubt participants resolve against coordinator records,
// coordinators re-drive phase two, moves and installs finish,
// and the asynchronous topology-abort watcher releases its locks.  It
// polls on clk - the scenario's clock, so a virtual run drains in
// simulated time - and a correct system drains in a few iterations; the
// budget only bounds a buggy one, whose stuck work the error names.
func Drain(cl *cluster.Cluster, clk vtime.Clock, budget time.Duration) error {
	deadline := clk.Now().Add(budget)
	for {
		var stuck []string
		for _, id := range cl.Sites() {
			s := cl.Site(id)
			if n := s.ResolveInDoubt(); n != 0 {
				stuck = append(stuck, fmt.Sprintf("site %d: %d in doubt", id, n))
			}
			if coord, err := s.Coordinator(); err == nil {
				coord.RetryPending()
				if n := coord.PendingCount(); n != 0 {
					stuck = append(stuck, fmt.Sprintf("site %d: %d pending phase two", id, n))
				}
			}
			if n := s.PlacementInFlight(); n != 0 {
				stuck = append(stuck, fmt.Sprintf("site %d: %d ownership moves in flight", id, n))
			}
			held := 0
			transactionLocks(s, func(_ string, entries []lockmgr.EntryInfo) { held += len(entries) })
			if held != 0 {
				stuck = append(stuck, fmt.Sprintf("site %d: %d locks still held", id, held))
			}
		}
		if len(stuck) == 0 {
			return nil
		}
		if clk.Now().After(deadline) {
			return fmt.Errorf("%w within %s: %s", ErrStuck, budget, strings.Join(stuck, "; "))
		}
		clk.Sleep(time.Millisecond)
	}
}

// ReadCommitted returns path's committed contents as a fresh process at
// site sees them: a non-transaction read, after the audit (it takes and
// releases locks).
func ReadCommitted(sys *core.System, site simnet.SiteID, path string) ([]byte, error) {
	p, err := sys.NewProcess(site)
	if err != nil {
		return nil, err
	}
	f, err := p.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close() //nolint:errcheck
	cs, err := f.CommittedSize()
	if err != nil || cs == 0 {
		return nil, err
	}
	buf := make([]byte, cs)
	if _, err := f.ReadAt(buf, 0); err != nil {
		return nil, err
	}
	return buf, nil
}

// forensicsDepth bounds how many trailing events a violation report
// carries per offending object.
const forensicsDepth = 20

// Forensics renders the last events touching object as indented timeline
// lines, headed by what is being shown.  Nil when nothing touched it (or
// the run was untraced).
func Forensics(col *trace.Collector, object string) []string {
	evs := col.LastTouching(object, forensicsDepth)
	if len(evs) == 0 {
		return nil
	}
	var buf bytes.Buffer
	trace.Timeline(&buf, evs) //nolint:errcheck // bytes.Buffer cannot fail
	out := []string{fmt.Sprintf("forensics: last %d events touching %s:", len(evs), object)}
	for _, l := range strings.Split(strings.TrimRight(buf.String(), "\n"), "\n") {
		out = append(out, "  "+l)
	}
	return out
}
