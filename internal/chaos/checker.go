package chaos

import (
	"fmt"

	"repro/internal/invariant"
)

// check audits the fully-recovered cluster: the shared DESIGN.md section
// 5 recovery invariants first (the lock-table scan must run before the
// content reads, which themselves acquire and release locks), then the
// workload's own ground truth.
func (e *engine) check() invariant.Report {
	var files []string
	for _, ps := range e.pairs {
		files = append(files, ps.pathA, ps.pathB)
	}
	files = append(files, e.accounts...)
	return append(invariant.Audit(e.sys.Cluster(), e.collector, files), e.checkPairs(), e.checkAccounts())
}

// checkPairs: each pair worker's two files must be all-or-nothing with
// identical contents (atomicity across sites), holding a marker the
// worker actually issued (no phantom writes), no older than the last
// commit the client was told succeeded (durability of confirmed
// commits).
func (e *engine) checkPairs() invariant.Check {
	c := invariant.Check{Name: "atomic-pairs", Detail: fmt.Sprintf("%d pairs", len(e.pairs))}
	for _, ps := range e.pairs {
		a, errA := e.readCommitted(ps.pathA)
		b, errB := e.readCommitted(ps.pathB)
		if errA != nil || errB != nil {
			c.Failf("pair %d unreadable: %v / %v", ps.worker, errA, errB)
			continue
		}
		if a != b {
			c.Failf("pair %d torn: %s=%q %s=%q", ps.worker, ps.pathA, a, ps.pathB, b)
			c.Forensics = append(c.Forensics, invariant.Forensics(e.collector, ps.pathA)...)
			c.Forensics = append(c.Forensics, invariant.Forensics(e.collector, ps.pathB)...)
			continue
		}
		if a == "" {
			if ps.confirmed >= 0 {
				c.Failf("pair %d empty but commit %d was confirmed to the client",
					ps.worker, ps.confirmed)
				c.Forensics = append(c.Forensics, invariant.Forensics(e.collector, ps.pathA)...)
			}
			continue
		}
		var w, i int
		if _, err := fmt.Sscanf(a, markerFmt, &w, &i); err != nil || w != ps.worker || i >= ps.attempts {
			c.Failf("pair %d holds marker %q never issued (attempts %d)",
				ps.worker, a, ps.attempts)
			c.Forensics = append(c.Forensics, invariant.Forensics(e.collector, ps.pathA)...)
			continue
		}
		if i < ps.confirmed {
			c.Failf("pair %d regressed to attempt %d; attempt %d was confirmed committed",
				ps.worker, i, ps.confirmed)
			c.Forensics = append(c.Forensics, invariant.Forensics(e.collector, ps.pathA)...)
		}
	}
	return c
}

// checkAccounts: every transfer conserved the total, so whatever
// serializable subset of them committed, the committed balances must
// still sum to the baseline.  A torn transfer or a lost update shows up
// as a sum drift.
func (e *engine) checkAccounts() invariant.Check {
	c := invariant.Check{
		Name:   "balance-conservation",
		Detail: fmt.Sprintf("%d accounts, sum %d", len(e.accounts), e.total),
	}
	var sum int64
	for _, path := range e.accounts {
		s, err := e.readCommitted(path)
		if err != nil {
			c.Failf("%s unreadable: %v", path, err)
			c.Forensics = append(c.Forensics, invariant.Forensics(e.collector, path)...)
			continue
		}
		var v int64
		if _, err := fmt.Sscanf(s, "%d", &v); err != nil || len(s) != 8 {
			c.Failf("%s: committed balance %q unparseable", path, s)
			c.Forensics = append(c.Forensics, invariant.Forensics(e.collector, path)...)
			continue
		}
		if v < 0 {
			c.Failf("%s: negative balance %d", path, v)
			c.Forensics = append(c.Forensics, invariant.Forensics(e.collector, path)...)
		}
		sum += v
	}
	if len(c.Violations) == 0 && sum != e.total {
		c.Failf("balances sum to %d, want %d (money %s)", sum, e.total,
			map[bool]string{true: "created", false: "destroyed"}[sum > e.total])
	}
	return c
}

// readCommitted returns a file's committed contents as site 1 reads them.
func (e *engine) readCommitted(path string) (string, error) {
	buf, err := invariant.ReadCommitted(e.sys, 1, path)
	return string(buf), err
}
