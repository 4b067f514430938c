package chaos

import (
	"fmt"

	"repro/internal/invariant"
	"repro/internal/scenario"
)

// checkPairs: each pair worker's two files must be all-or-nothing with
// identical contents (atomicity across sites), holding a marker the
// worker actually issued (no phantom writes), no older than the last
// commit the client was told succeeded (durability of confirmed
// commits).
func (w *workload) checkPairs(e *scenario.Env) invariant.Check {
	c := invariant.Check{Name: "atomic-pairs", Detail: fmt.Sprintf("%d pairs", len(w.pairs))}
	for _, ps := range w.pairs {
		a, errA := readCommitted(e, ps.pathA)
		b, errB := readCommitted(e, ps.pathB)
		if errA != nil || errB != nil {
			c.Failf("pair %d unreadable: %v / %v", ps.worker, errA, errB)
			continue
		}
		if a != b {
			c.FailAt(e.Trace, ps.pathA, "pair %d torn: %s=%q %s=%q", ps.worker, ps.pathA, a, ps.pathB, b)
			c.Forensics = append(c.Forensics, invariant.Forensics(e.Trace, ps.pathB)...)
			continue
		}
		if a == "" {
			if ps.confirmed >= 0 {
				c.FailAt(e.Trace, ps.pathA, "pair %d empty but commit %d was confirmed to the client",
					ps.worker, ps.confirmed)
			}
			continue
		}
		var w, i int
		if _, err := fmt.Sscanf(a, markerFmt, &w, &i); err != nil || w != ps.worker || i >= ps.attempts {
			c.FailAt(e.Trace, ps.pathA, "pair %d holds marker %q never issued (attempts %d)",
				ps.worker, a, ps.attempts)
			continue
		}
		if i < ps.confirmed {
			c.FailAt(e.Trace, ps.pathA, "pair %d regressed to attempt %d; attempt %d was confirmed committed",
				ps.worker, i, ps.confirmed)
		}
	}
	return c
}

// checkAccounts: every transfer conserved the total, so whatever
// serializable subset of them committed, the committed balances must
// still sum to the baseline.  A torn transfer or a lost update shows up
// as a sum drift.
func (w *workload) checkAccounts(e *scenario.Env) invariant.Check {
	c := invariant.Check{
		Name:   "balance-conservation",
		Detail: fmt.Sprintf("%d accounts, sum %d", len(w.accounts), w.total),
	}
	var sum int64
	for _, path := range w.accounts {
		s, err := readCommitted(e, path)
		if err != nil {
			c.FailAt(e.Trace, path, "%s unreadable: %v", path, err)
			continue
		}
		var v int64
		if _, err := fmt.Sscanf(s, "%d", &v); err != nil || len(s) != 8 {
			c.FailAt(e.Trace, path, "%s: committed balance %q unparseable", path, s)
			continue
		}
		if v < 0 {
			c.FailAt(e.Trace, path, "%s: negative balance %d", path, v)
		}
		sum += v
	}
	if len(c.Violations) == 0 && sum != w.total {
		c.Failf("balances sum to %d, want %d (money %s)", sum, w.total,
			map[bool]string{true: "created", false: "destroyed"}[sum > w.total])
	}
	return c
}

// readCommitted returns a file's committed contents as site 1 reads them.
func readCommitted(e *scenario.Env, path string) (string, error) {
	buf, err := invariant.ReadCommitted(e.Sys, 1, path)
	return string(buf), err
}
