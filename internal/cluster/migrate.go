package cluster

import (
	"fmt"
	"time"

	"repro/internal/costmodel"
	"repro/internal/proc"
	"repro/internal/simnet"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Process protocol payloads.

type forkReq struct {
	simnet.Small
	PID     int // new child's pid, allocated by the requester
	Parent  int
	TxnID   string
	TopPID  int
	TopSite simnet.SiteID
}

type adoptReq struct{ Proc *proc.Process }

func (r adoptReq) WireSize() int { return 256 + 64*len(r.Proc.FileList) }

type mergeFLReq struct {
	simnet.Small
	PID   int
	Files []proc.FileRef
}

type childExitReq struct {
	simnet.Small
	Parent int
	Child  int
}

func (k *incarnation) handleFork(req forkReq) error {
	p := k.procs.NewProcess(req.PID, req.Parent)
	p.TxnID = req.TxnID
	p.TopPID = req.TopPID
	p.TopSite = req.TopSite
	k.st.Inc(stats.Forks)
	k.st.Add(stats.Instructions, costmodel.InstrProcessFork)
	return nil
}

func (k *incarnation) handleAdopt(req adoptReq) error {
	k.procs.Adopt(req.Proc)
	return nil
}

func (k *incarnation) handleMergeFL(req mergeFLReq) error {
	return k.procs.MergeFileList(req.PID, req.Files)
}

func (k *incarnation) handleChildExit(req childExitReq) error {
	return k.procs.RemoveChild(req.Parent, req.Child)
}

// ---- requesting-site process operations ----

// Spawn creates a process at the target site as a child of parentPID
// (which must reside at this site).  The child inherits the parent's
// transaction identifier (section 3.1) and the location of the top-level
// process for its eventual file-list merge.
func (s *Site) Spawn(parentPID int, at simnet.SiteID) (int, error) {
	parent, err := s.Procs().Info(parentPID)
	if err != nil {
		return 0, err
	}
	pid := s.cl.NewPID()
	topPID, topSite := parent.TopPID, parent.TopSite
	if parent.TopLevel {
		topPID, topSite = parent.PID, parent.Site
	}
	req := forkReq{PID: pid, Parent: parentPID, TxnID: parent.TxnID, TopPID: topPID, TopSite: topSite}
	if _, err := simnet.Exchange[none](s.ep, at, "forkproc", req); err != nil {
		return 0, err
	}
	if err := s.Procs().AddChild(parentPID, pid); err != nil {
		return 0, err
	}
	return pid, nil
}

// Migrate moves a resident process to another site, making the move
// appear atomic via the in-transit marking of section 4.1.
func (s *Site) Migrate(pid int, to simnet.SiteID) error {
	if to == s.id {
		return nil
	}
	p, err := s.Procs().BeginMigrate(pid)
	if err != nil {
		return err
	}
	s.st.Add(stats.Instructions, costmodel.InstrProcessMigrate)
	if _, err := simnet.Exchange[none](s.ep, to, "adoptproc", adoptReq{Proc: p}); err != nil {
		s.Procs().CancelMigrate(pid)
		return fmt.Errorf("cluster: migrate pid %d to %v: %w", pid, to, err)
	}
	s.Procs().CompleteMigrate(pid)
	s.tr.Record(trace.Migration, "", fmt.Sprintf("pid%d", pid), int64(to))
	return nil
}

// toProcess delivers a message to whichever site holds a process that
// may be migrating: send tries one site and fails where the process is
// absent or in transit (section 4.1).  Each round tries the hint first,
// then every other site; rounds are 1 ms apart, and after the last one
// toProcess returns send's last error.
func (m *machine) toProcess(hint simnet.SiteID, rounds int, send func(simnet.SiteID) error) error {
	var err error
	for round := 0; round < rounds; round++ {
		if round > 0 {
			m.cl.cfg.Clock.Sleep(time.Millisecond)
		}
		if err = send(hint); err == nil {
			return nil
		}
		for _, site := range m.cl.Sites() {
			if site == hint {
				continue
			}
			if err = send(site); err == nil {
				return nil
			}
		}
	}
	return err
}

// MergeToTop sends a completed child's file-list to the transaction's
// top-level process wherever it now lives, starting at the hint site.
func (m *machine) MergeToTop(topPID int, hint simnet.SiteID, files []proc.FileRef) error {
	req := mergeFLReq{PID: topPID, Files: files}
	err := m.toProcess(hint, 20, func(site simnet.SiteID) error {
		_, err := simnet.Exchange[none](m.ep, site, "mergefl", req)
		return err
	})
	if err != nil {
		return fmt.Errorf("cluster: file-list merge to pid %d failed: %w", topPID, err)
	}
	return nil
}

// ExitProc completes a process: within a transaction, its file-list is
// merged into the top-level process before the process disappears, so the
// coordinator eventually knows every file the transaction used.
func (s *Site) ExitProc(pid int) error {
	p, err := s.Procs().Info(pid)
	if err != nil {
		return err
	}
	if p.TxnID != "" && !p.TopLevel && p.TopPID != 0 {
		files, err := s.Procs().FileList(nil, pid)
		if err != nil {
			return err
		}
		if len(files) > 0 {
			if err := s.MergeToTop(p.TopPID, p.TopSite, files); err != nil {
				return err
			}
		}
	}
	// Drop from the parent's child list before the process disappears,
	// synchronously and migration-proof: EndTrans at the top level
	// checks for live children.  A parent that no longer exists anywhere
	// is given up on.
	if p.Parent != 0 {
		req := childExitReq{Parent: p.Parent, Child: pid}
		_ = s.toProcess(s.id, 100, func(site simnet.SiteID) error {
			_, err := simnet.Exchange[none](s.ep, site, "childexit", req)
			return err
		})
	}
	s.Procs().Remove(pid)
	if p.TxnID != "" && !s.Procs().AnyInTxn(p.TxnID) {
		// The transaction's last member here is gone, and with it the
		// reason to keep its locks cached at this site.
		s.DropLockCache(p.TxnID)
	}
	return nil
}
