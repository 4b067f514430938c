package cluster

import (
	"errors"
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
	PID     int // new child's pid, allocated by the requester
	Parent  int
	TxnID   string
	TopPID  int
	TopSite simnet.SiteID
}

type adoptReq struct{ Proc *proc.Process }

func (r adoptReq) WireSize() int { return 256 + 64*len(r.Proc.FileList) }

type mergeFLReq struct {
	PID   int
	Files []proc.FileRef
}

type childMovedReq struct {
	Parent int
	Child  int
	Site   simnet.SiteID
}

type whereisReq struct{ PID int }

func (k *incarnation) handleFork(req forkReq) error {
	p := k.procs.NewProcess(req.PID, req.Parent)
	p.TxnID = req.TxnID
	p.TopPID = req.TopPID
	p.TopSite = req.TopSite
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

func (k *incarnation) handleChildMoved(req childMovedReq) error {
	if req.Site < 0 {
		// Negative site marks a completed child: drop the reference.
		return k.procs.RemoveChild(req.Parent, req.Child)
	}
	return k.procs.UpdateChildSite(req.Parent, req.Child, req.Site)
}

func (k *incarnation) handleWhereis(req whereisReq) (bool, error) {
	_, err := k.procs.Get(req.PID)
	return err == nil, nil
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
	if _, err := s.ep.Call(at, "forkproc", req); err != nil {
		return 0, err
	}
	if err := s.Procs().AddChild(parentPID, proc.ChildRef{PID: pid, Site: at}); err != nil {
		return 0, err
	}
	return pid, nil
}

// Migrate moves a resident process to another site, making the move
// appear atomic via the in-transit marking of section 4.1.  A merge in
// progress defers the migration briefly (ErrBusy -> retry).
func (s *Site) Migrate(pid int, to simnet.SiteID) error {
	if to == s.id {
		return nil
	}
	var p *proc.Process
	for attempt := 0; ; attempt++ {
		var err error
		p, err = s.Procs().BeginMigrate(pid)
		if err == nil {
			break
		}
		if errors.Is(err, proc.ErrBusy) && attempt < 50 {
			s.cl.cfg.Clock.Sleep(time.Millisecond)
			continue
		}
		return err
	}
	s.st.Add(stats.Instructions, costmodel.InstrProcessMigrate)
	if _, err := s.ep.Call(to, "adoptproc", adoptReq{Proc: p}); err != nil {
		s.Procs().CancelMigrate(pid)
		return fmt.Errorf("cluster: migrate pid %d to %v: %w", pid, to, err)
	}
	s.Procs().CompleteMigrate(pid)
	s.tr.Record(trace.Migration, "", fmt.Sprintf("pid%d", pid), int64(to))
	// Tell the parent so the abort cascade can find the child at its new
	// home; the parent itself may be migrating, so this retries until
	// the update lands at the parent's settled table.
	if p.Parent != 0 {
		s.notifyChildMoved(childMovedReq{Parent: p.Parent, Child: pid, Site: to})
	}
	return nil
}

// notifyChildMoved delivers a child-list update to whichever site holds
// the (settled) parent, retrying across migrations.  A parent that no
// longer exists anywhere is eventually given up on.
func (m *machine) notifyChildMoved(req childMovedReq) {
	for attempt := 0; attempt < 100; attempt++ {
		for _, siteID := range m.cl.Sites() {
			if _, err := m.ep.Call(siteID, "childmoved", req); err == nil {
				return
			}
		}
		m.cl.cfg.Clock.Sleep(time.Millisecond)
	}
}

// MergeToTop sends a completed child's file-list to the transaction's
// top-level process, retrying when the top-level process has migrated or
// is in transit (section 4.1).  It first tries the hint site, then asks
// around.
func (m *machine) MergeToTop(topPID int, hint simnet.SiteID, files []proc.FileRef) error {
	const attempts = 20
	var lastErr error
	try := func(site simnet.SiteID) (bool, error) {
		_, err := m.ep.Call(site, "mergefl", mergeFLReq{PID: topPID, Files: files})
		if err == nil {
			return true, nil
		}
		lastErr = err
		var re *simnet.RemoteError
		if errors.As(err, &re) {
			// Not resident or in transit: retry elsewhere/later.
			return false, nil
		}
		return false, nil // transport error: also retry
	}
	for attempt := 0; attempt < attempts; attempt++ {
		if ok, err := try(hint); ok || err != nil {
			return err
		}
		// Ask every other site.
		for _, siteID := range m.cl.Sites() {
			if siteID == hint {
				continue
			}
			resp, err := m.ep.Call(siteID, "whereis", whereisReq{PID: topPID})
			if err != nil || resp != true {
				continue
			}
			if ok, err := try(siteID); ok || err != nil {
				return err
			}
		}
		m.cl.cfg.Clock.Sleep(time.Millisecond)
	}
	return fmt.Errorf("cluster: file-list merge to pid %d failed: %w", topPID, lastErr)
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
		files, err := s.Procs().FileList(pid)
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
	// checks for live children.
	if p.Parent != 0 {
		s.notifyChildMoved(childMovedReq{Parent: p.Parent, Child: pid, Site: -1})
	}
	s.Procs().Remove(pid)
	if p.TxnID != "" && !s.Procs().AnyInTxn(p.TxnID) {
		// The transaction's last member here is gone, and with it the
		// reason to keep its locks cached at this site.
		s.DropLockCache(TxnGroup(p.TxnID))
	}
	return nil
}
