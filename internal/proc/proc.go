// Package proc implements the Locus process model needed by the
// transaction facility (section 4.1): processes with transaction nesting
// counters, per-process file-lists kept decentralized at the process's
// current site, local and remote children, and process migration made
// atomic through in-transit marking.
//
// The file-list protocol is the subtle part.  As each child completes,
// its file-list merges into the top-level process's list - possibly via a
// network message, since either process may be at any site.  The paper's
// race: a merge message can arrive at a site the top-level process is
// just migrating away from.  Table.MergeFileList therefore fails with
// ErrInTransit (or ErrNotResident) so the sender retries at the process's
// new site.  The table lock is the paper's short-duration migration lock:
// a merge and the in-transit marking of BeginMigrate each run whole under
// it, so a merge lands either before the copy is taken (and travels with
// it) or after the marking (and is refused) - migration appears atomic.
package proc

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/simnet"
	"repro/internal/stats"
)

// Errors returned by the process table.
var (
	// ErrNotResident reports an operation on a process that does not
	// currently reside at this site (it may have migrated away).
	ErrNotResident = errors.New("proc: process not resident at this site")
	// ErrInTransit reports an operation rejected because the process is
	// migrating; the caller must retry at the destination.
	ErrInTransit = errors.New("proc: process is migrating")
	// ErrAlreadyInTransit rejects a second concurrent migration.
	ErrAlreadyInTransit = errors.New("proc: migration already in progress")
	// ErrNotInTxn reports EndTrans/AbortTrans outside a transaction.
	ErrNotInTxn = errors.New("proc: process is not in a transaction")
)

// FileRef names one file a process has used: its global identifier and
// its storage site, which is what the two-phase commit coordinator needs
// to enlist participants.
type FileRef struct {
	FileID      string
	StorageSite simnet.SiteID
}

// Process is one process's kernel state.  All fields are guarded by the
// owning Table.
type Process struct {
	PID    int
	Site   simnet.SiteID
	Parent int // 0 = none

	// Transaction state: the inherited transaction identifier and the
	// BeginTrans/EndTrans nesting counter of section 2.
	TxnID   string
	Nesting int
	// TopLevel marks the process that issued the outermost BeginTrans;
	// its site is the commit coordinator site.
	TopLevel bool
	// TopPID and TopSite locate the transaction's top-level process (for
	// file-list merges from completing children).  TopSite is a hint:
	// the top-level process may have migrated, in which case the merge
	// fails there and the sender retries at other sites (section 4.1).
	TopPID  int
	TopSite simnet.SiteID

	// FileList enumerates the files this process (and completed
	// children merged into it) used inside the transaction.
	FileList map[string]FileRef

	// Children are the pids of the live child processes; EndTrans at
	// the top level refuses while any remain.
	Children []int

	inTransit bool
}

// Table is one site's resident-process table.
type Table struct {
	site simnet.SiteID
	st   *stats.Set

	mu    sync.Mutex
	procs map[int]*Process
}

// NewTable creates the process table for a site.
func NewTable(site simnet.SiteID, st *stats.Set) *Table {
	return &Table{site: site, st: st, procs: make(map[int]*Process)}
}

// NewProcess registers a fresh process resident at this site.
func (t *Table) NewProcess(pid, parent int) *Process {
	t.mu.Lock()
	defer t.mu.Unlock()
	p := &Process{
		PID:      pid,
		Site:     t.site,
		Parent:   parent,
		FileList: make(map[string]FileRef),
	}
	t.procs[pid] = p
	return p
}

// Adopt installs a process that migrated in (or was created remotely on
// our behalf).  The process's Site is updated to this site.
func (t *Table) Adopt(p *Process) {
	t.mu.Lock()
	defer t.mu.Unlock()
	p.Site = t.site
	p.inTransit = false
	t.procs[p.PID] = p
}

// Info is a consistent copy of a process's mutable state, safe to read
// without holding the table lock.
type Info struct {
	PID      int
	Site     simnet.SiteID
	Parent   int
	TxnID    string
	Nesting  int
	TopLevel bool
	TopPID   int
	TopSite  simnet.SiteID
	Children int
}

// Info returns a locked snapshot of the process's state.
func (t *Table) Info(pid int) (Info, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	p, ok := t.procs[pid]
	if !ok {
		return Info{}, fmt.Errorf("%w: pid %d at %s", ErrNotResident, pid, t.site)
	}
	return Info{
		PID: p.PID, Site: p.Site, Parent: p.Parent,
		TxnID: p.TxnID, Nesting: p.Nesting, TopLevel: p.TopLevel,
		TopPID: p.TopPID, TopSite: p.TopSite, Children: len(p.Children),
	}, nil
}

// TxnOf returns the process's transaction identifier ("" when outside a
// transaction or not resident).
func (t *Table) TxnOf(pid int) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	if p, ok := t.procs[pid]; ok {
		return p.TxnID
	}
	return ""
}

// AnyInTxn reports whether any resident process executes within txid.
func (t *Table) AnyInTxn(txid string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, p := range t.procs {
		if p.TxnID == txid {
			return true
		}
	}
	return false
}

// SetTop records the location of the transaction's top-level process.
func (t *Table) SetTop(pid, topPID int, topSite simnet.SiteID) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	p, ok := t.procs[pid]
	if !ok {
		return fmt.Errorf("%w: pid %d", ErrNotResident, pid)
	}
	p.TopPID = topPID
	p.TopSite = topSite
	return nil
}

// Get returns the resident process, or ErrNotResident.
func (t *Table) Get(pid int) (*Process, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	p, ok := t.procs[pid]
	if !ok {
		return nil, fmt.Errorf("%w: pid %d at %s", ErrNotResident, pid, t.site)
	}
	return p, nil
}

// Remove deletes a process from the table (exit or migration departure).
func (t *Table) Remove(pid int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.procs, pid)
}

// Resident returns the resident PIDs, sorted.
func (t *Table) Resident() []int {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]int, 0, len(t.procs))
	for pid := range t.procs {
		out = append(out, pid)
	}
	sort.Ints(out)
	return out
}

// ---- Transaction nesting (section 2) ----

// BeginTrans increments the process's nesting level, installing txid and
// top-level status on the outermost call.  It returns the nesting level
// after the call.
func (t *Table) BeginTrans(pid int, txid string) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	p, ok := t.procs[pid]
	if !ok {
		return 0, fmt.Errorf("%w: pid %d", ErrNotResident, pid)
	}
	if p.Nesting == 0 && p.TxnID == "" {
		p.TxnID = txid
		p.TopLevel = true
		t.st.Inc(stats.TxnBegins)
	}
	p.Nesting++
	return p.Nesting, nil
}

// EndTrans decrements the nesting level.  It reports true when the level
// reaches zero on a top-level process - the moment the transaction should
// commit.  Processes created inside a transaction (Nesting starts at 0
// but TxnID is inherited) simply complete; their EndTrans pairing is
// internal.
func (t *Table) EndTrans(pid int) (done bool, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	p, ok := t.procs[pid]
	if !ok {
		return false, fmt.Errorf("%w: pid %d", ErrNotResident, pid)
	}
	if p.Nesting == 0 {
		return false, fmt.Errorf("%w: pid %d", ErrNotInTxn, pid)
	}
	p.Nesting--
	return p.Nesting == 0 && p.TopLevel, nil
}

// ClearTxn resets the process's transaction state after commit or abort.
func (t *Table) ClearTxn(pid int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if p, ok := t.procs[pid]; ok {
		p.TxnID = ""
		p.Nesting = 0
		p.TopLevel = false
		clear(p.FileList) // in place: the next transaction reuses the map
		p.Children = nil
	}
}

// ---- File lists ----

// AddFile records a file in the process's file-list.
func (t *Table) AddFile(pid int, ref FileRef) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	p, ok := t.procs[pid]
	if !ok {
		return fmt.Errorf("%w: pid %d", ErrNotResident, pid)
	}
	p.FileList[ref.FileID] = ref
	return nil
}

// FileList appends a copy of the process's file-list, sorted by file ID,
// to dst and returns the extended slice.
func (t *Table) FileList(dst []FileRef, pid int) ([]FileRef, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	p, ok := t.procs[pid]
	if !ok {
		return dst, fmt.Errorf("%w: pid %d", ErrNotResident, pid)
	}
	n := len(dst)
	for _, r := range p.FileList {
		dst = append(dst, r)
	}
	slices.SortFunc(dst[n:], func(a, b FileRef) int { return strings.Compare(a.FileID, b.FileID) })
	return dst, nil
}

// MergeFileList merges a completed child's file-list into the resident
// process pid.  Per section 4.1, the system verifies the target process
// still resides here and is not migrating: otherwise the sender receives
// a failure and retries at the new site.
func (t *Table) MergeFileList(pid int, files []FileRef) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	p, ok := t.procs[pid]
	if !ok {
		return fmt.Errorf("%w: pid %d at %s", ErrNotResident, pid, t.site)
	}
	if p.inTransit {
		return fmt.Errorf("%w: pid %d", ErrInTransit, pid)
	}
	for _, r := range files {
		p.FileList[r.FileID] = r
	}
	return nil
}

// AddChild records a child process.
func (t *Table) AddChild(pid, child int) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	p, ok := t.procs[pid]
	if !ok {
		return fmt.Errorf("%w: pid %d", ErrNotResident, pid)
	}
	p.Children = append(p.Children, child)
	return nil
}

// RemoveChild drops a completed child; removing one already gone is a
// no-op, so a duplicated notice is harmless.  Like the file-list merge,
// it fails while the parent is migrating or absent so the sender retries
// at the parent's settled location - otherwise the update would land on
// the stale original and be lost with it.
func (t *Table) RemoveChild(pid, childPID int) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	p, ok := t.procs[pid]
	if !ok {
		return fmt.Errorf("%w: pid %d at %s", ErrNotResident, pid, t.site)
	}
	if p.inTransit {
		return fmt.Errorf("%w: pid %d", ErrInTransit, pid)
	}
	p.Children = slices.DeleteFunc(p.Children, func(c int) bool { return c == childPID })
	return nil
}

// ---- Migration (section 4.1) ----

// BeginMigrate marks the process in-transit and returns a deep copy for
// shipment to the destination site.  The original stays in this table
// (rejecting merges with ErrInTransit) until CompleteMigrate removes it;
// shipping a copy means the destination's adoption never mutates state
// this table's lock guards.  It fails with ErrAlreadyInTransit if a
// migration is already under way.
func (t *Table) BeginMigrate(pid int) (*Process, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	p, ok := t.procs[pid]
	if !ok {
		return nil, fmt.Errorf("%w: pid %d at %s", ErrNotResident, pid, t.site)
	}
	if p.inTransit {
		return nil, fmt.Errorf("%w: pid %d", ErrAlreadyInTransit, pid)
	}
	p.inTransit = true
	t.st.Inc(stats.Migrations)

	cp := *p
	cp.FileList = make(map[string]FileRef, len(p.FileList))
	for k, v := range p.FileList {
		cp.FileList[k] = v
	}
	cp.Children = slices.Clone(p.Children)
	return &cp, nil
}

// CompleteMigrate finishes a departure: the process left this site.
func (t *Table) CompleteMigrate(pid int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.procs, pid)
}

// CancelMigrate aborts a migration attempt, restoring residency.
func (t *Table) CancelMigrate(pid int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if p, ok := t.procs[pid]; ok {
		p.inTransit = false
	}
}

// InTransit reports whether the process is currently migrating.
func (t *Table) InTransit(pid int) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	p, ok := t.procs[pid]
	return ok && p.inTransit
}
