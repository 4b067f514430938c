// Package shadow implements the record commit mechanism of sections 4-5:
// per-file intentions lists over shadow pages, the single-file atomic
// commit, and the page-differencing method that lets multiple transactions
// and processes modify disjoint records on one physical page.
//
// Every uncommitted modification is tagged with an Owner (a transaction or
// a non-transaction process).  The working copy of a modified page holds
// all owners' bytes at once; what distinguishes owners is the per-page
// list of modified byte ranges.  Committing an owner takes one of two
// paths per page, exactly as in Figure 4:
//
//	(a) the owner is the only modifier: the shadow page is flushed and the
//	    inode pointer swings to it - no page reads, no byte copies;
//	(b) other owners also modified the page: the previous version is
//	    re-read from stable storage, the committing owner's ranges are
//	    copied onto it, and this merged page is written to a fresh
//	    physical page which becomes the new committed version.  The
//	    working copy (still holding the other owners' bytes) survives.
//
// Aborts mirror commits: a sole owner's working page is simply discarded;
// with co-owners present, the owner's ranges are restored from the stable
// previous version into the working copy.
//
// The intentions list for an owner (IntentionsFor) is what a participant
// writes to its prepare log; ApplyIntentions replays it idempotently
// during crash recovery.
package shadow

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"

	"repro/internal/costmodel"
	"repro/internal/fs"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// Owner identifies the holder of uncommitted modifications: a transaction
// ("txn:<id>") or a non-transaction process ("proc:<pid>").  The commit
// mechanism only needs owners to be comparable.
type Owner string

// Errors returned by the shadow layer.
var (
	// ErrWriteConflict reports an attempt by one owner to write bytes
	// already modified and uncommitted by a different owner.  The lock
	// manager's mutual exclusion should make this impossible (footnote 6
	// of the paper); shadow enforces it as a hard invariant.
	ErrWriteConflict = errors.New("shadow: overlapping uncommitted write by different owner")
	// ErrNoSuchOwner reports a commit/abort for an owner with no
	// modifications; callers treat it as informational.
	ErrNoSuchOwner = errors.New("shadow: owner has no modifications")
	// ErrBeyondMaxFile reports a write beyond the inode's pointer
	// capacity.
	ErrBeyondMaxFile = errors.New("shadow: write beyond maximum file size")
)

// Range is a byte range within a page: [Off, Off+Len).
type Range struct {
	Off, Len int
}

// End returns Off+Len.
func (r Range) End() int { return r.Off + r.Len }

func (r Range) overlaps(s Range) bool { return r.Off < s.End() && s.Off < r.End() }

// mod is one owner's modified range on a page.
type mod struct {
	owner Owner
	r     Range
}

// pageState is the working state of one modified logical page.
type pageState struct {
	logical int
	base    int    // committed physical page, -1 for a hole/new page
	shadow  int    // allocated shadow physical page
	buf     []byte // working contents (all owners' bytes)
	mods    []mod  // uncommitted ranges, disjoint across owners
	dirty   bool   // buf differs from the flushed shadow image
}

// touchedBy reports whether owner has modified the page, and whether it
// is the only owner that has.
func (p *pageState) touchedBy(owner Owner) (touched, sole bool) {
	sole = true
	for _, m := range p.mods {
		if m.owner == owner {
			touched = true
		} else {
			sole = false
		}
	}
	return touched, touched && sole
}

func (p *pageState) ownerMods(owner Owner) []Range {
	var rs []Range
	for _, m := range p.mods {
		if m.owner == owner {
			rs = append(rs, m.r)
		}
	}
	slices.SortFunc(rs, func(a, b Range) int { return a.Off - b.Off })
	return rs
}

func (p *pageState) dropOwner(owner Owner) {
	out := p.mods[:0]
	for _, m := range p.mods {
		if m.owner != owner {
			out = append(out, m)
		}
	}
	p.mods = out
}

// cleanCachePages bounds the per-file LRU cache of committed page
// images.  The paper's measurements assume such a buffer pool ("all
// necessary pages were in buffers, due to the LRU buffer replacement
// algorithm employed", section 6.3).
const cleanCachePages = 64

// File is the storage-site in-memory state of one open file: the cached
// descriptor (brought into kernel memory at open, section 5.1) plus the
// working copies and modification lists of every dirtied page.
type File struct {
	v  *fs.Volume
	st *stats.Set

	// CleanCacheForDiff enables the optimization the paper leaves as
	// future work (footnote 7): serving the differencing commit's
	// "previous version" read from the clean-page cache instead of
	// re-reading stable storage.  Off by default, matching the measured
	// 1985 implementation.
	CleanCacheForDiff bool

	// mu is clock-aware because it is held across forced page and inode
	// writes (prepare, commit): under a virtual clock a plain mutex
	// would stall time while the holder parks in simulated disk latency.
	mu      vtime.Mutex
	ino     *fs.Inode
	size    int64 // working size including uncommitted extensions
	pages   map[int]*pageState
	maxPtrs int

	// LRU cache of committed page images, logical -> contents.  The
	// file owns every image in it, every working buffer in pages, and
	// the retired buffers in spare (at most cleanCachePages of them): a
	// committed working buffer becomes the cache image, and the image it
	// displaces is the next working buffer.
	cache    map[int][]byte
	cacheLRU []int
	spare    [][]byte
}

// Open loads the file's inode into memory and returns its working state.
func Open(v *fs.Volume, ino int) (*File, error) {
	node, err := v.ReadInode(ino)
	if err != nil {
		return nil, err
	}
	f := &File{
		v:       v,
		st:      v.Stats(),
		ino:     node,
		size:    node.Size,
		pages:   make(map[int]*pageState),
		maxPtrs: fs.MaxPointers(v.PageSize()),
		cache:   make(map[int][]byte),
	}
	f.mu.SetClock(v.Clock())
	return f, nil
}

// cacheGet returns the cached committed image of a logical page, bumping
// its recency.  Caller holds f.mu.
func (f *File) cacheGet(logical int) ([]byte, bool) {
	img, ok := f.cache[logical]
	if !ok {
		return nil, false
	}
	if i := slices.Index(f.cacheLRU, logical); i >= 0 {
		copy(f.cacheLRU[i:], f.cacheLRU[i+1:])
		f.cacheLRU[len(f.cacheLRU)-1] = logical
	}
	return img, true
}

// cachePut installs img as the committed image of a logical page,
// evicting the least recently used entry past capacity.  The cache takes
// img over: the caller must not touch it again.  Caller holds f.mu.
func (f *File) cachePut(logical int, img []byte) {
	if old, ok := f.cache[logical]; !ok {
		f.cacheLRU = append(f.cacheLRU, logical)
		if len(f.cacheLRU) > cleanCachePages {
			evict := f.cacheLRU[0]
			f.cacheLRU = f.cacheLRU[:copy(f.cacheLRU, f.cacheLRU[1:])]
			f.putBuf(f.cache[evict])
			delete(f.cache, evict)
		}
	} else {
		f.cacheGet(logical) // bump recency
		f.putBuf(old)
	}
	f.cache[logical] = img
}

// takeBuf returns a page buffer with arbitrary contents: a retired one
// if any, else a fresh one.  Caller holds f.mu.
func (f *File) takeBuf() []byte {
	if n := len(f.spare); n > 0 {
		buf := f.spare[n-1]
		f.spare = f.spare[:n-1]
		return buf
	}
	return make([]byte, f.v.PageSize())
}

// putBuf retires a page buffer nothing references any more.
func (f *File) putBuf(buf []byte) {
	if len(f.spare) < cleanCachePages {
		f.spare = append(f.spare, buf)
	}
}

// readCommitted returns the committed contents of a logical page through
// the clean-page cache, charging a disk read only on a miss.  The image
// stays the cache's: read it under f.mu and keep no reference.  Caller
// holds f.mu.
func (f *File) readCommitted(logical, phys int) ([]byte, error) {
	if img, ok := f.cacheGet(logical); ok {
		return img, nil
	}
	buf := f.takeBuf()
	if err := f.v.ReadPageInto(phys, buf); err != nil {
		f.putBuf(buf)
		return nil, err
	}
	f.cachePut(logical, buf)
	return buf, nil
}

// Ino returns the file's inode number.
func (f *File) Ino() int { return f.ino.Ino }

// Volume returns the volume holding the file.
func (f *File) Volume() *fs.Volume { return f.v }

// Size returns the working size: committed size plus any uncommitted
// extensions.  Append-mode locking (section 3.2) computes lock positions
// from this under the storage site's file mutex.
func (f *File) Size() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.size
}

// CommittedSize returns the size recorded in the committed inode.
func (f *File) CommittedSize() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ino.Size
}

// Inode returns a copy of the cached committed inode.
func (f *File) Inode() *fs.Inode {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ino.Clone()
}

// committedPhys returns the committed physical page for a logical page,
// or -1.  Caller holds f.mu.
func (f *File) committedPhys(logical int) int {
	if logical < len(f.ino.Pages) {
		return f.ino.Pages[logical]
	}
	return -1
}

// ReadAt reads from the file's working state: working copies where pages
// are dirty, committed pages elsewhere.  Uncommitted data is therefore
// visible, as in the paper; restricting that visibility is the lock
// manager's job, not the commit mechanism's.  Reads past the working size
// are truncated; n < len(p) with a nil error signals end of file.
func (f *File) ReadAt(p []byte, off int64) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if off < 0 {
		return 0, fmt.Errorf("shadow: negative offset %d", off)
	}
	if off >= f.size {
		return 0, nil
	}
	if max := f.size - off; int64(len(p)) > max {
		p = p[:max]
	}
	ps := f.v.PageSize()
	n := 0
	for n < len(p) {
		logical := int((off + int64(n)) / int64(ps))
		pageOff := int((off + int64(n)) % int64(ps))
		take := ps - pageOff
		if take > len(p)-n {
			take = len(p) - n
		}
		if st, ok := f.pages[logical]; ok {
			copy(p[n:n+take], st.buf[pageOff:])
		} else if phys := f.committedPhys(logical); phys >= 0 {
			buf, err := f.readCommitted(logical, phys)
			if err != nil {
				return n, err
			}
			copy(p[n:n+take], buf[pageOff:])
		} else {
			for i := n; i < n+take; i++ {
				p[i] = 0
			}
		}
		n += take
	}
	return n, nil
}

// loadPage materializes the working state for a logical page.  fullWrite
// marks an incoming whole-page overwrite, which needs no base contents at
// all.  Caller holds f.mu.
func (f *File) loadPage(logical int, fullWrite bool) (*pageState, error) {
	if st, ok := f.pages[logical]; ok {
		return st, nil
	}
	base := f.committedPhys(logical)
	var committed []byte
	if base >= 0 && !fullWrite {
		var err error
		if committed, err = f.readCommitted(logical, base); err != nil {
			return nil, err
		}
	}
	shadowPhys, err := f.v.AllocPage()
	if err != nil {
		return nil, err
	}
	buf := f.takeBuf()
	if committed != nil {
		copy(buf, committed)
	} else {
		clear(buf)
	}
	st := &pageState{logical: logical, base: base, shadow: shadowPhys, buf: buf, dirty: true}
	f.pages[logical] = st
	return st, nil
}

// addMod records an owner's modified range, rejecting overlap with other
// owners and coalescing with the owner's own ranges.  Caller holds f.mu.
func (st *pageState) addMod(owner Owner, r Range) error {
	for _, m := range st.mods {
		if m.owner != owner && m.r.overlaps(r) {
			return fmt.Errorf("%w: %v vs %v on logical page %d", ErrWriteConflict, owner, m.owner, st.logical)
		}
	}
	// Merge with the owner's overlapping or adjacent ranges.
	out := st.mods[:0]
	for _, m := range st.mods {
		if m.owner == owner && (m.r.overlaps(r) || m.r.End() == r.Off || r.End() == m.r.Off) {
			lo, hi := m.r.Off, m.r.End()
			if r.Off < lo {
				lo = r.Off
			}
			if r.End() > hi {
				hi = r.End()
			}
			r = Range{Off: lo, Len: hi - lo}
			continue
		}
		out = append(out, m)
	}
	st.mods = append(out, mod{owner: owner, r: r})
	return nil
}

// WriteAt writes p at off on behalf of owner.  The affected pages get
// working copies and shadow pages on first touch; the bytes land in the
// disk's volatile layer (no I/O charged) until a flush or commit forces
// them.  Writing bytes already modified and uncommitted by another owner
// fails with ErrWriteConflict.
func (f *File) WriteAt(owner Owner, p []byte, off int64) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if off < 0 {
		return 0, fmt.Errorf("shadow: negative offset %d", off)
	}
	ps := f.v.PageSize()
	if end := off + int64(len(p)); end > int64(f.maxPtrs)*int64(ps) {
		return 0, fmt.Errorf("%w: end %d > %d", ErrBeyondMaxFile, end, int64(f.maxPtrs)*int64(ps))
	}
	n := 0
	for n < len(p) {
		logical := int((off + int64(n)) / int64(ps))
		pageOff := int((off + int64(n)) % int64(ps))
		take := ps - pageOff
		if take > len(p)-n {
			take = len(p) - n
		}
		st, err := f.loadPage(logical, pageOff == 0 && take == ps)
		if err != nil {
			return n, err
		}
		if err := st.addMod(owner, Range{Off: pageOff, Len: take}); err != nil {
			return n, err
		}
		copy(st.buf[pageOff:], p[n:n+take])
		st.dirty = true
		// Keep the shadow page's volatile image current so a flush is a
		// pure force-to-disk.
		if err := f.v.WritePage(st.shadow, st.buf, false); err != nil {
			return n, err
		}
		n += take
	}
	if end := off + int64(len(p)); end > f.size {
		f.size = end
	}
	f.st.Add(stats.Instructions, 200+int64(len(p))/32)
	return n, nil
}

// Prefetch loads the committed pages covering [off, off+length) into the
// clean-page cache - the section 5.2 optimization: "when a lock is
// requested, the page(s) containing the byte range can be prefetched, in
// anticipation of their subsequent use."  Pages with working state are
// skipped.
func (f *File) Prefetch(off, length int64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if off < 0 || length <= 0 {
		return nil
	}
	ps := int64(f.v.PageSize())
	for logical := int(off / ps); int64(logical)*ps < off+length; logical++ {
		if _, dirty := f.pages[logical]; dirty {
			continue
		}
		phys := f.committedPhys(logical)
		if phys < 0 {
			continue
		}
		if _, err := f.readCommitted(logical, phys); err != nil {
			return err
		}
	}
	return nil
}

// OwnerRange reports one owner's uncommitted range in file coordinates.
type OwnerRange struct {
	Owner Owner
	Off   int64
	Len   int64
}

// UncommittedOverlapping returns every owner range that overlaps
// [off, off+length) in file coordinates.  The transaction layer uses this
// to implement rule 2 of section 3.3: locking a modified-but-uncommitted
// record pulls it into the transaction.
func (f *File) UncommittedOverlapping(off, length int64) []OwnerRange {
	f.mu.Lock()
	defer f.mu.Unlock()
	if length <= 0 {
		// An empty range overlaps nothing - without this, the strict
		// comparisons below would match any mod straddling off.
		return nil
	}
	ps := int64(f.v.PageSize())
	var out []OwnerRange
	for _, st := range f.pages {
		basePos := int64(st.logical) * ps
		for _, m := range st.mods {
			mOff := basePos + int64(m.r.Off)
			mEnd := mOff + int64(m.r.Len)
			if mOff < off+length && off < mEnd {
				out = append(out, OwnerRange{Owner: m.owner, Off: mOff, Len: int64(m.r.Len)})
			}
		}
	}
	slices.SortFunc(out, func(a, b OwnerRange) int {
		return cmp.Or(cmp.Compare(a.Off, b.Off), cmp.Compare(a.Owner, b.Owner))
	})
	return out
}

// TransferMods reassigns every modification of owner from overlapping
// [off, off+length) to owner to.  It implements the ownership adoption of
// section 3.3 rule 2: when a transaction locks a record carrying
// uncommitted non-transaction changes, those changes commit or abort with
// the transaction.
func (f *File) TransferMods(from, to Owner, off, length int64) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	if length <= 0 {
		// An empty range adopts nothing (see UncommittedOverlapping).
		return 0
	}
	ps := int64(f.v.PageSize())
	moved := 0
	for _, st := range f.pages {
		basePos := int64(st.logical) * ps
		for i := range st.mods {
			m := &st.mods[i]
			if m.owner != from {
				continue
			}
			mOff := basePos + int64(m.r.Off)
			mEnd := mOff + int64(m.r.Len)
			if mOff < off+length && off < mEnd {
				m.owner = to
				moved++
			}
		}
	}
	return moved
}

// Owners returns every owner holding uncommitted modifications.
func (f *File) Owners() []Owner {
	f.mu.Lock()
	defer f.mu.Unlock()
	set := make(map[Owner]bool)
	for _, st := range f.pages {
		for _, m := range st.mods {
			set[m.owner] = true
		}
	}
	out := make([]Owner, 0, len(set))
	for o := range set {
		out = append(out, o)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Modified reports whether any owner holds uncommitted modifications:
// len(Owners()) > 0 without building the set.
func (f *File) Modified() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, st := range f.pages {
		if len(st.mods) > 0 {
			return true
		}
	}
	return false
}

// HasMods reports whether owner holds uncommitted modifications.
func (f *File) HasMods(owner Owner) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, st := range f.pages {
		for _, m := range st.mods {
			if m.owner == owner {
				return true
			}
		}
	}
	return false
}

// Flush forces every page modified by owner to stable storage, one data
// write per dirty page.  This is the participant's "flushes modified
// records" step at prepare time (section 4.2); after a flush, a crash
// cannot lose the owner's shadow images.
func (f *File) Flush(owner Owner) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	var buf [8]int // a transaction rarely dirties more pages of a file: no allocation
	logicals := buf[:0]
	for l, st := range f.pages {
		if touched, _ := st.touchedBy(owner); st.dirty && touched {
			logicals = append(logicals, l)
		}
	}
	slices.Sort(logicals) // one forced write each: their order is the schedule's
	for _, l := range logicals {
		st := f.pages[l]
		if err := f.v.FlushPage(st.shadow); err != nil {
			return err
		}
		st.dirty = false
	}
	return nil
}

// Intention is one entry of an owner's intentions list: enough to finish
// (or undo) the page's commit after a crash.  Ranges are the owner's
// modified byte ranges within the page; recovery re-merges them onto the
// previous version, which is correct on both the sole-owner and shared
// page paths.
type Intention struct {
	Logical int
	Base    int // committed physical page at prepare time (-1 none)
	Shadow  int // flushed shadow page holding the working image
	Ranges  []Range
}

// IntentionsList is the per-file payload of a prepare log record.
type IntentionsList struct {
	Ino     int
	NewSize int64
	Entries []Intention
}

// IntentionsFor returns owner's intentions list.  The caller should Flush
// first; the list describes the flushed shadow images.
func (f *File) IntentionsFor(owner Owner) IntentionsList {
	f.mu.Lock()
	defer f.mu.Unlock()
	il := IntentionsList{Ino: f.ino.Ino, NewSize: f.ownerSizeLocked(owner)}
	var logicals []int
	for l := range f.pages {
		logicals = append(logicals, l)
	}
	sort.Ints(logicals)
	for _, l := range logicals {
		st := f.pages[l]
		rs := st.ownerMods(owner)
		if len(rs) == 0 {
			continue
		}
		il.Entries = append(il.Entries, Intention{
			Logical: st.logical,
			Base:    st.base,
			Shadow:  st.shadow,
			Ranges:  rs,
		})
	}
	f.st.Add(stats.Instructions, int64(len(il.Entries))*costmodel.InstrIntentionEntry)
	return il
}

// ownerSizeLocked computes the size the file would have if owner's
// modifications committed now: the committed size extended by owner's
// highest written byte.  Caller holds f.mu.
func (f *File) ownerSizeLocked(owner Owner) int64 {
	size := f.ino.Size
	ps := int64(f.v.PageSize())
	for _, st := range f.pages {
		for _, m := range st.mods {
			if m.owner != owner {
				continue
			}
			if end := int64(st.logical)*ps + int64(m.r.End()); end > size {
				size = end
			}
		}
	}
	return size
}

// workingSizeLocked recomputes the working size from the committed size
// and the surviving modifications.  Caller holds f.mu.
func (f *File) workingSizeLocked() int64 {
	size := f.ino.Size
	ps := int64(f.v.PageSize())
	for _, st := range f.pages {
		for _, m := range st.mods {
			if end := int64(st.logical)*ps + int64(m.r.End()); end > size {
				size = end
			}
		}
	}
	return size
}

// Commit atomically commits owner's modifications: the single-file commit
// of section 4, record-level per section 5.2.  Pages solely modified by
// owner take the direct path (Figure 4(a)); pages shared with other
// owners take the differencing path (Figure 4(b)).  The commit point is
// the single synchronous inode write; replaced pages are freed after it.
func (f *File) Commit(owner Owner) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.commitLocked(owner)
}

func (f *File) commitLocked(owner Owner) error {
	f.st.Add(stats.Instructions, costmodel.InstrCommitEnvelope)
	type action struct {
		st      *pageState
		newPhys int
		freeOld int    // page to free after the inode write, -1 none
		shared  bool   // differencing path taken
		merged  []byte // committed image on the differencing path
	}
	var acts []action
	var logicals []int
	for l := range f.pages {
		logicals = append(logicals, l)
	}
	sort.Ints(logicals)

	tr := f.v.Tracer()
	var obj string // trace label, built only when someone is listening
	if tr != nil {
		obj = fmt.Sprintf("%s#%d", f.v.Name(), f.ino.Ino)
	}
	for _, l := range logicals {
		st := f.pages[l]
		touched, sole := st.touchedBy(owner)
		if !touched {
			continue
		}
		f.st.Inc(stats.PageCommits)
		f.st.Add(stats.Instructions, costmodel.InstrPageCommitBase)
		tr.Record(trace.PageWrite, string(owner), obj, int64(l))
		if sole {
			// Figure 4(a): direct commit of the shadow page.
			if st.dirty {
				if err := f.v.FlushPage(st.shadow); err != nil {
					return err
				}
				st.dirty = false
			}
			acts = append(acts, action{st: st, newPhys: st.shadow, freeOld: st.base})
			continue
		}
		// Figure 4(b): merge owner's records onto the previous version.
		f.st.Inc(stats.PageDiffs)
		f.st.Add(stats.Instructions, costmodel.InstrPageDiffBase)
		tr.Record(trace.PageDiff, string(owner), obj, int64(l))
		merged := f.takeBuf()
		if err := f.previousVersion(st, merged); err != nil {
			return err
		}
		for _, r := range st.ownerMods(owner) {
			copy(merged[r.Off:r.End()], st.buf[r.Off:r.End()])
			f.st.Add(stats.BytesCopied, int64(r.Len))
		}
		mergePhys, err := f.v.AllocPage()
		if err != nil {
			return err
		}
		if err := f.v.WritePage(mergePhys, merged, true); err != nil {
			return err
		}
		acts = append(acts, action{st: st, newPhys: mergePhys, freeOld: st.base, shared: true, merged: merged})
	}
	if len(acts) == 0 {
		return fmt.Errorf("%w: %v", ErrNoSuchOwner, owner)
	}

	// Build and atomically write the new inode: the commit point.
	newIno := f.ino.Clone()
	newSize := f.ownerSizeLocked(owner)
	for _, a := range acts {
		for len(newIno.Pages) <= a.st.logical {
			newIno.Pages = append(newIno.Pages, -1)
		}
		newIno.Pages[a.st.logical] = a.newPhys
	}
	if newSize > newIno.Size {
		newIno.Size = newSize
	}
	if err := f.v.WriteInode(newIno); err != nil {
		return err
	}
	f.ino = newIno

	// Post-commit bookkeeping: free replaced pages, retire or rebase
	// working state, refresh the clean-page cache with the newly
	// committed images.
	for _, a := range acts {
		if a.freeOld >= 0 {
			if err := f.v.FreePage(a.freeOld); err != nil {
				return err
			}
		}
		if a.shared {
			// Remaining owners keep the working copy; its previous
			// version is now the merged page.
			a.st.base = a.newPhys
			a.st.dropOwner(owner)
			f.cachePut(a.st.logical, a.merged)
		} else {
			// The shadow page became the committed page, and its
			// working buffer the committed image.
			f.cachePut(a.st.logical, a.st.buf)
			delete(f.pages, a.st.logical)
		}
	}
	f.size = f.workingSizeLocked()
	return nil
}

// previousVersion fills dst with the committed version of st's page (all
// zero for a page with none): from the clean-page cache when
// CleanCacheForDiff allows and it is there, else re-read from stable
// storage as the 1985 implementation did.  Caller holds f.mu.
func (f *File) previousVersion(st *pageState, dst []byte) error {
	if st.base < 0 {
		clear(dst)
		return nil
	}
	if f.CleanCacheForDiff {
		if img, ok := f.cacheGet(st.logical); ok {
			copy(dst, img)
			return nil
		}
	}
	return f.v.ReadStablePageInto(st.base, dst)
}

// Abort discards owner's modifications (section 4.3, footnote 5).  Sole-
// owner pages are dropped and their shadow pages freed; shared pages have
// the owner's byte ranges restored from the stable previous version.
func (f *File) Abort(owner Owner) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.abortLocked(owner)
}

func (f *File) abortLocked(owner Owner) error {
	touched := false
	var logicals []int
	for l := range f.pages {
		logicals = append(logicals, l)
	}
	sort.Ints(logicals)
	for _, l := range logicals {
		st := f.pages[l]
		mine, sole := st.touchedBy(owner)
		if !mine {
			continue
		}
		touched = true
		f.st.Inc(stats.PageAborts)
		if sole {
			// Discard the whole working page.
			if err := f.v.FreePage(st.shadow); err != nil {
				return err
			}
			delete(f.pages, l)
			f.putBuf(st.buf)
			continue
		}
		// Restore the owner's ranges from the previous version.
		prev := f.takeBuf()
		if err := f.previousVersion(st, prev); err != nil {
			return err
		}
		for _, r := range st.ownerMods(owner) {
			copy(st.buf[r.Off:r.End()], prev[r.Off:r.End()])
			f.st.Add(stats.BytesCopied, int64(r.Len))
		}
		f.putBuf(prev)
		st.dropOwner(owner)
		st.dirty = true
		if err := f.v.WritePage(st.shadow, st.buf, false); err != nil {
			return err
		}
	}
	if !touched {
		return fmt.Errorf("%w: %v", ErrNoSuchOwner, owner)
	}
	f.size = f.workingSizeLocked()
	return nil
}

// ApplyIntentions idempotently replays a prepared intentions list during
// crash recovery: for each entry it rebuilds the committed image of the
// page from the stable previous version plus the owner's ranges out of the
// flushed shadow page, then installs the pointer with one inode write.
// Re-running after a partial earlier attempt is safe: entries whose
// pointer already moved are skipped.
//
// The caller must have re-pinned the shadow pages (fs.ReservePage) before
// normal allocation resumes.
func ApplyIntentions(v *fs.Volume, il IntentionsList) error {
	node, err := v.ReadInode(il.Ino)
	if err != nil {
		return err
	}
	changed := false
	var replaced []int
	merged, shadowImg := make([]byte, v.PageSize()), make([]byte, v.PageSize())
	for _, ent := range il.Entries {
		cur := -1
		if ent.Logical < len(node.Pages) {
			cur = node.Pages[ent.Logical]
		}
		if cur == ent.Shadow {
			continue // already applied
		}
		// Rebuild the committed image: previous version + owner ranges
		// from the shadow image.  Always differencing is correct on both
		// Figure 4 paths; recovery takes no shortcuts.
		//
		// The previous version is the page the inode points to NOW, not
		// the Base recorded at prepare time: on a shared (page-differenced)
		// page a co-owner may have committed after this transaction
		// prepared, so the recorded Base is stale - possibly freed - and
		// merging onto it would erase the co-owner's committed bytes.
		prevPhys := cur
		if prevPhys < 0 {
			prevPhys = ent.Base
		}
		clear(merged)
		if prevPhys >= 0 {
			if err := v.ReadStablePageInto(prevPhys, merged); err != nil {
				return err
			}
		}
		if err := v.ReadStablePageInto(ent.Shadow, shadowImg); err != nil {
			return err
		}
		for _, r := range ent.Ranges {
			copy(merged[r.Off:r.End()], shadowImg[r.Off:r.End()])
			v.Stats().Add(stats.BytesCopied, int64(r.Len))
		}
		if err := v.WritePage(ent.Shadow, merged, true); err != nil {
			return err
		}
		for len(node.Pages) <= ent.Logical {
			node.Pages = append(node.Pages, -1)
		}
		node.Pages[ent.Logical] = ent.Shadow
		if prevPhys >= 0 {
			replaced = append(replaced, prevPhys)
		}
		changed = true
	}
	if il.NewSize > node.Size {
		node.Size = il.NewSize
		changed = true
	}
	if !changed {
		return nil
	}
	if err := v.WriteInode(node); err != nil {
		return err
	}
	// Free the replaced previous versions (plus any prepare-time Base a
	// co-owner's commit already superseded) that are still allocated and
	// no longer referenced by the inode.
	inUse := make(map[int]bool)
	for _, p := range node.Pages {
		if p >= 0 {
			inUse[p] = true
		}
	}
	for _, ent := range il.Entries {
		if ent.Base >= 0 {
			replaced = append(replaced, ent.Base)
		}
	}
	for _, pg := range replaced {
		if !inUse[pg] && v.PageAllocated(pg) {
			if err := v.FreePage(pg); err != nil {
				return err
			}
		}
	}
	return nil
}

// DiscardIntentions releases the shadow pages named by an intentions list
// whose transaction aborted during recovery.  Pages no longer allocated
// (reclaimed by the post-crash load scan) are skipped.
func DiscardIntentions(v *fs.Volume, il IntentionsList) error {
	node, err := v.ReadInode(il.Ino)
	if err != nil {
		return err
	}
	inUse := make(map[int]bool)
	for _, p := range node.Pages {
		if p >= 0 {
			inUse[p] = true
		}
	}
	for _, ent := range il.Entries {
		if !inUse[ent.Shadow] && v.PageAllocated(ent.Shadow) {
			if err := v.FreePage(ent.Shadow); err != nil {
				return err
			}
		}
	}
	return nil
}
