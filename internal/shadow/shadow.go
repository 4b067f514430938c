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

	"repro/internal/costmodel"
	"repro/internal/fs"
	"repro/internal/simdisk"
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
	// ErrPastCommitPoint wraps an error Commit met after its inode write
	// landed: the modifications are committed, and only the bookkeeping
	// after the commit point failed.  Any other Commit error left the
	// committed file as it was, save one: fs.Volume.WriteInode fails after
	// its page write only on a volume its site's crash fenced, and then
	// recovery reads the outcome from the disk.
	ErrPastCommitPoint = errors.New("shadow: failed past the commit point")
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

	// mu is clock-aware because it is held across forced page and inode
	// writes (prepare, commit): under a virtual clock a plain mutex
	// would stall time while the holder parks in simulated disk latency.
	mu      vtime.Mutex
	ino     *fs.Inode
	nextIno *fs.Inode           // spare: Commit builds the next committed inode here, then swaps
	size    int64               // working size including uncommitted extensions
	pages   []*pageState        // the working set, ascending by logical page
	retired []*pageState // page states (with their mods arrays) for the next dirty page
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
	return fileOf(v, node), nil
}

// Create makes reserved inode ino a new file holding data in one forced
// write (fs.RewriteFile) and returns its working state, the committed
// pages in its clean-page cache as a commit would have left them.  Create
// takes data over: its whole pages become the cached images.
func Create(v *fs.Volume, ino int, data []byte) (*File, error) {
	node := &fs.Inode{Ino: ino, Indirect: -1}
	if err := v.RewriteFile(node, data); err != nil {
		return nil, err
	}
	f := fileOf(v, node)
	ps := v.PageSize()
	for logical := range node.Pages {
		img := data[logical*ps : min((logical+1)*ps, len(data)) : min((logical+1)*ps, len(data))]
		if len(img) < ps {
			img = f.takeBuf()
			clear(img[copy(img, data[logical*ps:]):])
		}
		f.cachePut(logical, img)
	}
	return f, nil
}

func fileOf(v *fs.Volume, node *fs.Inode) *File {
	f := &File{
		v:       v,
		st:      v.Stats(),
		ino:     node,
		nextIno: new(fs.Inode),
		size:    node.Size,
		maxPtrs: fs.MaxPointers(v.PageSize()),
		cache:   make(map[int][]byte),
	}
	f.mu.SetClock(v.Clock())
	return f
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

// page returns the working state of a logical page (nil if it has none)
// and its index in f.pages, or the index it would take.  Caller holds f.mu.
func (f *File) page(logical int) (*pageState, int) {
	i, ok := slices.BinarySearchFunc(f.pages, logical, func(st *pageState, l int) int { return st.logical - l })
	if !ok {
		return nil, i
	}
	return f.pages[i], i
}

// retire keeps a page state nothing references any more, its mods array
// with it, for the next dirty page.  Its buffer must have a new owner.
// Caller holds f.mu.
func (f *File) retire(st *pageState) {
	st.buf = nil
	if len(f.retired) < cleanCachePages {
		f.retired = append(f.retired, st)
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

// CommittedImage returns a copy of the file's committed contents, read
// through the clean-page cache: what an install ships.
func (f *File) CommittedImage() ([]byte, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	data := make([]byte, f.ino.Size)
	ps := f.v.PageSize()
	for logical := 0; logical*ps < len(data); logical++ {
		if phys := f.committedPhys(logical); phys >= 0 {
			img, err := f.readCommitted(logical, phys)
			if err != nil {
				return nil, err
			}
			copy(data[logical*ps:], img)
		}
	}
	return data, nil
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
		if st, _ := f.page(logical); st != nil {
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
	st, i := f.page(logical)
	if st != nil {
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
	if n := len(f.retired); n > 0 {
		st, f.retired = f.retired[n-1], f.retired[:n-1]
	} else {
		st = new(pageState)
	}
	*st = pageState{logical: logical, base: base, shadow: shadowPhys, buf: buf, mods: st.mods[:0], dirty: true}
	f.pages = slices.Insert(f.pages, i, st)
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
		if st, _ := f.page(logical); st != nil {
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

// Modified reports whether any owner holds uncommitted modifications.
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
	for _, st := range f.pages { // one forced write each, in page order: their order is the schedule's
		if touched, _ := st.touchedBy(owner); !st.dirty || !touched {
			continue
		}
		if err := f.v.FlushPage(st.shadow); err != nil {
			return err
		}
		st.dirty = false
	}
	return nil
}

// AppendUnflushed appends to dst the shadow page of each page owner has
// modified that is not yet durable - the pages Flush would force - and
// returns it.  A prepare record carries them in its own force instead of
// a Flush (tpc.WritePrepareRecord, DESIGN.md section 10).  They stay
// marked dirty: a force of a page already stable writes nothing, and a
// record write that failed leaves them for the next force to land.
func (f *File) AppendUnflushed(dst []int, owner Owner) []int {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, st := range f.pages {
		if touched, _ := st.touchedBy(owner); st.dirty && touched {
			dst = append(dst, st.shadow)
		}
	}
	return dst
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
	ranges  []Range // the entries' Ranges, one array kept for the next IntentionsFor
}

// IntentionsFor fills il with owner's intentions list, reusing il's
// arrays: its entries share one, and their ranges another (once it has
// grown to fit).  The list describes the flushed shadow images, so the
// caller should Flush first, or force the pages AppendUnflushed names
// ahead of the record.
func (f *File) IntentionsFor(owner Owner, il *IntentionsList) {
	f.mu.Lock()
	defer f.mu.Unlock()
	il.Ino, il.NewSize = f.ino.Ino, f.sizeLocked(owner)
	il.Entries, il.ranges = il.Entries[:0], il.ranges[:0]
	for _, st := range f.pages {
		start := len(il.ranges)
		for _, m := range st.mods {
			if m.owner == owner {
				il.ranges = append(il.ranges, m.r)
			}
		}
		if len(il.ranges) == start {
			continue
		}
		rs := il.ranges[start:len(il.ranges):len(il.ranges)] // stays put if the array grows on
		slices.SortFunc(rs, func(a, b Range) int { return a.Off - b.Off })
		il.Entries = append(il.Entries, Intention{Logical: st.logical, Base: st.base, Shadow: st.shadow, Ranges: rs})
	}
	f.st.Add(stats.Instructions, int64(len(il.Entries))*costmodel.InstrIntentionEntry)
}

// sizeLocked computes the size the file would have if owner's
// modifications committed now - the committed size extended by owner's
// highest written byte - or, for owner "", the working size: extended by
// every owner's.  Caller holds f.mu.
func (f *File) sizeLocked(owner Owner) int64 {
	size := f.ino.Size
	ps := int64(f.v.PageSize())
	for _, st := range f.pages {
		for _, m := range st.mods {
			if end := int64(st.logical)*ps + int64(m.r.End()); end > size && (owner == "" || m.owner == owner) {
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
// the single synchronous inode write; replaced pages are freed after it,
// and a failure there wraps ErrPastCommitPoint.  Commit is the paper's:
// each page is forced, then the inode (CommitWith, oneForce false).
func (f *File) Commit(owner Owner) error { return f.CommitWith(owner, false) }

// CommitWith is Commit, and with oneForce the commit takes one forced
// write (DESIGN.md section 10, the one-force rule): owner's dirty shadow
// pages, the merged pages of the differencing path and the indirect page
// if the pointer table needs one go in one batch ahead of the inode
// (fs.Volume.WriteInodeAfter).  A crash that tears the batch keeps a
// prefix without the inode, so it leaves the file as it was and the
// pages unreferenced.
func (f *File) CommitWith(owner Owner, oneForce bool) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.commitLocked(owner, oneForce)
}

func (f *File) commitLocked(owner Owner, oneForce bool) error {
	f.st.Add(stats.Instructions, costmodel.InstrCommitEnvelope)
	type action struct {
		st      *pageState
		newPhys int
		freeOld int    // page to free after the inode write, -1 none
		shared  bool   // differencing path taken
		merged  []byte // committed image on the differencing path
	}
	var buf [8]action // a transaction rarely commits more pages of a file: no allocation
	acts := buf[:0]
	var pw [len(buf) + 2]simdisk.PageWrite // a one-force batch: the pages, an indirect page and the inode
	batch := pw[:0]
	tr := f.v.Tracer()
	var obj string // trace label, built only when someone is listening
	if tr != nil {
		obj = fmt.Sprintf("%s#%d", f.v.Name(), f.ino.Ino)
	}
	for _, st := range f.pages {
		touched, sole := st.touchedBy(owner)
		if !touched {
			continue
		}
		f.st.Inc(stats.PageCommits)
		f.st.Add(stats.Instructions, costmodel.InstrPageCommitBase)
		tr.Record(trace.PageWrite, string(owner), obj, int64(st.logical))
		if sole {
			// Figure 4(a): direct commit of the shadow page.  A batched
			// page is never marked clean: its state retires once it lands.
			if st.dirty && oneForce {
				batch = append(batch, simdisk.PageWrite{Page: st.shadow, Kind: simdisk.IOData, Flush: true})
			} else if st.dirty {
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
		tr.Record(trace.PageDiff, string(owner), obj, int64(st.logical))
		merged := f.takeBuf()
		if err := f.previousVersion(st, merged); err != nil {
			return err
		}
		for _, m := range st.mods {
			if m.owner == owner {
				copy(merged[m.r.Off:m.r.End()], st.buf[m.r.Off:m.r.End()])
				f.st.Add(stats.BytesCopied, int64(m.r.Len))
			}
		}
		mergePhys, err := f.v.AllocPage()
		if err != nil {
			return err
		}
		if oneForce {
			batch = append(batch, simdisk.PageWrite{Page: mergePhys, Data: merged, Kind: simdisk.IOData})
		} else if err := f.v.WritePage(mergePhys, merged, true); err != nil {
			return err
		}
		acts = append(acts, action{st: st, newPhys: mergePhys, freeOld: st.base, shared: true, merged: merged})
	}
	if len(acts) == 0 {
		return fmt.Errorf("%w: %v", ErrNoSuchOwner, owner)
	}

	// Build the new inode in the spare and atomically write it: the commit
	// point.  The volume keeps no reference to it, and Inode hands out
	// copies, so the replaced inode is the next spare.
	newIno := f.ino.CopyTo(f.nextIno)
	newSize := f.sizeLocked(owner)
	for _, a := range acts {
		for len(newIno.Pages) <= a.st.logical {
			newIno.Pages = append(newIno.Pages, -1)
		}
		newIno.Pages[a.st.logical] = a.newPhys
	}
	if newSize > newIno.Size {
		newIno.Size = newSize
	}
	var err error
	if oneForce {
		err = f.v.WriteInodeAfter(batch, newIno)
	} else {
		err = f.v.WriteInode(newIno)
	}
	if err != nil {
		return err
	}
	f.ino, f.nextIno = newIno, f.ino

	// Post-commit bookkeeping: free replaced pages, retire or rebase
	// working state, refresh the clean-page cache with the newly
	// committed images.
	for _, a := range acts {
		if a.freeOld >= 0 {
			if err := f.v.FreePage(a.freeOld); err != nil {
				return fmt.Errorf("%w: %w", ErrPastCommitPoint, err)
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
			_, i := f.page(a.st.logical)
			f.pages = slices.Delete(f.pages, i, i+1)
			f.retire(a.st)
		}
	}
	f.size = f.sizeLocked("")
	return nil
}

// previousVersion fills dst with the committed version of st's page (all
// zero for a page with none): from the clean-page cache when the
// volume's CleanCacheForDiff allows and it is there, else re-read from
// stable storage as the 1985 implementation did.  Caller holds f.mu.
func (f *File) previousVersion(st *pageState, dst []byte) error {
	if st.base < 0 {
		clear(dst)
		return nil
	}
	if f.v.CleanCacheForDiff {
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
	for i := 0; i < len(f.pages); i++ {
		st := f.pages[i]
		mine, sole := st.touchedBy(owner)
		if !mine {
			continue
		}
		touched = true
		f.st.Inc(stats.PageAborts)
		if sole {
			// Discard the whole working page; the next one moves into slot i.
			if err := f.v.FreePage(st.shadow); err != nil {
				return err
			}
			f.pages = slices.Delete(f.pages, i, i+1)
			i--
			f.putBuf(st.buf)
			f.retire(st)
			continue
		}
		// Restore the owner's ranges from the previous version.
		prev := f.takeBuf()
		if err := f.previousVersion(st, prev); err != nil {
			return err
		}
		for _, m := range st.mods {
			if m.owner == owner {
				copy(st.buf[m.r.Off:m.r.End()], prev[m.r.Off:m.r.End()])
				f.st.Add(stats.BytesCopied, int64(m.r.Len))
			}
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
	f.size = f.sizeLocked("")
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
	for _, ent := range il.Entries {
		if ent.Base >= 0 {
			replaced = append(replaced, ent.Base)
		}
	}
	for _, pg := range replaced {
		if !slices.Contains(node.Pages, pg) && v.PageAllocated(pg) {
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
	for _, ent := range il.Entries {
		if !slices.Contains(node.Pages, ent.Shadow) && v.PageAllocated(ent.Shadow) {
			if err := v.FreePage(ent.Shadow); err != nil {
				return err
			}
		}
	}
	return nil
}
