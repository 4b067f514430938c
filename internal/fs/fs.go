// Package fs implements the Locus-style volume layer: a filesystem image
// on a simulated disk with inodes, a page allocator, and a per-volume log
// store.
//
// The layout mirrors what the paper's commit mechanism needs and nothing
// more:
//
//	page 0                    superblock
//	pages 1 .. nInodes        one inode per page, so committing a file is
//	                          exactly one atomic page write (section 4:
//	                          "atomically overwriting the inode on disk")
//	pages .. +logLen          the per-volume log area (section 4.4: logs
//	                          must live on the same medium as the files
//	                          they describe)
//	remaining pages           data and shadow pages
//
// Allocation state is not persisted.  Loading a volume after a crash
// rebuilds the free map from the committed inodes, which automatically
// reclaims shadow pages belonging to transactions that never prepared -
// the paper's "aborted upon system restart" behaviour.  Pages named in a
// surviving prepare log are re-pinned by the recovery machinery through
// ReservePage before normal operation resumes.
package fs

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/costmodel"
	"repro/internal/simdisk"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// Filesystem limits and magic numbers.
const (
	superMagic uint32 = 0x4C4F4346 // "LOCF"
	inodeMagic uint32 = 0x494E4F44 // "INOD"

	// MinPageSize keeps the superblock and inode encodings honest.
	MinPageSize = 128
)

// Errors returned by volume operations.
var (
	ErrBadVolume   = errors.New("fs: not a locus volume")
	ErrNoSpace     = errors.New("fs: out of data pages")
	ErrNoInodes    = errors.New("fs: out of inodes")
	ErrBadInode    = errors.New("fs: invalid inode number")
	ErrFreeInode   = errors.New("fs: inode is not allocated")
	ErrNotData     = errors.New("fs: page outside data region")
	ErrDoubleFree  = errors.New("fs: page already free")
	ErrDoubleAlloc = errors.New("fs: page already allocated")
	ErrFileTooBig  = errors.New("fs: file exceeds inode pointer capacity")
	ErrInodeInUse  = errors.New("fs: inode still references pages")
	ErrBadGeometry = errors.New("fs: bad volume geometry")
	// ErrStaleVolume: the volume handle was superseded by a reload (the
	// site crash-restarted and mounted a fresh Volume over the same
	// disk).  Goroutines still holding the old handle must not touch
	// stable storage: the reloaded allocator and log have reassigned the
	// pages they remember.
	ErrStaleVolume  = errors.New("fs: stale volume handle (superseded by reload)")
	ErrInodeCorrupt = errors.New("fs: inode page corrupt")
)

// Inode is a file descriptor block: the file's size, a version stamp, and
// the table of physical data page pointers.  Replacing the pointer table
// in one page write is the single-file commit primitive everything else
// builds on.  Large files spill their pointer tail into a single-indirect
// page ("although there may be indirection present", section 4): the
// indirect page is written shadow-style to a fresh physical page before
// the inode write, so the commit stays atomic.
type Inode struct {
	Ino     int
	Size    int64
	Version uint64 // bumped on every committed inode write
	Pages   []int  // Pages[i] = physical page of logical page i; -1 = hole
	// Indirect is the physical page holding the overflow pointers, or -1.
	// Managed by WriteInode/ReadInode; callers treat it as opaque.
	Indirect int
}

// Clone returns a deep copy of the inode.
func (ino *Inode) Clone() *Inode {
	c := *ino
	c.Pages = append([]int(nil), ino.Pages...)
	return &c
}

// inodeHeaderBytes is the fixed part of the on-disk inode encoding:
// magic, ino, size, version, npages, indirect (4+4+8+8+4+4).
const inodeHeaderBytes = 32

// inlinePointers is how many pointers fit in the inode page itself.
func inlinePointers(pageSize int) int { return (pageSize - inodeHeaderBytes) / 4 }

// MaxPointers returns how many page pointers an inode of the given page
// size supports: the inline table plus one single-indirect page.
func MaxPointers(pageSize int) int { return inlinePointers(pageSize) + pageSize/4 }

// Geometry describes a volume's layout, derived from the superblock.
type Geometry struct {
	PageSize  int
	NumPages  int
	NumInodes int
	LogPages  int
	LogStart  int
	DataStart int
}

// Volume is a mounted filesystem image.  It is safe for concurrent use.
type Volume struct {
	name string
	disk *simdisk.Disk
	st   *stats.Set
	tr   *trace.Tracer // nil disables log/page event tracing
	geo  Geometry

	// DoubleLogWrite reproduces the implementation deficiency of the
	// paper's footnote 9: every log append costs two I/Os (data page +
	// log inode) instead of one.  Benchmarks flip this to regenerate
	// both rows of Figure 5's discussion.
	DoubleLogWrite bool

	stale atomic.Bool // set by Invalidate; fences every mutation

	clk vtime.Clock // set by SetClock; nil means real time

	mu        sync.Mutex
	allocated map[int]bool // data-region pages currently in use
	inodeUsed map[int]bool
	encBuf    []byte // the page image WriteInode encodes into, between uses
	log       *LogStore
}

// Invalidate fences the volume handle: every subsequent mutation fails
// with ErrStaleVolume.  The recovery path calls this on the old Volume
// before mounting a fresh one over the restarted disk, so that in-flight
// goroutines from before the crash (a coordinator finishing phase two, a
// shadow-file commit) cannot write through stale allocator or log state
// and corrupt the reloaded image.
func (v *Volume) Invalidate() {
	v.stale.Store(true)
	if v.log != nil {
		v.log.StopGroupCommit()
	}
}

// staleErr returns ErrStaleVolume once the handle has been invalidated.
func (v *Volume) staleErr() error {
	if v.stale.Load() {
		return fmt.Errorf("%w: %s", ErrStaleVolume, v.name)
	}
	return nil
}

// Options configures Format.
type Options struct {
	NumInodes int // default 64
	LogPages  int // default 64
}

// Format writes a fresh filesystem onto the disk and returns the mounted
// volume.  Existing contents are ignored.
func Format(name string, disk *simdisk.Disk, opts Options) (*Volume, error) {
	if opts.NumInodes == 0 {
		opts.NumInodes = 64
	}
	if opts.LogPages == 0 {
		opts.LogPages = 64
	}
	ps := disk.PageSize()
	if ps < MinPageSize {
		return nil, fmt.Errorf("%w: page size %d < %d", ErrBadGeometry, ps, MinPageSize)
	}
	geo := Geometry{
		PageSize:  ps,
		NumPages:  disk.NumPages(),
		NumInodes: opts.NumInodes,
		LogPages:  opts.LogPages,
	}
	geo.LogStart = 1 + geo.NumInodes
	geo.DataStart = geo.LogStart + geo.LogPages
	if geo.DataStart >= geo.NumPages {
		return nil, fmt.Errorf("%w: %d pages cannot hold %d inodes + %d log pages",
			ErrBadGeometry, geo.NumPages, geo.NumInodes, geo.LogPages)
	}

	v := &Volume{
		name:      name,
		disk:      disk,
		st:        disk.Stats(),
		geo:       geo,
		allocated: make(map[int]bool),
		inodeUsed: make(map[int]bool),
	}

	// Superblock.
	super := make([]byte, ps)
	binary.LittleEndian.PutUint32(super[0:], superMagic)
	binary.LittleEndian.PutUint32(super[4:], uint32(geo.NumInodes))
	binary.LittleEndian.PutUint32(super[8:], uint32(geo.LogPages))
	if err := disk.WritePage(0, super, simdisk.IOMeta, true); err != nil {
		return nil, err
	}
	// Clear the inode table and log area.
	zero := make([]byte, ps)
	for p := 1; p < geo.DataStart; p++ {
		if err := disk.WritePage(p, zero, simdisk.IOMeta, true); err != nil {
			return nil, err
		}
	}
	v.log = newLogStore(v)
	return v, nil
}

// Load mounts an existing filesystem image, rebuilding allocation state
// from the committed inodes and scanning the log area.  It is the
// post-crash entry point.
func Load(name string, disk *simdisk.Disk) (*Volume, error) {
	super, err := disk.ReadPage(0, simdisk.IOMeta)
	if err != nil {
		return nil, err
	}
	if binary.LittleEndian.Uint32(super[0:]) != superMagic {
		return nil, ErrBadVolume
	}
	geo := Geometry{
		PageSize:  disk.PageSize(),
		NumPages:  disk.NumPages(),
		NumInodes: int(binary.LittleEndian.Uint32(super[4:])),
		LogPages:  int(binary.LittleEndian.Uint32(super[8:])),
	}
	geo.LogStart = 1 + geo.NumInodes
	geo.DataStart = geo.LogStart + geo.LogPages
	if geo.DataStart >= geo.NumPages || geo.NumInodes < 0 || geo.LogPages < 0 {
		return nil, ErrBadGeometry
	}
	v := &Volume{
		name:      name,
		disk:      disk,
		st:        disk.Stats(),
		geo:       geo,
		allocated: make(map[int]bool),
		inodeUsed: make(map[int]bool),
	}
	// Rebuild allocation from committed inodes.
	for ino := 0; ino < geo.NumInodes; ino++ {
		node, err := v.readInodePage(ino)
		if err != nil {
			if errors.Is(err, ErrFreeInode) {
				continue
			}
			return nil, err
		}
		v.inodeUsed[ino] = true
		if node.Indirect >= 0 {
			v.allocated[node.Indirect] = true
		}
		for _, p := range node.Pages {
			if p >= 0 {
				v.allocated[p] = true
			}
		}
	}
	v.log = newLogStore(v)
	if err := v.log.load(); err != nil {
		return nil, err
	}
	return v, nil
}

// Name returns the volume's name.
func (v *Volume) Name() string { return v.name }

// SetTracer attaches an event tracer; log forces and group-commit
// batches are recorded through it.  Call right after Format/Load.
func (v *Volume) SetTracer(t *trace.Tracer) { v.tr = t }

// SetClock binds the volume's clock-sensitive pieces (the log store's
// lock, which is held across forced writes) to the given clock.  Call
// before the volume sees traffic; nil is ignored.
func (v *Volume) SetClock(c vtime.Clock) {
	if c != nil {
		v.clk = c
		v.log.setClock(c)
	}
}

// Clock returns the clock bound by SetClock (never nil: defaults to the
// real-time clock).  The shadow layer binds its per-file mutexes - held
// across forced page writes - to it.
func (v *Volume) Clock() vtime.Clock {
	if v.clk == nil {
		return vtime.Real()
	}
	return v.clk
}

// Tracer returns the attached tracer, nil if tracing is disabled.  The
// shadow layer picks it up here, alongside Stats.
func (v *Volume) Tracer() *trace.Tracer { return v.tr }

// Geometry returns the volume layout.
func (v *Volume) Geometry() Geometry { return v.geo }

// PageSize returns the size of a page in bytes.
func (v *Volume) PageSize() int { return v.geo.PageSize }

// Disk exposes the underlying disk (used by crash-injection tests).
func (v *Volume) Disk() *simdisk.Disk { return v.disk }

// Stats returns the volume's counter set (possibly nil).
func (v *Volume) Stats() *stats.Set { return v.st }

// Log returns the volume's log store.
func (v *Volume) Log() *LogStore { return v.log }

// ---- Inode operations ----

func (v *Volume) inodePage(ino int) int { return 1 + ino }

func (v *Volume) checkIno(ino int) error {
	if ino < 0 || ino >= v.geo.NumInodes {
		return fmt.Errorf("%w: %d of %d", ErrBadInode, ino, v.geo.NumInodes)
	}
	return nil
}

// AllocInode allocates a fresh inode, writing its (empty) descriptor block
// synchronously, and returns its number.
func (v *Volume) AllocInode() (int, error) {
	if err := v.staleErr(); err != nil {
		return -1, err
	}
	v.mu.Lock()
	var ino = -1
	for i := 0; i < v.geo.NumInodes; i++ {
		if !v.inodeUsed[i] {
			ino = i
			v.inodeUsed[i] = true
			break
		}
	}
	v.mu.Unlock()
	if ino < 0 {
		return -1, ErrNoInodes
	}
	v.st.Add(stats.Instructions, 100)
	node := &Inode{Ino: ino, Version: 1, Indirect: -1}
	if err := v.WriteInode(node); err != nil {
		v.mu.Lock()
		delete(v.inodeUsed, ino)
		v.mu.Unlock()
		return -1, err
	}
	return ino, nil
}

// FreeInode releases an inode.  The caller must have freed or transferred
// the file's data pages first; an inode still holding pointers is
// rejected so leaks are loud.
func (v *Volume) FreeInode(ino int) error {
	if err := v.staleErr(); err != nil {
		return err
	}
	if err := v.checkIno(ino); err != nil {
		return err
	}
	node, err := v.ReadInode(ino)
	if err != nil {
		return err
	}
	for _, p := range node.Pages {
		if p >= 0 {
			return fmt.Errorf("%w: inode %d", ErrInodeInUse, ino)
		}
	}
	if err := v.disk.WritePage(v.inodePage(ino), v.log.zero, simdisk.IOInode, true); err != nil {
		return err
	}
	v.mu.Lock()
	delete(v.inodeUsed, ino)
	v.mu.Unlock()
	return nil
}

// readInodePage decodes the on-disk inode, returning ErrFreeInode for an
// unallocated slot.  No locks held.
func (v *Volume) readInodePage(ino int) (*Inode, error) {
	buf, err := v.disk.ReadPage(v.inodePage(ino), simdisk.IOInode)
	if err != nil {
		return nil, err
	}
	magic := binary.LittleEndian.Uint32(buf[0:])
	if magic == 0 {
		return nil, fmt.Errorf("%w: %d", ErrFreeInode, ino)
	}
	if magic != inodeMagic {
		return nil, fmt.Errorf("%w: inode %d bad magic %#x", ErrInodeCorrupt, ino, magic)
	}
	if got := int(binary.LittleEndian.Uint32(buf[4:])); got != ino {
		return nil, fmt.Errorf("%w: inode %d claims number %d", ErrInodeCorrupt, ino, got)
	}
	node := &Inode{
		Ino:      ino,
		Size:     int64(binary.LittleEndian.Uint64(buf[8:])),
		Version:  binary.LittleEndian.Uint64(buf[16:]),
		Indirect: int(int32(binary.LittleEndian.Uint32(buf[28:]))),
	}
	n := int(binary.LittleEndian.Uint32(buf[24:]))
	if n < 0 || n > MaxPointers(v.geo.PageSize) {
		return nil, fmt.Errorf("%w: inode %d pointer count %d", ErrInodeCorrupt, ino, n)
	}
	node.Pages = make([]int, n)
	inline := inlinePointers(v.geo.PageSize)
	for i := 0; i < n && i < inline; i++ {
		node.Pages[i] = int(int32(binary.LittleEndian.Uint32(buf[inodeHeaderBytes+4*i:])))
	}
	if n > inline {
		if node.Indirect < 0 {
			return nil, fmt.Errorf("%w: inode %d needs %d pointers but has no indirect page", ErrInodeCorrupt, ino, n)
		}
		ind, err := v.disk.ReadPage(node.Indirect, simdisk.IOData)
		if err != nil {
			return nil, err
		}
		for i := inline; i < n; i++ {
			node.Pages[i] = int(int32(binary.LittleEndian.Uint32(ind[4*(i-inline):])))
		}
	}
	return node, nil
}

// ReadInode returns the committed inode from disk (one page read).  This
// models bringing the descriptor into kernel memory at open time; callers
// cache the result themselves, as the Locus storage site does.
func (v *Volume) ReadInode(ino int) (*Inode, error) {
	if err := v.checkIno(ino); err != nil {
		return nil, err
	}
	v.st.Add(stats.Instructions, 150)
	return v.readInodePage(ino)
}

// WriteInode atomically replaces the on-disk descriptor with node,
// bumping its version.  The single synchronous inode-page write is the
// commit point of the single-file commit mechanism; when the pointer
// table overflows the inode page, the tail is first written to a FRESH
// single-indirect page (shadow-style), so a crash between the two writes
// leaves the old descriptor and its old indirect page fully intact.
func (v *Volume) WriteInode(node *Inode) error {
	if err := v.staleErr(); err != nil {
		return err
	}
	if err := v.checkIno(node.Ino); err != nil {
		return err
	}
	if len(node.Pages) > MaxPointers(v.geo.PageSize) {
		return fmt.Errorf("%w: %d pointers > %d", ErrFileTooBig, len(node.Pages), MaxPointers(v.geo.PageSize))
	}
	v.st.Add(stats.Instructions, costmodel.InstrIntentionEntry)
	inline := inlinePointers(v.geo.PageSize)
	oldIndirect := node.Indirect

	// One kept image serves the indirect page and then the inode page
	// (the disk has copied the first by the time the second is encoded);
	// a concurrent WriteInode finds the slot empty and makes its own.
	v.mu.Lock()
	buf := v.encBuf
	v.encBuf = nil
	v.mu.Unlock()
	if buf == nil {
		buf = make([]byte, v.geo.PageSize)
	}
	clear(buf)
	defer func() {
		v.mu.Lock()
		v.encBuf = buf
		v.mu.Unlock()
	}()
	if len(node.Pages) > inline {
		for i := inline; i < len(node.Pages); i++ {
			binary.LittleEndian.PutUint32(buf[4*(i-inline):], uint32(int32(node.Pages[i])))
		}
		p, err := v.AllocPage()
		if err != nil {
			return err
		}
		if err := v.disk.WritePage(p, buf, simdisk.IOData, true); err != nil {
			v.FreePage(p) //nolint:errcheck // best-effort cleanup on the error path
			return err
		}
		node.Indirect = p
		clear(buf)
	} else {
		node.Indirect = -1
	}

	node.Version++
	binary.LittleEndian.PutUint32(buf[0:], inodeMagic)
	binary.LittleEndian.PutUint32(buf[4:], uint32(node.Ino))
	binary.LittleEndian.PutUint64(buf[8:], uint64(node.Size))
	binary.LittleEndian.PutUint64(buf[16:], node.Version)
	binary.LittleEndian.PutUint32(buf[24:], uint32(len(node.Pages)))
	binary.LittleEndian.PutUint32(buf[28:], uint32(int32(node.Indirect)))
	n := len(node.Pages)
	if n > inline {
		n = inline
	}
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint32(buf[inodeHeaderBytes+4*i:], uint32(int32(node.Pages[i])))
	}
	if err := v.disk.WritePage(v.inodePage(node.Ino), buf, simdisk.IOInode, true); err != nil {
		if node.Indirect >= 0 && node.Indirect != oldIndirect {
			v.FreePage(node.Indirect) //nolint:errcheck
			node.Indirect = oldIndirect
		}
		return err
	}
	// The new descriptor is durable: release the replaced indirect page.
	if oldIndirect >= 0 && oldIndirect != node.Indirect && v.PageAllocated(oldIndirect) {
		if err := v.FreePage(oldIndirect); err != nil {
			return err
		}
	}
	return nil
}

// InodeAllocated reports whether the inode number is in use.
func (v *Volume) InodeAllocated(ino int) bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.inodeUsed[ino]
}

// Inodes returns the allocated inode numbers, ascending, for recovery
// scans.
func (v *Volume) Inodes() []int {
	v.mu.Lock()
	defer v.mu.Unlock()
	var out []int
	for ino := range v.inodeUsed {
		out = append(out, ino)
	}
	slices.Sort(out)
	return out
}

// ---- Data page allocation ----

func (v *Volume) checkData(p int) error {
	if p < v.geo.DataStart || p >= v.geo.NumPages {
		return fmt.Errorf("%w: page %d (data region %d..%d)", ErrNotData, p, v.geo.DataStart, v.geo.NumPages-1)
	}
	return nil
}

// AllocPage allocates a free data page (first fit) and returns its
// physical number.  The page contents are whatever was on disk; callers
// overwrite before use.
func (v *Volume) AllocPage() (int, error) {
	if err := v.staleErr(); err != nil {
		return -1, err
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	v.st.Add(stats.Instructions, 60)
	for p := v.geo.DataStart; p < v.geo.NumPages; p++ {
		if !v.allocated[p] {
			v.allocated[p] = true
			return p, nil
		}
	}
	return -1, ErrNoSpace
}

// FreePage returns a data page to the free pool.
func (v *Volume) FreePage(p int) error {
	if err := v.staleErr(); err != nil {
		return err
	}
	if err := v.checkData(p); err != nil {
		return err
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if !v.allocated[p] {
		return fmt.Errorf("%w: page %d", ErrDoubleFree, p)
	}
	delete(v.allocated, p)
	return nil
}

// ReservePage marks a specific data page allocated; recovery uses it to
// re-pin shadow pages named by a surviving prepare log.
func (v *Volume) ReservePage(p int) error {
	if err := v.staleErr(); err != nil {
		return err
	}
	if err := v.checkData(p); err != nil {
		return err
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.allocated[p] {
		return fmt.Errorf("%w: page %d", ErrDoubleAlloc, p)
	}
	v.allocated[p] = true
	return nil
}

// PageAllocated reports whether the data page is currently allocated.
func (v *Volume) PageAllocated(p int) bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.allocated[p]
}

// FreePages returns the number of unallocated data pages.
func (v *Volume) FreePages() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.geo.NumPages - v.geo.DataStart - len(v.allocated)
}

// ---- Raw page I/O (data region only) ----

// ReadPage reads a data page's current contents (volatile if unflushed).
func (v *Volume) ReadPage(p int) ([]byte, error) {
	if err := v.checkData(p); err != nil {
		return nil, err
	}
	return v.disk.ReadPage(p, simdisk.IOData)
}

// ReadPageInto is ReadPage into a page-sized buffer the caller owns.
func (v *Volume) ReadPageInto(p int, dst []byte) error {
	if err := v.checkData(p); err != nil {
		return err
	}
	return v.disk.ReadPageInto(p, simdisk.IOData, dst)
}

// ReadStablePageInto fills dst (page-sized, the caller's) with the last
// flushed version of a data page, ignoring unflushed writes.  The
// differencing commit uses it to recover the "previous version" of a page
// (Figure 4(b)).
func (v *Volume) ReadStablePageInto(p int, dst []byte) error {
	if err := v.checkData(p); err != nil {
		return err
	}
	return v.disk.ReadStableInto(p, simdisk.IOData, dst)
}

// WritePage writes a data page.  Asynchronous writes sit in the disk's
// volatile layer until flushed and are lost on crash.
func (v *Volume) WritePage(p int, data []byte, sync bool) error {
	if err := v.staleErr(); err != nil {
		return err
	}
	if err := v.checkData(p); err != nil {
		return err
	}
	return v.disk.WritePage(p, data, simdisk.IOData, sync)
}

// FlushPage forces an asynchronously written data page to stable storage.
func (v *Volume) FlushPage(p int) error {
	if err := v.staleErr(); err != nil {
		return err
	}
	if err := v.checkData(p); err != nil {
		return err
	}
	return v.disk.FlushPage(p, simdisk.IOData)
}
