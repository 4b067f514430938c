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
	"math/bits"
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
func (ino *Inode) Clone() *Inode { return ino.CopyTo(new(Inode)) }

// CopyTo makes dst a deep copy of the inode, reusing dst's pointer table,
// and returns it.
func (ino *Inode) CopyTo(dst *Inode) *Inode {
	pages := dst.Pages[:0]
	*dst = *ino
	dst.Pages = append(pages, ino.Pages...)
	return dst
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
	// CleanCacheForDiff enables the optimization the paper leaves as
	// future work (footnote 7): the shadow layer serves a differencing
	// commit's "previous version" of a page from its clean-page cache
	// instead of re-reading stable storage.  Off by default, matching the
	// measured 1985 implementation.
	CleanCacheForDiff bool
	// PerFilePrepareLogs reproduces footnote 10: a transaction's prepare
	// log on this volume holds one record per file instead of one.
	PerFilePrepareLogs bool
	// PrefetchOnLock enables the section 5.2 optimization: granting a
	// record lock on a file of this volume prefetches the covered pages
	// into the buffer cache, so the subsequent data access pays no disk
	// latency.
	PrefetchOnLock bool

	stale atomic.Bool // set by Invalidate; fences every mutation

	clk vtime.Clock // set by SetClock; nil means real time

	mu        sync.Mutex
	allocated []uint64 // bitmap: bit p%64 of word p/64 is set while page p is in use
	inodeUsed map[int]bool
	encBuf    []byte          // the inode page image WriteInode encodes and readInodePage reads into, between uses
	rewrite   *rewriteBuffers // RewriteFile's buffers, between uses
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
// volume in two forced I/Os.  Existing contents are ignored.
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
		allocated: make([]uint64, (geo.NumPages+63)/64),
		inodeUsed: make(map[int]bool),
	}

	// Clear the inode table and log area in one force, then write the
	// superblock in a second: it is the commit point, so Load rejects a
	// format a crash cut short.
	zero := make([]simdisk.PageWrite, geo.DataStart-1)
	for i := range zero {
		zero[i] = simdisk.PageWrite{Page: 1 + i, Kind: simdisk.IOMeta}
	}
	if _, err := disk.WritePages(zero); err != nil {
		return nil, err
	}
	super := make([]byte, ps)
	binary.LittleEndian.PutUint32(super[0:], superMagic)
	binary.LittleEndian.PutUint32(super[4:], uint32(geo.NumInodes))
	binary.LittleEndian.PutUint32(super[8:], uint32(geo.LogPages))
	if err := disk.WritePage(0, super, simdisk.IOMeta, true); err != nil {
		return nil, err
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
		allocated: make([]uint64, (geo.NumPages+63)/64),
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
		v.markUsed(node.Indirect)
		for _, p := range node.Pages {
			v.markUsed(p)
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
	ino, err := v.ReserveInode()
	if err != nil {
		return -1, err
	}
	if err := v.WriteInode(&Inode{Ino: ino, Version: 1, Indirect: -1}); err != nil {
		v.mu.Lock()
		delete(v.inodeUsed, ino)
		v.mu.Unlock()
		return -1, err
	}
	return ino, nil
}

// ReserveInode allocates a fresh inode number in memory only.  Nothing
// reaches the disk before the inode's first write (WriteInode or
// RewriteFile): until then the slot reads as free (ErrFreeInode), and a
// crash forfeits the reservation, since Load's rebuild finds the slot free.
func (v *Volume) ReserveInode() (int, error) {
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
	return ino, nil
}

// RewriteFile replaces the whole contents of node's file with data in one
// forced batch - fresh pages for data, the indirect page if the pointer
// table needs one, then the inode - and on success makes node the new
// committed inode and frees the pages it replaced.  The batch lands in
// slice order (simdisk.WritePages), so a crash that tears it before the
// inode leaves the old file whole and the fresh pages unreferenced, free
// again after Load's rebuild: a shadow commit in one force.  node may be a
// reserved inode with nothing on disk yet (no pages, Indirect -1): a new
// file is written whole this way.  An empty file costs the inode write.
func (v *Volume) RewriteFile(node *Inode, data []byte) error {
	if err := v.staleErr(); err != nil {
		return err
	}
	if err := v.checkIno(node.Ino); err != nil {
		return err
	}
	ps := v.geo.PageSize
	n := (len(data) + ps - 1) / ps
	if n > MaxPointers(ps) {
		return fmt.Errorf("%w: %d pointers > %d", ErrFileTooBig, n, MaxPointers(ps))
	}
	v.st.Add(stats.Instructions, costmodel.InstrIntentionEntry)
	v.mu.Lock()
	sc := v.rewrite
	v.rewrite = nil
	v.mu.Unlock()
	if sc == nil {
		sc = &rewriteBuffers{tail: make([]byte, ps)}
	}
	defer func() {
		v.mu.Lock()
		v.rewrite = sc
		v.mu.Unlock()
	}()
	next := Inode{Ino: node.Ino, Size: int64(len(data)), Version: node.Version + 1, Pages: sc.pages[:0], Indirect: -1}
	sc.writes = sc.writes[:0]
	stage := func(data []byte) error {
		p, err := v.AllocPage()
		if err == nil {
			sc.writes = append(sc.writes, simdisk.PageWrite{Page: p, Data: data, Kind: simdisk.IOData})
		}
		return err
	}
	release := func(writes []simdisk.PageWrite) {
		for _, w := range writes {
			v.FreePage(w.Page) //nolint:errcheck // pages this call allocated
		}
	}
	for off := 0; off < len(data); off += ps {
		page := data[off:min(off+ps, len(data))]
		if len(page) < ps {
			clear(sc.tail[copy(sc.tail, page):])
			page = sc.tail
		}
		if err := stage(page); err != nil {
			release(sc.writes)
			return err
		}
		next.Pages = append(next.Pages, sc.writes[len(sc.writes)-1].Page)
	}
	if inline := inlinePointers(ps); n > inline {
		if err := stage(encodePointers(make([]byte, ps), next.Pages[inline:])); err != nil {
			release(sc.writes)
			return err
		}
		next.Indirect = sc.writes[len(sc.writes)-1].Page
	}
	inode := v.takeEncBuf()
	defer v.putEncBuf(inode)
	clear(inode)
	encodeInode(inode, &next)
	staged := len(sc.writes)
	sc.writes = append(sc.writes, simdisk.PageWrite{Page: v.inodePage(node.Ino), Data: inode, Kind: simdisk.IOInode})
	if _, err := v.disk.WritePages(sc.writes); err != nil {
		release(sc.writes[:staged])
		return err
	}
	// Durable: the replaced pages are free, and node takes the new
	// pointer table while the buffers keep node's old one.
	v.mu.Lock()
	for _, p := range node.Pages {
		v.releaseLocked(p)
	}
	v.releaseLocked(node.Indirect)
	v.mu.Unlock()
	sc.pages = node.Pages
	*node = next
	return nil
}

// rewriteBuffers is what RewriteFile builds a batch in, kept between uses:
// the page writes, a pointer table, and the image of a partial last page
// (the disk has copied it by the time WritePages returns).
type rewriteBuffers struct {
	writes []simdisk.PageWrite
	pages  []int
	tail   []byte
}

// ReleaseInode frees inode ino and every page it references with one
// forced write, the zeroed slot.  The pages return to the allocator only
// once that write is durable: a crash before it leaves the file whole, and
// one after it leaves pages Load's rebuild finds free.  A reserved slot
// that never reached the disk is released in memory alone.
func (v *Volume) ReleaseInode(ino int) error {
	if err := v.staleErr(); err != nil {
		return err
	}
	node, err := v.ReadInode(ino)
	switch {
	case errors.Is(err, ErrFreeInode):
		node = &Inode{Indirect: -1}
	case err != nil:
		return err
	default: // a nil image zeroes the slot and the disk keeps none (DESIGN.md section 4, item 14)
		zero := [1]simdisk.PageWrite{{Page: v.inodePage(ino), Kind: simdisk.IOInode}}
		if _, err := v.disk.WritePages(zero[:]); err != nil {
			return err
		}
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	for _, p := range node.Pages {
		v.releaseLocked(p)
	}
	v.releaseLocked(node.Indirect)
	delete(v.inodeUsed, ino)
	return nil
}

// readInodePage decodes the on-disk inode, returning ErrFreeInode for an
// unallocated slot.  No locks held.
func (v *Volume) readInodePage(ino int) (*Inode, error) {
	buf := v.takeEncBuf()
	defer v.putEncBuf(buf)
	if err := v.disk.ReadPageInto(v.inodePage(ino), simdisk.IOInode, buf); err != nil {
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
	return v.writeInode(nil, node, false)
}

// WriteInodeAfter is WriteInode in one forced batch (DESIGN.md section
// 10, the one-force rule): the data pages in batch, then the indirect page
// if the pointer table needs one, then the inode, the commit point.  The
// batch lands in slice order, so a crash that tears it before the inode
// leaves the old descriptor whole and the pages ahead of it unreferenced,
// free again after Load's rebuild.  It appends to batch, so a caller that
// leaves room for the indirect page and the inode allocates nothing.
func (v *Volume) WriteInodeAfter(batch []simdisk.PageWrite, node *Inode) error {
	return v.writeInode(batch, node, true)
}

func (v *Volume) writeInode(batch []simdisk.PageWrite, node *Inode, oneForce bool) error {
	if err := v.staleErr(); err != nil {
		return err
	}
	if err := v.checkIno(node.Ino); err != nil {
		return err
	}
	if len(node.Pages) > MaxPointers(v.geo.PageSize) {
		return fmt.Errorf("%w: %d pointers > %d", ErrFileTooBig, len(node.Pages), MaxPointers(v.geo.PageSize))
	}
	for _, w := range batch {
		if err := v.checkData(w.Page); err != nil {
			return err
		}
	}
	v.st.Add(stats.Instructions, costmodel.InstrIntentionEntry)
	inline := inlinePointers(v.geo.PageSize)
	oldIndirect := node.Indirect

	// One kept image serves the indirect page and then the inode page
	// (the disk has copied the first by the time the second is encoded);
	// a batch holds both at once, so its indirect page gets its own.
	buf := v.takeEncBuf()
	defer v.putEncBuf(buf)
	clear(buf)
	if len(node.Pages) > inline {
		p, err := v.AllocPage()
		if err != nil {
			return err
		}
		if oneForce {
			batch = append(batch, simdisk.PageWrite{Page: p, Data: encodePointers(make([]byte, v.geo.PageSize), node.Pages[inline:]), Kind: simdisk.IOData})
		} else if err := v.disk.WritePage(p, encodePointers(buf, node.Pages[inline:]), simdisk.IOData, true); err != nil {
			v.FreePage(p) //nolint:errcheck // best-effort cleanup on the error path
			return err
		}
		node.Indirect = p
		clear(buf)
	} else {
		node.Indirect = -1
	}

	node.Version++
	encodeInode(buf, node)
	var err error
	if oneForce {
		batch = append(batch, simdisk.PageWrite{Page: v.inodePage(node.Ino), Data: buf, Kind: simdisk.IOInode})
		_, err = v.disk.WritePages(batch)
	} else {
		err = v.disk.WritePage(v.inodePage(node.Ino), buf, simdisk.IOInode, true)
	}
	if err != nil {
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

// encodeInode writes node's descriptor into buf, a zeroed page image:
// the header, then the pointers that fit inline.
func encodeInode(buf []byte, node *Inode) {
	binary.LittleEndian.PutUint32(buf[0:], inodeMagic)
	binary.LittleEndian.PutUint32(buf[4:], uint32(node.Ino))
	binary.LittleEndian.PutUint64(buf[8:], uint64(node.Size))
	binary.LittleEndian.PutUint64(buf[16:], node.Version)
	binary.LittleEndian.PutUint32(buf[24:], uint32(len(node.Pages)))
	binary.LittleEndian.PutUint32(buf[28:], uint32(int32(node.Indirect)))
	encodePointers(buf[inodeHeaderBytes:], node.Pages[:min(len(node.Pages), inlinePointers(len(buf)))])
}

// encodePointers writes page pointers into buf, four bytes each, and
// returns buf.
func encodePointers(buf []byte, pages []int) []byte {
	for i, p := range pages {
		binary.LittleEndian.PutUint32(buf[4*i:], uint32(int32(p)))
	}
	return buf
}

// takeEncBuf returns the kept inode page image, or a new one when a
// concurrent caller holds it; putEncBuf keeps it again.
func (v *Volume) takeEncBuf() []byte {
	v.mu.Lock()
	buf := v.encBuf
	v.encBuf = nil
	v.mu.Unlock()
	if buf == nil {
		buf = make([]byte, v.geo.PageSize)
	}
	return buf
}

func (v *Volume) putEncBuf(buf []byte) {
	v.mu.Lock()
	v.encBuf = buf
	v.mu.Unlock()
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

// used reports whether page p is allocated.  Caller holds v.mu.
func (v *Volume) used(p int) bool {
	return p >= 0 && p < v.geo.NumPages && v.allocated[p/64]&(1<<(p%64)) != 0
}

// markUsed allocates page p, if it is a page of the disk.  Caller holds
// v.mu (or owns v, as Load does).
func (v *Volume) markUsed(p int) {
	if p >= 0 && p < v.geo.NumPages {
		v.allocated[p/64] |= 1 << (p % 64)
	}
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
	for p := v.geo.DataStart; p < v.geo.NumPages; p = p/64*64 + 64 {
		if free := ^v.allocated[p/64] >> (p % 64); free != 0 { // p's word, from p up
			if p += bits.TrailingZeros64(free); p < v.geo.NumPages {
				v.markUsed(p)
				return p, nil
			}
		}
	}
	return -1, ErrNoSpace
}

// releaseLocked returns p to the free pool if it is an allocated data
// page; holes (-1) and free pages are left alone.  Caller holds v.mu.
func (v *Volume) releaseLocked(p int) {
	if p >= v.geo.DataStart && v.used(p) {
		v.allocated[p/64] &^= 1 << (p % 64)
	}
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
	if !v.used(p) {
		return fmt.Errorf("%w: page %d", ErrDoubleFree, p)
	}
	v.allocated[p/64] &^= 1 << (p % 64)
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
	if v.used(p) {
		return fmt.Errorf("%w: page %d", ErrDoubleAlloc, p)
	}
	v.markUsed(p)
	return nil
}

// PageAllocated reports whether the data page is currently allocated.
func (v *Volume) PageAllocated(p int) bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.used(p)
}

// FreePages returns the number of unallocated data pages.
func (v *Volume) FreePages() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	used := 0
	for _, w := range v.allocated {
		used += bits.OnesCount64(w)
	}
	return v.geo.NumPages - v.geo.DataStart - used
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
