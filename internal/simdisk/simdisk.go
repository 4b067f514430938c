// Package simdisk provides a page-addressed simulated disk with
// crash-faithful write semantics and per-class I/O accounting.
//
// The paper's evaluation counts synchronous disk writes per transaction
// (Figure 5) and distinguishes data page writes, prepare log writes,
// coordinator log writes, and the phase-two inode write.  Disk exposes
// exactly that: every write is tagged with an IOKind that feeds the
// matching stats counter, and a Crash discards everything that was written
// asynchronously but never flushed, so recovery code is exercised against
// realistic post-crash images.
//
// A Disk is safe for concurrent use.
package simdisk

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/vtime"
)

// IOKind classifies a disk transfer for accounting (Figure 5 regenerates
// its per-step breakdown from these classes).
type IOKind int

const (
	// IOData is an ordinary file data page (shadow pages included).
	IOData IOKind = iota
	// IOInode is a file descriptor block: the atomic pointer-replacement
	// write that commits a file (step 5 in Figure 5).
	IOInode
	// IOCoordLog is a transaction coordinator log record (steps 1 and 4).
	IOCoordLog
	// IOPrepareLog is a participant prepare log record (step 3).
	IOPrepareLog
	// IOWAL is a baseline write-ahead log record (internal/wal).
	IOWAL
	// IOMeta is filesystem metadata (superblock, allocation bitmap).
	IOMeta
)

var ioKindNames = map[IOKind]string{
	IOData:       "data",
	IOInode:      "inode",
	IOCoordLog:   "coordlog",
	IOPrepareLog: "preparelog",
	IOWAL:        "wal",
	IOMeta:       "meta",
}

// String returns a short name for the kind.
func (k IOKind) String() string {
	if s, ok := ioKindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("iokind(%d)", int(k))
}

// writeCounter maps an IOKind to its dedicated stats counter (in addition
// to the aggregate DiskWrites counter).
func (k IOKind) writeCounter() (stats.Counter, bool) {
	switch k {
	case IOInode:
		return stats.InodeWrites, true
	case IOCoordLog:
		return stats.CoordLogWrites, true
	case IOPrepareLog:
		return stats.PrepareLogWrites, true
	case IOData:
		return stats.DataPageWrites, true
	case IOWAL:
		return stats.WALWrites, true
	}
	return 0, false
}

// Errors returned by Disk operations.
var (
	// ErrCrashed is returned while the disk is crashed (between Crash and
	// Restart).
	ErrCrashed = errors.New("simdisk: disk is crashed")
	// ErrOutOfRange is returned for page numbers outside the disk.
	ErrOutOfRange = errors.New("simdisk: page number out of range")
	// ErrBadSize is returned when a write's length differs from the page
	// size.
	ErrBadSize = errors.New("simdisk: data length != page size")
)

// Disk is a fixed-size array of pages with stable (flushed) and volatile
// (written but unflushed) versions.  Synchronous writes reach stable
// storage immediately; asynchronous writes sit in the volatile layer until
// Flush or FlushPage, and are lost by Crash.
//
// The disk owns its stable and volatile images outright: reads copy out
// of them, writes copy into them, no reference crosses the API.  So a
// caller may reuse its slice the moment a call returns, and a stable image
// can be overwritten in place.
type Disk struct {
	name     string
	pageSize int

	mu       sync.Mutex
	stable   [][]byte       // committed page images; nil = never written
	volatile map[int][]byte // async writes not yet flushed
	// spare holds the buffers of retired volatile images (flushed or
	// lost to a crash) for the next async write.  Nothing else feeds it,
	// so len(spare)+len(volatile) never exceeds the most pages that were
	// ever dirty at once.
	spare   [][]byte
	crashed bool
	// epoch counts Crash calls.  A virtual-clock force parks with d.mu
	// released; rechecking only d.crashed on wake would miss a
	// crash-then-restart landing inside the park (the flag is false
	// again), letting a pre-crash writer scribble over recovered state.
	// The epoch turns that ABA into a visible failure.
	epoch int64

	// syncDelay is the simulated cost of one forced I/O (seek + sync).
	// It is paid once per synchronous call - a WritePages batch pays it
	// once no matter how many pages it carries - and serializes through
	// the spindle, so concurrent forces queue exactly as real hardware
	// would.  Zero (the default) keeps the disk instantaneous for the
	// paper's operation-counting benchmarks.
	syncDelay time.Duration

	// clock supplies the sync-delay wait.  Under the real clock the
	// delay is slept while d.mu is held (the historical behaviour).
	// Under a virtual clock force instead reserves a spindle slot
	// (busyUntil), releases d.mu, parks until the slot's end, and
	// re-validates - so virtual time advances through queued I/O.
	clock     vtime.Clock
	busyUntil time.Time

	// crashAfter, when >= 0, crashes the disk after that many more
	// stable page writes land (the write that would exceed the budget
	// fails with ErrCrashed).  Crash-correctness tests use it to tear a
	// vectored batch mid-flush.  When crashKindSet is true only writes
	// of crashKind step (and can trip) the budget, so a fault can target
	// one I/O class - e.g. "the third log force" - while data traffic
	// passes unharmed.
	crashAfter   int
	crashKind    IOKind
	crashKindSet bool

	// writes counts stable page writes since New, per kind and in total,
	// so an exhaustive crash-schedule explorer can learn how many crash
	// points a workload has.  Monotone: survives Crash/Restart.
	writes     int64
	kindWrites map[IOKind]int64

	st *stats.Set
	// busyNS accumulates spindle busy time (syncDelay per force) so the
	// sampler can derive a busy fraction.  Queueing wait is deliberately
	// excluded: a force that queues behind another holds the spindle for
	// syncDelay only.
	busyNS *telemetry.Counter
}

// New creates a disk with numPages pages of pageSize bytes each, charging
// I/O events to st (which may be nil).
func New(name string, numPages, pageSize int, st *stats.Set) *Disk {
	if numPages <= 0 || pageSize <= 0 {
		panic("simdisk: non-positive geometry")
	}
	return &Disk{
		name:       name,
		pageSize:   pageSize,
		stable:     make([][]byte, numPages),
		volatile:   make(map[int][]byte),
		crashAfter: -1,
		kindWrites: make(map[IOKind]int64),
		clock:      vtime.Real(),
		st:         st,
		busyNS:     st.Registry().Counter("disk_busy_ns"),
	}
}

// SetClock installs the clock charging the sync delay.  Call before the
// disk sees traffic.
func (d *Disk) SetClock(c vtime.Clock) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if c != nil {
		d.clock = c
	}
}

// SetSyncDelay installs the simulated per-forced-I/O latency.  Zero
// restores the instantaneous (operation-counting) behaviour.
func (d *Disk) SetSyncDelay(delay time.Duration) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.syncDelay = delay
}

// CrashAfterWrites arms a deterministic fault: n more stable page writes
// succeed, then the disk crashes and the write in progress (and everything
// after it) fails with ErrCrashed.  Pass a negative n to disarm.
func (d *Disk) CrashAfterWrites(n int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.crashAfter = n
	d.crashKindSet = false
}

// CrashAfterWritesOfKind arms the same fault restricted to one I/O
// class: only stable writes of the given kind step the budget, and the
// write that exhausts it fails with ErrCrashed.  Writes of other kinds
// proceed normally until the fault fires.  Pass a negative n to disarm.
func (d *Disk) CrashAfterWritesOfKind(kind IOKind, n int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.crashAfter = n
	d.crashKind = kind
	d.crashKindSet = n >= 0
}

// StableWrites returns the number of stable page writes that have landed
// since the disk was created.  The counter is monotone across
// Crash/Restart, so an explorer can diff it around a workload to learn
// how many crash points the workload exposes.
func (d *Disk) StableWrites() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.writes
}

// StableWritesOfKind returns the stable write count for one I/O class.
func (d *Disk) StableWritesOfKind(kind IOKind) int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.kindWrites[kind]
}

// Name returns the disk's name.
func (d *Disk) Name() string { return d.name }

// PageSize returns the size of one page in bytes.
func (d *Disk) PageSize() int { return d.pageSize }

// NumPages returns the number of pages on the disk.
func (d *Disk) NumPages() int { return len(d.stable) }

// Stats returns the counter set the disk charges to (possibly nil).
func (d *Disk) Stats() *stats.Set { return d.st }

func (d *Disk) check(page int) error {
	if d.crashed {
		return ErrCrashed
	}
	if page < 0 || page >= len(d.stable) {
		return fmt.Errorf("%w: page %d of %d on %s", ErrOutOfRange, page, len(d.stable), d.name)
	}
	return nil
}

// ReadPage returns a copy of the current contents of the page: the volatile
// version if one exists, else the stable version, else a zero page.  The
// read is charged as one disk read of the given kind.
func (d *Disk) ReadPage(page int, kind IOKind) ([]byte, error) {
	buf := make([]byte, d.pageSize)
	if err := d.ReadPageInto(page, kind, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// ReadPageInto is ReadPage into a page-sized buffer the caller owns.
func (d *Disk) ReadPageInto(page int, kind IOKind, dst []byte) error {
	return d.readInto(page, dst, false)
}

// ReadStableInto fills dst (page-sized, the caller's) with the last
// flushed (stable) version of the page, ignoring any unflushed volatile
// write.  The record commit mechanism uses this to fetch the "previous
// version" of a page for differencing (Figure 4(b)).
func (d *Disk) ReadStableInto(page int, kind IOKind, dst []byte) error {
	return d.readInto(page, dst, true)
}

func (d *Disk) readInto(page int, dst []byte, stableOnly bool) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.check(page); err != nil {
		return err
	}
	if len(dst) != d.pageSize {
		return fmt.Errorf("%w: got %d want %d on %s page %d", ErrBadSize, len(dst), d.pageSize, d.name, page)
	}
	d.st.Inc(stats.DiskReads)
	src := d.stable[page]
	if v, ok := d.volatile[page]; ok && !stableOnly {
		src = v
	}
	if src == nil {
		clear(dst)
	} else {
		copy(dst, src)
	}
	return nil
}

// WritePage writes data to the page.  If sync is true the write reaches
// stable storage immediately, is charged as one disk write and one forced
// I/O, and pays the sync delay; otherwise it lands in the volatile layer
// and the disk write is charged when it is flushed.
func (d *Disk) WritePage(page int, data []byte, kind IOKind, sync bool) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.check(page); err != nil {
		return err
	}
	if len(data) != d.pageSize {
		return fmt.Errorf("%w: got %d want %d on %s page %d", ErrBadSize, len(data), d.pageSize, d.name, page)
	}
	if !sync {
		buf, ok := d.volatile[page]
		if !ok {
			buf = d.takeBufLocked()
			d.volatile[page] = buf
		}
		copy(buf, data)
		return nil
	}
	if err := d.force(); err != nil {
		return err
	}
	return d.writeStableLocked(page, data, kind)
}

// PageWrite is one page of a vectored synchronous write.
type PageWrite struct {
	Page int
	Data []byte
	Kind IOKind
}

// WritePages applies the writes to stable storage in order, as a single
// forced I/O: every page is still charged as one disk write of its kind
// (the per-page transfer cost is real), but the batch pays the seek+sync
// cost - the ForcedIOs charge and the sync delay - exactly once.  This is
// the primitive group commit builds on.
//
// The batch is atomic with respect to a concurrent Crash: under the real
// clock the disk mutex is held throughout, and under a virtual clock any
// crash (even one followed by a restart) landing in the sync-delay park
// fails the whole batch before a single page is applied.  An armed
// CrashAfterWrites fault can still tear it:
// pages are then written strictly in slice order and the remainder is
// lost, so callers ordering continuation pages before their header never
// expose a partial record.  The returned count is how many leading pages
// of the slice reached stable storage, so a torn batch's caller can tell
// which records are durable and which died with the tear.
func (d *Disk) WritePages(writes []PageWrite) (int, error) {
	if len(writes) == 0 {
		return 0, nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, w := range writes {
		if err := d.check(w.Page); err != nil {
			return 0, err
		}
		if len(w.Data) != d.pageSize {
			return 0, fmt.Errorf("%w: got %d want %d on %s page %d", ErrBadSize, len(w.Data), d.pageSize, d.name, w.Page)
		}
	}
	if err := d.force(); err != nil {
		return 0, err
	}
	for i, w := range writes {
		if err := d.writeStableLocked(w.Page, w.Data, w.Kind); err != nil {
			return i, err
		}
	}
	return len(writes), nil
}

// force charges one forced I/O and pays the sync delay.  Called with
// d.mu held.  Real clock: the delay is slept under the mutex, so the
// spindle serializes all traffic.  Virtual clock: a [busyUntil, end]
// slot is reserved, the mutex dropped while the caller parks until the
// slot ends, then retaken - queued forces complete in reservation
// order, and a crash landing during the wait fails the write.
func (d *Disk) force() error {
	d.st.Inc(stats.ForcedIOs)
	if d.syncDelay <= 0 {
		return nil
	}
	d.busyNS.Add(d.syncDelay.Nanoseconds())
	v, ok := vtime.AsVirtual(d.clock)
	if !ok {
		d.clock.Sleep(d.syncDelay)
		return nil
	}
	start := v.Now()
	if d.busyUntil.After(start) {
		start = d.busyUntil
	}
	end := start.Add(d.syncDelay)
	d.busyUntil = end
	epoch := d.epoch
	d.mu.Unlock()
	v.SleepUntil(end)
	d.mu.Lock()
	if d.crashed || d.epoch != epoch {
		return ErrCrashed
	}
	return nil
}

// takeBufLocked returns a page buffer of arbitrary contents for a new
// disk-owned image: a spare one if any, else a fresh one.
func (d *Disk) takeBufLocked() []byte {
	if n := len(d.spare); n > 0 {
		buf := d.spare[n-1]
		d.spare = d.spare[:n-1]
		return buf
	}
	return make([]byte, d.pageSize)
}

// crashLocked loses every volatile image and takes the disk offline.
func (d *Disk) crashLocked() {
	for _, v := range d.volatile {
		d.spare = append(d.spare, v)
	}
	clear(d.volatile)
	d.crashed = true
	d.epoch++
}

// writeStableLocked lands one page on stable storage, stepping the armed
// crash fault first: the stable image is overwritten in place only once
// the budget has let the write through, so a torn batch leaves every
// later page's old image intact.  data may be the page's own volatile
// image (a flush).  Caller holds d.mu and has validated page and size.
func (d *Disk) writeStableLocked(page int, data []byte, kind IOKind) error {
	if !d.crashKindSet || kind == d.crashKind {
		if d.crashAfter == 0 {
			d.crashAfter = -1
			d.crashKindSet = false
			d.crashLocked()
			return ErrCrashed
		}
		if d.crashAfter > 0 {
			d.crashAfter--
		}
	}
	if d.stable[page] == nil {
		d.stable[page] = d.takeBufLocked()
	}
	copy(d.stable[page], data)
	if v, ok := d.volatile[page]; ok {
		delete(d.volatile, page)
		d.spare = append(d.spare, v)
	}
	d.writes++
	d.kindWrites[kind]++
	d.chargeWrite(kind)
	return nil
}

// chargeWrite must be called with d.mu held.
func (d *Disk) chargeWrite(kind IOKind) {
	d.st.Inc(stats.DiskWrites)
	if c, ok := kind.writeCounter(); ok {
		d.st.Inc(c)
	}
}

// FlushPage forces the page's volatile version (if any) to stable storage,
// charging one disk write of the given kind.  Flushing a clean page is a
// no-op and charges nothing.
func (d *Disk) FlushPage(page int, kind IOKind) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.check(page); err != nil {
		return err
	}
	if _, ok := d.volatile[page]; ok {
		if err := d.force(); err != nil {
			return err
		}
		// the virtual-clock force drops d.mu: re-fetch, since a racing
		// flusher may have written (or a crash discarded) the page
		if v, ok := d.volatile[page]; ok {
			if err := d.writeStableLocked(page, v, kind); err != nil {
				return err
			}
		}
	}
	return nil
}

// Flush forces every volatile page to stable storage, charging one data
// write per dirty page.  It returns the number of pages written.
func (d *Disk) Flush() (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.crashed {
		return 0, ErrCrashed
	}
	if len(d.volatile) == 0 {
		return 0, nil
	}
	if err := d.force(); err != nil {
		return 0, err
	}
	n := 0
	for page, v := range d.volatile {
		if err := d.writeStableLocked(page, v, IOData); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// DirtyPages returns the number of volatile (unflushed) pages.
func (d *Disk) DirtyPages() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.volatile)
}

// Crash discards all volatile writes and takes the disk offline until
// Restart.  Stable contents survive, exactly as a power failure would
// leave a real disk with a write-through cache.
func (d *Disk) Crash() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.crashLocked()
}

// Restart brings a crashed disk back online and disarms any pending
// CrashAfterWrites fault.  Restarting a healthy disk is a no-op.
func (d *Disk) Restart() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.crashed = false
	d.crashAfter = -1
	d.crashKindSet = false
}

// Crashed reports whether the disk is currently offline.
func (d *Disk) Crashed() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.crashed
}
